"""Workload base class and the warp-column trace format.

A workload's trace is one :class:`WarpColumns` value: every warp's lane
page ids concatenated (``lanes``), the lanes per warp (``lengths``) and
one store flag per warp (``writes``) — the format
:mod:`repro.workloads.capture` stores.  :meth:`Workload.columns` is the
one method every workload implements.  It is a pure function of the
constructor arguments, so the same trace can be replayed through
several runtimes (Figure 8 compares four of them).  Iterating a
workload yields its warps as :class:`~repro.sim.gpu.WarpAccess` records
built from the columns.
"""

from __future__ import annotations

import abc
import random
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import count, repeat

import numpy as np

from repro.errors import TraceError
from repro.sim.gpu import WarpAccess
from repro.sim.transfer import WARP_SIZE

#: Warps converted to Python objects at a time when iterating columns,
#: and gathered at a time when permuting them.
_CHUNK_WARPS = 1 << 16


@dataclass(frozen=True, eq=False)
class WarpColumns:
    """A warp trace as three columns, validated once when built.

    Attributes:
        lanes: every warp's lane page ids, concatenated (int64).
        lengths: active lanes per warp, 1..32 (int8).
        writes: one store flag per warp (bool).

    Building one raises :class:`TraceError`, naming the warp, for a warp
    with no lane or more than 32, a negative page id, or columns that
    disagree in length.
    """

    lanes: np.ndarray
    lengths: np.ndarray
    writes: np.ndarray

    def __post_init__(self) -> None:
        lanes = np.asarray(self.lanes, dtype=np.int64)
        lengths = np.asarray(self.lengths)
        writes = np.asarray(self.writes, dtype=bool)
        n = len(lengths)
        if len(writes) != n:
            raise TraceError(
                f"columns disagree at warp {min(n, len(writes))}: "
                f"{n} lane counts, {len(writes)} write flags"
            )
        if n and lengths.min() < 1:
            warp = int(np.argmax(lengths < 1))
            raise TraceError(f"warp {warp}: a warp access needs at least one active lane")
        if n and lengths.max() > WARP_SIZE:
            warp = int(np.argmax(lengths > WARP_SIZE))
            raise TraceError(
                f"warp {warp}: a warp has at most {WARP_SIZE} lanes, got {lengths[warp]}"
            )
        lengths = lengths.astype(np.int8, copy=False)
        object.__setattr__(self, "lanes", lanes)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "writes", writes)
        covered = int(lengths.sum(dtype=np.int64))
        if covered != len(lanes):
            warp = int(np.searchsorted(_lane_ends(lengths), len(lanes), side="right"))
            raise TraceError(
                f"columns disagree at warp {warp}: the lane counts cover "
                f"{covered} lanes, the lanes column holds {len(lanes)}"
            )
        if covered and lanes.min() < 0:
            lane = int(np.argmax(lanes < 0))
            warp = int(np.searchsorted(_lane_ends(lengths), lane, side="right"))
            raise TraceError(f"warp {warp}: negative page id {lanes[lane]} in warp access")

    @classmethod
    def from_warps(cls, warps: Iterable[WarpAccess]) -> "WarpColumns":
        """Pack :class:`WarpAccess` records into columns."""
        lanes = array("q")
        lengths = array("b")
        writes = bytearray()
        for warp in warps:
            lanes.extend(warp.pages)
            lengths.append(len(warp.pages))
            writes.append(warp.write)
        return cls(
            np.frombuffer(lanes, dtype=np.int64),
            np.frombuffer(lengths, dtype=np.int8),
            np.frombuffer(writes, dtype=bool),
        )

    @property
    def n_warps(self) -> int:
        return len(self.lengths)

    def shifted(self, base: int) -> "WarpColumns":
        """The same warps with ``base`` (>= 0) added to every page id."""
        if base < 0:
            raise TraceError(f"a shift base must be >= 0, got {base}")
        return _derived_columns(self.lanes + base, self.lengths, self.writes)

    def take(self, order: Sequence[int]) -> "WarpColumns":
        """The warps in ``order`` (warp indices; a permutation keeps
        every warp once)."""
        order = np.asarray(order)
        lengths = self.lengths[order]
        writes = self.writes[order]
        # A warp's first lane index is its warp index plus the lanes past
        # the first of every wider warp before it, so only the wide warps'
        # positions are kept, not a start per warp.
        wide = np.flatnonzero(self.lengths > 1)
        extra = np.zeros(len(wide) + 1, dtype=np.int64)
        np.cumsum(self.lengths[wide] - 1, out=extra[1:])
        lanes = np.empty(int(lengths.sum(dtype=np.int64)), dtype=np.int64)
        at = 0
        # Gathered a chunk of warps at a time into the output, so the
        # index arrays stay small next to the trace.
        for first in range(0, len(order), _CHUNK_WARPS):
            warps = order[first : first + _CHUNK_WARPS]
            chunk = lengths[first : first + _CHUNK_WARPS]
            count = int(chunk.sum(dtype=np.int64))
            # Output lane i of the chunk, in its k-th warp, is input lane
            # offsets[k] + i.
            offsets = warps + extra[np.searchsorted(wide, warps)]
            offsets -= np.cumsum(chunk, dtype=np.int64) - chunk
            lanes[at : at + count] = self.lanes[
                np.repeat(offsets, chunk) + np.arange(count)
            ]
            at += count
        return _derived_columns(lanes, lengths, writes)

    def coalesce(self) -> tuple[np.ndarray, np.ndarray]:
        """The coalesced access stream: each warp's distinct pages in
        first-lane order, concatenated (per warp this is
        :func:`repro.sim.gpu.coalesce`), and a flag marking each warp's
        first page."""
        lanes, lengths = self.lanes, self.lengths
        first = np.ones(len(lanes), dtype=bool)
        # Only lanes of warps with two or more lanes can repeat a page.
        wide = lengths > 1
        if not wide.any():
            return lanes, first
        in_wide = np.repeat(wide, lengths)
        wide_lanes = lanes[in_wide]
        wide_lengths = lengths[wide]
        position = np.arange(len(wide_lanes)) - np.repeat(
            np.cumsum(wide_lengths, dtype=np.int64) - wide_lengths, wide_lengths
        )
        first[in_wide] = position == 0
        repeated = np.zeros(len(wide_lanes), dtype=bool)
        for k in range(1, int(wide_lengths.max())):
            # A lane repeats the lane k before it, in the same warp.
            repeated[k:] |= (wide_lanes[k:] == wide_lanes[:-k]) & (position[k:] >= k)
        if not repeated.any():
            return lanes, first
        keep = np.ones(len(lanes), dtype=bool)
        keep[in_wide] = ~repeated
        return lanes[keep], first[keep]

    def warps(self) -> Iterator[WarpAccess]:
        """The trace as :class:`WarpAccess` records, in order."""
        ends = _lane_ends(self.lengths)
        for first in range(0, self.n_warps, _CHUNK_WARPS):
            last = min(first + _CHUNK_WARPS, self.n_warps)
            lane0 = int(ends[first - 1]) if first else 0
            lanes = self.lanes[lane0 : ends[last - 1]].tolist()
            start = 0
            for end, write in zip(
                (ends[first:last] - lane0).tolist(), self.writes[first:last].tolist()
            ):
                yield _validated_warp(tuple(lanes[start:end]), write)
                start = end


def _lane_ends(lengths: np.ndarray) -> np.ndarray:
    """One past each warp's last lane index (int64, with no int64 copy
    of ``lengths`` beside it)."""
    ends = lengths.astype(np.int64)
    np.cumsum(ends, out=ends)
    return ends


# Values derived from validated columns are built without checking them
# again: that is what makes validation once per trace, not per warp.
_new_object = object.__new__
_set_field = object.__setattr__


def _derived_columns(lanes, lengths, writes) -> WarpColumns:
    """Columns derived from validated ones (a permutation, or a shift by
    a non-negative base, keeps every check true)."""
    columns = _new_object(WarpColumns)
    _set_field(columns, "lanes", lanes)
    _set_field(columns, "lengths", lengths)
    _set_field(columns, "writes", writes)
    return columns


def _validated_warp(pages: tuple[int, ...], write: bool) -> WarpAccess:
    """A :class:`WarpAccess` read from validated columns."""
    warp = _new_object(WarpAccess)
    _set_field(warp, "pages", pages)
    _set_field(warp, "write", write)
    return warp


class TraceBuilder:
    """Collects a trace segment by segment; :meth:`build` joins the
    segments into one validated :class:`WarpColumns`."""

    def __init__(self) -> None:
        self._segments: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def append(self, lanes, lengths=1, write=False) -> None:
        """Append warps given as columns: ``lanes`` concatenated,
        ``lengths`` the lanes of each warp (an int: of every warp) and
        ``write`` each warp's store flag (a bool: of every warp)."""
        lanes = _as_lanes(lanes)
        if np.ndim(lengths) == 0:
            if lengths < 1 or len(lanes) % lengths:
                raise TraceError(
                    f"{len(lanes)} lanes do not split into warps of {lengths}"
                )
            lengths = np.full(len(lanes) // lengths, lengths, dtype=np.int8)
        lengths = np.asarray(lengths, dtype=np.int8)
        writes = np.asarray(write, dtype=bool)
        if writes.ndim == 0:
            writes = np.repeat(writes, len(lengths))
        if len(lengths):
            self._segments.append((lanes, lengths, writes))

    def stream(self, pages, write=False, pages_per_warp: int = 2) -> None:
        """Append a page-id sequence as warps of ``pages_per_warp``
        consecutive lanes (the last warp takes what is left); ``write``
        is one store flag, or one per warp.

        Models lanes striding through memory: consecutive lanes fall
        into the same or adjacent 64 KB pages, so one warp instruction
        touches a small number of distinct pages.
        """
        if not 1 <= pages_per_warp <= WARP_SIZE:
            raise TraceError(f"pages_per_warp must be in 1..{WARP_SIZE}")
        lanes = _as_lanes(pages)
        full, rest = divmod(len(lanes), pages_per_warp)
        lengths = np.full(full + bool(rest), pages_per_warp, dtype=np.int8)
        if rest:
            lengths[-1] = rest
        self.append(lanes, lengths, write)

    def build(self) -> WarpColumns:
        if not self._segments:
            return WarpColumns([], [], [])
        return WarpColumns(*(np.concatenate(column) for column in zip(*self._segments)))


def _as_lanes(pages) -> np.ndarray:
    """Page ids as an int64 array (a range without a Python loop)."""
    if isinstance(pages, range):
        return np.arange(pages.start, pages.stop, pages.step, dtype=np.int64)
    if isinstance(pages, np.ndarray):
        return pages.astype(np.int64, copy=False)
    return np.fromiter(pages, dtype=np.int64)


class Workload(abc.ABC):
    """A reproducible warp trace.

    Attributes:
        name: Table 2 name ("PageRank", ...).
        description: Table 2's one-line description.
        footprint_pages: bound on every page id the trace emits (the
            requested size, raised where the layout needs more).
        seed: RNG seed; the trace is a pure function of constructor args.
    """

    name: str = "abstract"
    description: str = ""

    def __init__(self, footprint_pages: int, seed: int = 0) -> None:
        if footprint_pages <= 0:
            raise TraceError(f"footprint_pages must be positive, got {footprint_pages}")
        self.footprint_pages = footprint_pages
        self.seed = seed

    @abc.abstractmethod
    def columns(self) -> WarpColumns:
        """The whole trace (deterministic in the seed)."""

    def __iter__(self) -> Iterator[WarpAccess]:
        return self.columns().warps()

    def coalesced_pages(self) -> Iterator[int]:
        """The coalesced page-id stream (analysis convenience)."""
        pages, _first = self.columns().coalesce()
        for start in range(0, len(pages), _CHUNK_WARPS):
            yield from pages[start : start + _CHUNK_WARPS].tolist()


def stream_warps(
    pages: Iterable[int], write: bool = False, pages_per_warp: int = 2
) -> Iterator[WarpAccess]:
    """Group a page-id sequence into warp accesses: the warps
    :meth:`TraceBuilder.stream` appends."""
    trace = TraceBuilder()
    trace.stream(pages, write, pages_per_warp)
    return trace.build().warps()


def jitter_order(n_warps: int, window: int, randrange) -> array:
    """The order in which ``n_warps`` warps leave a shuffle buffer of
    ``window`` entries, as warp indices (``array('i')``).

    Warps enter in index order.  Once the buffer holds ``window`` warps,
    each arrival releases the one at ``randrange(window)``; at the end
    the buffer drains with ``randrange(k)`` for ``k`` = its size.  That
    is one ``randrange`` call per warp, in release order.
    """
    order = array("i", [0]) * n_warps
    if not n_warps:
        return order
    last = min(window, n_warps) - 1
    # slots[:last] hold the buffered warps; each arrival takes slot `last`.
    slots = list(range(last + 1))
    draws = map(randrange, repeat(last + 1, n_warps - last))
    for step, arrival, slot in zip(count(), count(last), draws):
        slots[last] = arrival
        order[step] = slots[slot]
        slots[slot] = arrival
    # Drain: the last occupied slot fills the one released.
    for step, size in zip(count(n_warps - last), range(last, 0, -1)):
        slot = randrange(size)
        order[step] = slots[slot]
        slots[slot] = slots[size - 1]
    return order


class JitteredWorkload(Workload):
    """Bounded reordering of another workload's warp stream.

    A GPU keeps thousands of warps in flight; the memory system sees their
    accesses in an order that only *approximates* program order, with
    reordering bounded by the number of resident warps.  This wrapper
    models that: warps pass through a shuffle buffer of ``window`` entries
    and leave in random order (:func:`jitter_order`).  Policy-relevant
    consequence: reuse distances acquire +-window jitter, so a
    strict-demotion Tier-2 running exactly at capacity (GMT-TierOrder)
    loses marginal pages, while a selective policy's occupancy headroom
    absorbs the noise — the dynamics behind the paper's Figure 10(a)
    critique of TierOrder.
    """

    def __init__(self, inner: Workload, window: int, seed: int | None = None) -> None:
        if window < 1:
            raise TraceError(f"jitter window must be >= 1, got {window}")
        super().__init__(inner.footprint_pages, inner.seed if seed is None else seed)
        self.inner = inner
        self.window = window
        self.name = inner.name
        self.description = inner.description

    def columns(self) -> WarpColumns:
        trace = self.inner.columns()
        rng = random.Random((self.seed << 8) ^ 0x5EED)
        return trace.take(jitter_order(trace.n_warps, self.window, rng.randrange))
