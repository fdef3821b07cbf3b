"""Workload base class and warp-stream helpers.

A workload is a *re-iterable* source of :class:`~repro.sim.gpu.WarpAccess`
records: every ``iter()`` restarts generation from the same seed, so the
same trace can be replayed through several runtimes (Figure 8 compares
four of them) without materialising it in memory.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import TraceError
from repro.sim.gpu import WarpAccess
from repro.sim.transfer import WARP_SIZE


class Workload(abc.ABC):
    """A reproducible stream of warp accesses.

    Attributes:
        name: Table 2 name ("PageRank", ...).
        description: Table 2's one-line description.
        footprint_pages: bound on every page id the trace emits (the
            requested size, raised where the layout needs more).
        seed: RNG seed; generation is a pure function of constructor args.
    """

    name: str = "abstract"
    description: str = ""

    def __init__(self, footprint_pages: int, seed: int = 0) -> None:
        if footprint_pages <= 0:
            raise TraceError(f"footprint_pages must be positive, got {footprint_pages}")
        self.footprint_pages = footprint_pages
        self.seed = seed

    @abc.abstractmethod
    def generate(self) -> Iterator[WarpAccess]:
        """Fresh generator over the trace (deterministic in the seed)."""

    def __iter__(self) -> Iterator[WarpAccess]:
        return self.generate()

    def coalesced_pages(self) -> Iterator[int]:
        """The coalesced page-id stream (analysis convenience)."""
        from repro.sim.gpu import coalesce

        for warp in self:
            yield from coalesce(warp)


def stream_warps(
    pages: Iterable[int], write: bool = False, pages_per_warp: int = 2
) -> Iterator[WarpAccess]:
    """Group a page-id sequence into warp accesses.

    Models lanes striding through memory: consecutive lanes fall into the
    same or adjacent 64 KB pages, so one warp instruction touches a small
    number of distinct pages (``pages_per_warp``).
    """
    if not 1 <= pages_per_warp <= WARP_SIZE:
        raise TraceError(f"pages_per_warp must be in 1..{WARP_SIZE}")
    batch: list[int] = []
    for page in pages:
        batch.append(page)
        if len(batch) == pages_per_warp:
            yield WarpAccess(pages=tuple(batch), write=write)
            batch = []
    if batch:
        yield WarpAccess(pages=tuple(batch), write=write)


class JitteredWorkload(Workload):
    """Bounded reordering of another workload's warp stream.

    A GPU keeps thousands of warps in flight; the memory system sees their
    accesses in an order that only *approximates* program order, with
    reordering bounded by the number of resident warps.  This wrapper
    models that: warps pass through a shuffle buffer of ``window`` entries
    and leave in random order.  Policy-relevant consequence: reuse
    distances acquire +-window jitter, so a strict-demotion Tier-2 running
    exactly at capacity (GMT-TierOrder) loses marginal pages, while a
    selective policy's occupancy headroom absorbs the noise — the dynamics
    behind the paper's Figure 10(a) critique of TierOrder.
    """

    def __init__(self, inner: Workload, window: int, seed: int | None = None) -> None:
        if window < 1:
            raise TraceError(f"jitter window must be >= 1, got {window}")
        super().__init__(inner.footprint_pages, inner.seed if seed is None else seed)
        self.inner = inner
        self.window = window
        self.name = inner.name
        self.description = inner.description

    def generate(self) -> Iterator[WarpAccess]:
        import random

        rng = random.Random((self.seed << 8) ^ 0x5EED)
        buffer: list[WarpAccess] = []
        for warp in self.inner:
            buffer.append(warp)
            if len(buffer) >= self.window:
                idx = rng.randrange(len(buffer))
                buffer[idx], buffer[-1] = buffer[-1], buffer[idx]
                yield buffer.pop()
        while buffer:
            idx = rng.randrange(len(buffer))
            buffer[idx], buffer[-1] = buffer[-1], buffer[idx]
            yield buffer.pop()


def interleave_warps(streams: Sequence[Iterator[WarpAccess]]) -> Iterator[WarpAccess]:
    """Round-robin merge of several warp streams (concurrent thread blocks).

    Streams of different lengths are drained as they end.
    """
    live = [iter(s) for s in streams]
    while live:
        nxt: list[Iterator[WarpAccess]] = []
        for stream in live:
            try:
                yield next(stream)
            except StopIteration:
                continue
            nxt.append(stream)
        live = nxt
