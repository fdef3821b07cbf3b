"""Page-lifecycle flight recorder — *where pages go and why*, per page.

GMT's contribution is the reuse-predicted insertion decision (paper
section 2.1.3): every clock-nominated Tier-1 victim is routed to Tier-2,
Tier-3, or retained, based on a predicted reuse class.  The aggregate
telemetry (:mod:`repro.obs.metrics`) says *how often* each route was
taken; this module records *which page took which route, when, and why*,
so causal questions become answerable after the fact:

- why did access N miss?  (``gmt-why miss <access-idx>``)
- what was page P's full tier journey?  (``gmt-why page <id>``)
- which mispredicted bypasses cost the most SSD I/O?  (``gmt-why top``)
- how long do pages actually live in each tier?  (``gmt-why residency``)

The :class:`LifecycleRecorder` is a bounded drop-oldest ring, exactly
like :class:`~repro.obs.tracing.SpanTracer`: always-on recording cannot
exhaust memory on million-access replays; :class:`SampledLifecycleRecorder`
keeps whole journeys of a hash-sampled subset of pages in the same ring.
Disabled is the default and
follows the ``self._flight is None`` discipline — one attribute check
per emission site, no allocation (see :mod:`repro.core.runtime`).

Every event carries the *virtual time* twice: the coalesced-access
position (the axis queries join on) and the modelled nanosecond clock
(the axis Perfetto renders).  Placement-decision events additionally
carry the policy's predicted reuse class, and :class:`ReusePolicy
<repro.core.policies.ReusePolicy>` emits ``RESOLVE`` events when a
page's *actual* class becomes known — so predicted-vs-actual joins per
page fall out of one log.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigError


class LifecycleKind(enum.Enum):
    """Every recorded page-lifecycle transition."""

    #: Tier-3 -> Tier-1: demand (or prefetch) fill from the SSD up-path.
    ADMIT = "admit"
    #: Tier-2 -> Tier-1: host-memory hit promoted over PCIe.
    PROMOTE = "promote"
    #: Tier-1 -> Tier-1: clock victim granted a short-reuse second chance.
    RETAIN = "retain"
    #: Tier-1 -> Tier-2: victim placed into host memory.
    DEMOTE = "demote"
    #: Tier-1 -> Tier-3: victim bypassed host memory (discard/writeback).
    BYPASS = "bypass"
    #: Tier-2 -> Tier-3: FIFO/clock eviction of a host-memory resident.
    T2_EVICT = "t2-evict"
    #: Dirty copy flushed to the SSD (rides on a bypass or Tier-2 evict).
    WRITEBACK = "writeback"
    #: The page's *actual* reuse class became known (policy resolution).
    RESOLVE = "resolve"


#: Kinds that install a page into Tier-1 — the events ``miss`` queries
#: anchor on (each carries the access index of the faulting access).
FILL_KINDS = (LifecycleKind.ADMIT, LifecycleKind.PROMOTE)
#: Kinds that remove a page from Tier-1.
EXIT_KINDS = (LifecycleKind.DEMOTE, LifecycleKind.BYPASS)


@dataclass(frozen=True, slots=True)
class LifecycleEvent:
    """One page-lifecycle transition.

    Attributes:
        seq: global emission index (monotonic; survives ring drops).
        access: coalesced-access position when the event fired.
        ts_ns: modelled virtual time (same axis as the span tracer).
        page: the page id.
        kind: which transition.
        tier_from / tier_to: ``"T1"``/``"T2"``/``"T3"`` (``"-"`` = n/a).
        cause: why — ``demand-miss``, ``predicted-medium``,
            ``predicted-long``, ``heuristic-forced-tier2``,
            ``cold-fallback``, ``retention-override``, ``policy-static``,
            ``tier2-capacity``, ``t2-quota-denied``, ``t2-full-bypass``,
            ``prefetch``, ``dirty-writeback``, ``correct``/``mispredicted``.
        predicted: the policy's predicted reuse class behind a placement
            decision (``short``/``medium``/``long``), None when the
            policy did not predict.
        dirty: whether the page was dirty when the event fired.
        latency_ns: modelled cost charged for this transition.
        tenant: issuing tenant's name in served runs (None solo).
        detail: free-form annotation (e.g. the actual class a RESOLVE
            event established).
    """

    seq: int
    access: int
    ts_ns: float
    page: int
    kind: LifecycleKind
    tier_from: str = "-"
    tier_to: str = "-"
    cause: str = ""
    predicted: str | None = None
    dirty: bool = False
    latency_ns: float = 0.0
    tenant: str | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        """Flat JSON-ready rendering (JSONL export lane)."""
        return {
            "seq": self.seq,
            "access": self.access,
            "ts_ns": self.ts_ns,
            "page": self.page,
            "kind": self.kind.value,
            "tier_from": self.tier_from,
            "tier_to": self.tier_to,
            "cause": self.cause,
            "predicted": self.predicted,
            "dirty": self.dirty,
            "latency_ns": self.latency_ns,
            "tenant": self.tenant,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "LifecycleEvent":
        """Inverse of :meth:`to_dict` (JSONL load lane)."""
        return cls(
            seq=int(record["seq"]),
            access=int(record["access"]),
            ts_ns=float(record.get("ts_ns", 0.0)),
            page=int(record["page"]),
            kind=LifecycleKind(record["kind"]),
            tier_from=record.get("tier_from", "-"),
            tier_to=record.get("tier_to", "-"),
            cause=record.get("cause", ""),
            predicted=record.get("predicted"),
            dirty=bool(record.get("dirty", False)),
            latency_ns=float(record.get("latency_ns", 0.0)),
            tenant=record.get("tenant"),
            detail=record.get("detail"),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pred = f" predicted={self.predicted}" if self.predicted else ""
        why = f" ({self.cause})" if self.cause else ""
        return (
            f"[@{self.access:>8}] {self.kind.value:<9} page={self.page} "
            f"{self.tier_from}->{self.tier_to}{why}{pred}"
        )


class LifecycleRecorder:
    """Bounded drop-oldest ring of :class:`LifecycleEvent`.

    Args:
        capacity: keep only the most recent N events (None = unbounded;
            fine for tests and short runs, unwise for production replays).

    Attributes:
        clock: optional callable returning the current modelled ns (set
            at attach time; events read 0.0 without it).
        tenant_source: optional callable returning the issuing tenant's
            name (wired by :class:`~repro.serve.runtime.TenantAwareRuntime`).
    """

    def __init__(self, capacity: int | None = 100_000) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigError(f"capacity must be positive or None: {capacity}")
        self.capacity = capacity
        self._events: deque[LifecycleEvent] = deque(maxlen=capacity)
        self._emitted = 0
        self.clock: Callable[[], float] | None = None
        self.tenant_source: Callable[[], str | None] | None = None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[LifecycleEvent]:
        return iter(self._events)

    @property
    def emitted(self) -> int:
        """Total events ever recorded (including since-dropped ones)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events lost to the capacity bound."""
        return self._emitted - len(self._events)

    def emit(
        self,
        kind: LifecycleKind,
        page: int,
        access: int,
        tier_from: str = "-",
        tier_to: str = "-",
        cause: str = "",
        predicted: str | None = None,
        dirty: bool = False,
        latency_ns: float = 0.0,
        detail: str | None = None,
    ) -> LifecycleEvent:
        """Record one transition; returns the event."""
        event = LifecycleEvent(
            seq=self._emitted,
            access=access,
            ts_ns=self.clock() if self.clock is not None else 0.0,
            page=page,
            kind=kind,
            tier_from=tier_from,
            tier_to=tier_to,
            cause=cause,
            predicted=predicted,
            dirty=dirty,
            latency_ns=latency_ns,
            tenant=self.tenant_source() if self.tenant_source is not None else None,
            detail=detail,
        )
        self._events.append(event)
        self._emitted += 1
        return event

    def events(
        self,
        page: int | None = None,
        kind: LifecycleKind | None = None,
        tenant: str | None = None,
    ) -> list[LifecycleEvent]:
        """Filtered snapshot (all filters optional)."""
        return [
            e
            for e in self._events
            if (page is None or e.page == page)
            and (kind is None or e.kind is kind)
            and (tenant is None or e.tenant == tenant)
        ]

    def clear(self) -> None:
        self._events.clear()
        self._emitted = 0


class SampledLifecycleRecorder(LifecycleRecorder):
    """A page-sampled lifecycle stream.

    The full :class:`LifecycleRecorder` keeps every page's transitions
    and drops the oldest once its ring is full.  This variant records
    only a deterministic pseudo-random subset of *pages* (not of events:
    a sampled page's journey is complete, which is what ``gmt-why``'s
    causal queries need), so a long replay's bounded stream still holds
    whole journeys.  Like the full ring, the sampled stream is identical
    under batched and per-warp replay.

    Sampling is a splitmix64-style hash of ``(page, seed)`` against
    ``sample_rate``: replay-independent, replay-stable, and unbiased
    across page-id patterns (unlike ``page % k``).
    """

    def __init__(
        self,
        sample_rate: float,
        capacity: int | None = 100_000,
        seed: int = 0,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError(
                f"sample_rate must be in (0, 1], got {sample_rate}"
            )
        super().__init__(capacity=capacity)
        self.sample_rate = sample_rate
        self.seed = seed
        #: Admission threshold on the 64-bit hash space.
        self._threshold = int(sample_rate * 2**64)
        #: Pages that cleared the hash (memoized; page counts are bounded
        #: by the footprint, far below event counts).
        self._admitted: dict[int, bool] = {}

    def sampled(self, page: int) -> bool:
        """Whether ``page``'s journey is recorded."""
        hit = self._admitted.get(page)
        if hit is None:
            hit = _mix64(page * 0x9E3779B97F4A7C15 + self.seed) < self._threshold
            self._admitted[page] = hit
        return hit

    def emit(self, kind: LifecycleKind, page: int, access: int, *args, **kwargs):
        """Record the transition iff ``page`` is in the sample."""
        if not self.sampled(page):
            return None
        return super().emit(kind, page, access, *args, **kwargs)


def _mix64(x: int) -> int:
    """Finalizer of splitmix64: avalanche a 64-bit value."""
    x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


# ----------------------------------------------------------------------
# Query / diagnosis engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MispredictionCost:
    """SSD I/O a page's mispredicted placement decisions caused.

    A *misprediction charge* is one bypass (or Tier-2 eviction after a
    demotion) that the page's subsequent re-fault proved wrong: the page
    was pushed past host memory, then came back through the SSD up-path.
    """

    page: int
    refaults: int
    writebacks: int
    #: The predicted classes behind the charged decisions (histogram).
    predicted: dict
    ssd_page_ios: int

    def ssd_bytes(self, page_size: int) -> int:
        return self.ssd_page_ios * page_size


class LifecycleQuery:
    """Causal queries over a recorded (or loaded) lifecycle event stream.

    Works on any iterable of :class:`LifecycleEvent` — a live
    :class:`LifecycleRecorder` or events loaded back from a JSONL export
    — and never mutates it.
    """

    def __init__(self, events: Iterable[LifecycleEvent]) -> None:
        self._events = list(events)
        self._by_page: dict[int, list[LifecycleEvent]] = {}
        for event in self._events:
            self._by_page.setdefault(event.page, []).append(event)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def pages(self) -> list[int]:
        return sorted(self._by_page)

    # -- page journeys --------------------------------------------------
    def journey(self, page: int) -> list[LifecycleEvent]:
        """The page's recorded lifetime, in emission order."""
        return list(self._by_page.get(page, []))

    def explain_page(self, page: int) -> str:
        """Human-readable journey with per-hop causes."""
        events = self.journey(page)
        if not events:
            return f"page {page}: no recorded lifecycle events (never faulted, or rotated out of the ring)"
        lines = [f"page {page}: {len(events)} recorded events"]
        for event in events:
            lines.append("  " + _describe(event))
        ssd_ios = sum(
            1
            for e in events
            if e.kind is LifecycleKind.ADMIT or e.kind is LifecycleKind.WRITEBACK
        )
        lines.append(f"  total SSD page I/Os attributed to this page: {ssd_ios}")
        return "\n".join(lines)

    # -- miss diagnosis --------------------------------------------------
    def fill_at(self, access: int) -> LifecycleEvent | None:
        """The Tier-1 fill event stamped with ``access`` (None if that
        access was a hit, unrecorded, or rotated out of the ring)."""
        for event in self._events:
            if event.access == access and event.kind in FILL_KINDS:
                return event
        return None

    def nearest_fill(self, access: int) -> LifecycleEvent | None:
        """The recorded fill whose access index is closest to ``access``."""
        fills = [e for e in self._events if e.kind in FILL_KINDS]
        if not fills:
            return None
        return min(fills, key=lambda e: abs(e.access - access))

    def explain_miss(self, access: int) -> str | None:
        """Why the demand access at position ``access`` missed Tier-1.

        Returns None when no fill event carries that access index.
        """
        fill = self.fill_at(access)
        if fill is None:
            return None
        page = fill.page
        lines = [
            f"access {access}: page {page} missed Tier-1 and was "
            f"{'promoted from Tier-2 (PCIe fetch)' if fill.kind is LifecycleKind.PROMOTE else 'read from the SSD up-path'}"
            f" [{fill.latency_ns:.0f} ns]"
        ]
        prior = [e for e in self.journey(page) if e.seq < fill.seq]
        exit_event = next(
            (e for e in reversed(prior) if e.kind in EXIT_KINDS or e.kind is LifecycleKind.T2_EVICT),
            None,
        )
        if exit_event is None:
            lines.append(
                "  cause: cold miss — no prior Tier-1 residency on record"
                + ("" if not prior else " (earlier events were informational)")
            )
        else:
            lines.append("  last departure: " + _describe(exit_event))
            distance = access - exit_event.access
            if exit_event.kind is LifecycleKind.BYPASS:
                if fill.kind is LifecycleKind.ADMIT:
                    verdict = (
                        f"the bypass was mispredicted — reuse arrived {distance} accesses "
                        f"later and cost a full 3-tier SSD fault"
                        if exit_event.predicted
                        else f"the bypass sent it to the SSD; reuse arrived {distance} accesses later"
                    )
                else:  # pragma: no cover - bypassed pages come back via SSD
                    verdict = "bypassed, yet found in Tier-2"
                lines.append(f"  verdict: {verdict}")
            elif exit_event.kind is LifecycleKind.DEMOTE:
                if fill.kind is LifecycleKind.PROMOTE:
                    lines.append(
                        f"  verdict: the Tier-2 placement paid off — reuse arrived "
                        f"{distance} accesses later and was served from host memory"
                    )
                else:
                    lines.append(
                        "  verdict: placed in Tier-2 but evicted before reuse — "
                        "capacity pressure, not a policy misprediction"
                    )
            elif exit_event.kind is LifecycleKind.T2_EVICT:
                lines.append(
                    f"  verdict: Tier-2 FIFO pressure evicted it {distance} accesses "
                    f"before reuse; the original demotion decision was sound"
                )
        if fill.tenant is not None:
            lines.append(f"  tenant: {fill.tenant}")
        return "\n".join(lines)

    # -- misprediction costs ---------------------------------------------
    def misprediction_costs(self) -> list[MispredictionCost]:
        """Per-page SSD I/O charged to wrong placement decisions.

        A bypass followed by a re-admit from the SSD charges the page one
        re-read (plus one writeback if the bypassed copy was dirty).
        Sorted by total charged SSD page I/Os, descending.
        """
        costs: list[MispredictionCost] = []
        for page, events in self._by_page.items():
            refaults = 0
            writebacks = 0
            predicted: dict = {}
            pending: LifecycleEvent | None = None
            for event in events:
                if event.kind is LifecycleKind.BYPASS:
                    pending = event
                elif event.kind is LifecycleKind.DEMOTE:
                    pending = None
                elif event.kind is LifecycleKind.ADMIT and pending is not None:
                    refaults += 1
                    if pending.dirty:
                        writebacks += 1
                    key = pending.predicted or "unpredicted"
                    predicted[key] = predicted.get(key, 0) + 1
                    pending = None
                elif event.kind is LifecycleKind.PROMOTE:
                    pending = None
            if refaults:
                costs.append(
                    MispredictionCost(
                        page=page,
                        refaults=refaults,
                        writebacks=writebacks,
                        predicted=predicted,
                        ssd_page_ios=refaults + writebacks,
                    )
                )
        costs.sort(key=lambda c: (-c.ssd_page_ios, c.page))
        return costs

    def top_misprediction_costs(self, k: int = 10) -> list[MispredictionCost]:
        """The ``k`` pages whose wrong placements cost the most SSD I/O."""
        return self.misprediction_costs()[:k]

    # -- residency -------------------------------------------------------
    def residency(self) -> dict[str, list[int]]:
        """Per-tier residency durations, in coalesced-access units.

        Each completed stay — entry event to exit event — contributes one
        duration to its tier's list.  Open stays (still resident at the
        end of the record) are not counted.
        """
        durations: dict[str, list[int]] = {"T1": [], "T2": []}
        for events in self._by_page.values():
            entered: dict[str, int] = {}
            for event in events:
                if event.kind is LifecycleKind.RESOLVE:
                    continue
                if event.tier_from in entered:
                    durations[event.tier_from].append(
                        event.access - entered.pop(event.tier_from)
                    )
                if event.tier_to in durations:
                    entered[event.tier_to] = event.access
        return durations

    def residency_summary(self) -> dict[str, dict[str, float]]:
        """count/mean/p50/max per tier over :meth:`residency`."""
        out: dict[str, dict[str, float]] = {}
        for tier, values in self.residency().items():
            if not values:
                out[tier] = {"count": 0, "mean": 0.0, "p50": 0.0, "max": 0.0}
                continue
            ordered = sorted(values)
            out[tier] = {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered),
                "p50": float(ordered[len(ordered) // 2]),
                "max": float(ordered[-1]),
            }
        return out

    # -- prediction accounting -------------------------------------------
    def prediction_outcomes(self) -> dict[str, int]:
        """RESOLVE-event tally: ``{"correct": n, "mispredicted": m, ...}``."""
        tally: dict[str, int] = {}
        for event in self._events:
            if event.kind is LifecycleKind.RESOLVE:
                tally[event.cause] = tally.get(event.cause, 0) + 1
        return tally


def _describe(event: LifecycleEvent) -> str:
    """One-line human rendering of an event with its cause chain."""
    kind = event.kind
    where = (
        f"{event.tier_from}->{event.tier_to}"
        if event.tier_from != "-" or event.tier_to != "-"
        else ""
    )
    bits = [f"@{event.access}", kind.value]
    if where:
        bits.append(where)
    if event.cause:
        bits.append(f"cause={event.cause}")
    if event.predicted:
        bits.append(f"predicted={event.predicted}")
    if event.detail:
        bits.append(f"actual={event.detail}" if kind is LifecycleKind.RESOLVE else event.detail)
    if event.dirty:
        bits.append("dirty")
    if event.latency_ns:
        bits.append(f"{event.latency_ns:.0f} ns")
    if event.tenant is not None:
        bits.append(f"tenant={event.tenant}")
    return " ".join(bits)


# ----------------------------------------------------------------------
# Export / load lanes
# ----------------------------------------------------------------------
def write_lifecycle_jsonl(
    path: str, events: Iterable[LifecycleEvent], extra: dict | None = None
) -> int:
    """One JSON object per event (``extra`` keys merged into each line);
    returns the record count."""
    from repro.obs.export import write_jsonl

    records = (
        {**e.to_dict(), **extra} if extra else e.to_dict() for e in events
    )
    return write_jsonl(path, records)


def load_lifecycle_jsonl(path: str) -> list[LifecycleEvent]:
    """Load events written by :func:`write_lifecycle_jsonl`."""
    import json

    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(LifecycleEvent.from_dict(json.loads(line)))
    return events


def lifecycle_trace_events(
    events: Iterable[LifecycleEvent], pid: int = 0
) -> list[dict]:
    """Chrome Trace Event instants — one lane per lifecycle kind.

    Merge these into :func:`repro.obs.export.chrome_trace_events` output
    (they use the same ``ts`` microsecond axis) to see admits, demotes,
    bypasses and writebacks as rows of ticks under the span lanes.
    """
    out: list[dict] = []
    tids: dict[str, int] = {}
    for event in sorted(events, key=lambda e: e.ts_ns):
        lane = event.kind.value if event.tenant is None else f"{event.kind.value} [{event.tenant}]"
        tid = tids.get(lane)
        if tid is None:
            tid = len(tids)
            tids[lane] = tid
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"lifecycle/{lane}"},
                }
            )
        record = {
            "name": event.kind.value,
            "cat": "lifecycle",
            "ph": "i",
            "s": "t",
            "pid": pid,
            "tid": tid,
            "ts": event.ts_ns / 1000.0,
            "args": {
                "page": event.page,
                "access": event.access,
                "cause": event.cause,
            },
        }
        if event.predicted:
            record["args"]["predicted"] = event.predicted
        out.append(record)
    return out
