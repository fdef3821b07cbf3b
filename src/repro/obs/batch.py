"""Batch-aware instrumentation — observability that survives batched
replay.

:meth:`GMTRuntime.run <repro.core.runtime.GMTRuntime.run>` retires runs
of Tier-1 hits in batches.  Per-access observer callbacks would undo
exactly the win being bought (HM-Keeper's argument in PAPERS.md:
profiling a tiered memory system must be cheap enough to stay on).
Instead, the replay loop composes one :class:`BatchObserverChain` from
what is attached to the runtime, out of two per-batch observers:

- :class:`WindowBatchObserver` (attached telemetry) splits batches at
  windowed-snapshot boundaries;
- :class:`AuditBatchObserver` (``enable_periodic_checks``) splits them
  at periodic-audit positions.

The loop consults ``chain.limit(position)`` before probing a hit run
and calls ``chain.on_hits(count, position)`` after retiring one.

**Why this yields byte-identical telemetry and audits.**  On the
per-access path the window clock ticks *after* an access's
``coalesced_accesses``/compute contributions but *before* its hit-branch
counters (``t1_hits``, clock touch), so a window cut at boundary
position ``b`` must capture the ``b``-th access half-applied.  A
bulk-retired batch cannot reproduce that intermediate state — so no
batch ever reaches a boundary: batches are capped to end at ``b - 1``
and the boundary access itself replays through ``access``, inheriting
the per-access tick ordering exactly.  A periodic audit runs inside
``access`` just before the access at a non-zero multiple of its
interval, so capping batches there makes the audit run at the same
position over the same state.  Every other instrument already observes
only per-access work: spans, latency histograms, the
:class:`~repro.obs.digest.LatencyDigest` and every lifecycle event
(full or sampled ring) observe only misses, evictions, writebacks,
prefetches and policy resolutions, and those always go through
``access``.  Counter tracks and anomaly findings are pure functions of
the window stream, so their parity follows from window parity.  The
``gmt-check`` telemetry-parity column asserts all five surfaces
against the per-warp reference replay.

No instrument changes how a replay runs; the phase profiler only
samples frames.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs.lifecycle import LifecycleKind, LifecycleRecorder
from repro.obs.snapshots import WindowedSnapshotter

__all__ = [
    "AuditBatchObserver",
    "BatchObserverChain",
    "SampledLifecycleRecorder",
    "WindowBatchObserver",
]


class WindowBatchObserver:
    """Splits retired batches at windowed-snapshot boundaries.

    ``limit`` caps a prospective batch so it ends just *before* the next
    window boundary on the coalesced-access clock (the boundary access
    goes through ``access`` — see the module docstring); ``on_hits``
    advances the window clock through
    :meth:`WindowedSnapshotter.add_batch`, which in this regime never
    cuts (the cap guarantees no boundary is crossed) but keeps the bulk
    path honest if intervals shrink mid-run.
    """

    def __init__(self, snapshotter: WindowedSnapshotter) -> None:
        self._snap = snapshotter

    def limit(self, position: int) -> int:
        """Max accesses retirable in bulk from ``position`` before the
        next window boundary (<= 0 means the very next access is the
        boundary access and must go through ``access``)."""
        snap = self._snap
        return snap._last_position + snap.interval - 1 - position

    def on_hits(self, count: int, position: int) -> None:
        """One retired hit run ended at ``position``."""
        self._snap.add_batch(position)


class AuditBatchObserver:
    """Splits retired batches at periodic-audit positions.

    ``GMTRuntime.access`` audits just before the access at position
    ``p`` (the coalesced-access count before it) when ``p`` is a
    non-zero multiple of ``every``; ``limit`` stops each batch short of
    that access so it goes through ``access`` and the audit runs there.
    """

    def __init__(self, every: int) -> None:
        self.every = every

    def limit(self, position: int) -> int:
        """Max accesses retirable in bulk from ``position`` before the
        next audited access (0: the very next access is audited)."""
        offset = position % self.every
        if position and not offset:
            return 0
        return self.every - offset

    def on_hits(self, count: int, position: int) -> None:
        """Audits run inside ``access`` only; nothing to advance."""


class BatchObserverChain:
    """The replay-facing composition of per-batch observers.

    The replay loop holds exactly one of these per instrumented run:
    ``limit`` is the min over all observers (most restrictive boundary
    wins), ``on_hits`` fans out in attach order.
    """

    def __init__(self, observers) -> None:
        self.observers = [obs for obs in observers if obs is not None]

    def limit(self, position: int) -> int:
        return min(obs.limit(position) for obs in self.observers)

    def on_hits(self, count: int, position: int) -> None:
        for obs in self.observers:
            obs.on_hits(count, position)


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
