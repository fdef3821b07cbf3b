"""Configuration for GMT runtimes and experiments.

The paper's default geometry (section 3.1): Tier-1 capped at 16 GB, Tier-2
4 x larger, over-subscription factor 2 (working set = 2 x (Tier-1 +
Tier-2)).  Capacities here are expressed in 64 KB *page frames* so any
scale — including the paper's full sizes — is one constructor call away;
:meth:`GMTConfig.paper_default` applies the default 1/256 byte scale that
keeps pure-Python runs tractable (see DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.sim.latency import PlatformModel
from repro.units import GiB, PAGE_SIZE

#: Default byte-scale between the paper's platform and our simulation.
DEFAULT_SCALE = 256

#: Paper section 3.1 geometry.
PAPER_TIER1_BYTES = 16 * GiB
PAPER_TIER2_RATIO = 4
PAPER_OVERSUBSCRIPTION = 2.0

_POLICY_NAMES = ("tier-order", "random", "reuse", "dueling")

#: Public alias — the registry of Tier-2-placement policy names
#: (``GMTConfig.policy``).  CLIs derive their choices from this.
POLICY_NAMES = _POLICY_NAMES


@dataclass(frozen=True)
class GMTConfig:
    """Everything a :class:`~repro.core.runtime.GMTRuntime` needs.

    Attributes:
        tier1_frames: GPU-memory capacity in 64 KB page frames.
        tier2_frames: host-memory capacity in frames (0 disables Tier-2,
            which degenerates GMT into a BaM-like 2-tier system).
        page_size: bytes per page (paper: 64 KB, the UVM default).
        policy: ``"tier-order"`` | ``"random"`` | ``"reuse"``.
        transfer_engine: engine spec for Tier-1<->Tier-2 movement (see
            :func:`repro.sim.transfer.make_engine`); paper uses Hybrid-32T.
        transfer_batch_pages: nominal number of concurrent Tier-1<->Tier-2
            page transfers over which engine overheads amortise (demand
            misses arrive in bursts across warps).
        platform: latency/bandwidth constant sheet.
        seed: RNG seed (GMT-Random's placement coin and any tie-breaks).
        sample_target / sample_batch: GMT-Reuse sampling window and the
            pipelined flush cadence (paper: 10 000 per batch).
        tier3_bias_threshold / tier3_bias_window: section 2.2's heuristic —
            if more than ``threshold`` of the last ``window`` evictions were
            predicted Tier-3, force the current one into Tier-2.
        max_clock_retries: bound on consecutive "short-reuse, retain in
            Tier-1" clock rounds per eviction, guaranteeing progress.
    """

    tier1_frames: int
    tier2_frames: int
    page_size: int = PAGE_SIZE
    policy: str = "reuse"
    transfer_engine: str = "hybrid-32t"
    transfer_batch_pages: int = 16
    platform: PlatformModel = field(default_factory=PlatformModel)
    seed: int = 0x6D7   # "GMT"
    sample_target: int = 20_000
    sample_batch: int = 10_000
    tier3_bias_threshold: float = 0.8
    tier3_bias_window: int = 64
    max_clock_retries: int = 8
    #: GMT-Reuse's history predictor: "markov" (the paper's 2-level /
    #: 3-state chain, Fig. 5) or "last" (1-level ablation).
    reuse_predictor: str = "markov"
    #: Disable section 2.2's 80% Tier-3-bias heuristic (ablation).
    tier3_bias_enabled: bool = True
    #: Section 5 future work: "asynchronous mechanisms to perform these
    #: GPU orchestrations ... in the background".  When True, eviction
    #: work (Tier-2 placement, writebacks) is taken off the demand-miss
    #: critical path; bandwidth is still accounted.
    async_evictions: bool = False
    #: Sequential pages prefetched into Tier-1 alongside each SSD demand
    #: miss (0 disables).  Paper section 2: "placement options can also be
    #: considered in conjunction with prefetching of pages"; this is the
    #: UVM-style sequential prefetcher at 64 KB granularity.
    prefetch_degree: int = 0
    #: Execution-time model: "bottleneck" (roofline max of pipeline terms,
    #: fast, the default) or "queueing" (explicit virtual-time service
    #: network, :mod:`repro.sim.queueing`).
    time_model: str = "bottleneck"
    #: Number of pages the workload's address space spans (the
    #: workload's ``footprint_pages``, which bounds every page id its
    #: trace emits).  When set, the sequential prefetcher clamps its
    #: window to it — without the bound it would fabricate page-table
    #: entries and SSD reads for pages the trace can never touch.  None
    #: (the default) leaves the prefetcher unbounded.  The serving
    #: runtime ignores it and clamps each prefetch to the owning
    #: tenant's page range instead.
    footprint_pages: int | None = None
    #: Tier-1 eviction policy from the :mod:`repro.policyzoo` registry
    #: ("clock", "s3fifo", "mglru", "lfu", "mru", "lhd").  "clock" is
    #: the paper's GPU-tier replacement and the default.
    tier1_eviction: str = "clock"
    #: Tier-2 eviction policy.  None (the default) preserves the
    #: historical derivation: "clock" when the placement policy is
    #: GMT-TierOrder, plain "fifo" otherwise (paper section 2.2).
    tier2_eviction: str | None = None

    def __post_init__(self) -> None:
        if self.tier1_frames <= 0:
            raise ConfigError(f"tier1_frames must be positive, got {self.tier1_frames}")
        if self.tier2_frames < 0:
            raise ConfigError(f"tier2_frames must be >= 0, got {self.tier2_frames}")
        if self.page_size <= 0:
            raise ConfigError(f"page_size must be positive, got {self.page_size}")
        if self.policy not in _POLICY_NAMES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; expected one of {_POLICY_NAMES}"
            )
        if self.transfer_batch_pages < 1:
            raise ConfigError("transfer_batch_pages must be >= 1")
        if not 0.0 < self.tier3_bias_threshold <= 1.0:
            raise ConfigError("tier3_bias_threshold must be in (0, 1]")
        if self.tier3_bias_window < 1:
            raise ConfigError("tier3_bias_window must be >= 1")
        if self.max_clock_retries < 0:
            raise ConfigError("max_clock_retries must be >= 0")
        if self.sample_target < 1 or self.sample_batch < 1:
            raise ConfigError("sampling parameters must be positive")
        if self.prefetch_degree < 0:
            raise ConfigError(f"prefetch_degree must be >= 0: {self.prefetch_degree}")
        if self.footprint_pages is not None and self.footprint_pages <= 0:
            raise ConfigError(
                f"footprint_pages must be positive (or None), got "
                f"{self.footprint_pages}"
            )
        if self.time_model not in ("bottleneck", "queueing"):
            raise ConfigError(
                f"time_model must be 'bottleneck' or 'queueing', got "
                f"{self.time_model!r}"
            )
        if self.reuse_predictor not in ("markov", "last"):
            raise ConfigError(
                f"reuse_predictor must be 'markov' or 'last', got "
                f"{self.reuse_predictor!r}"
            )
        # Imported lazily: policyzoo depends on repro.mem, not on this
        # module, so the late import avoids any cycle at import time.
        from repro.policyzoo.registry import validate_policy_name

        validate_policy_name(self.tier1_eviction)
        if self.tier2_eviction is not None:
            validate_policy_name(self.tier2_eviction)

    # ------------------------------------------------------------------
    @property
    def total_memory_frames(self) -> int:
        """Tier-1 + Tier-2 capacity — Eq. 1's medium/long boundary."""
        return self.tier1_frames + self.tier2_frames

    def working_set_frames(self, oversubscription: float = PAPER_OVERSUBSCRIPTION) -> int:
        """Working-set size (pages) for a given over-subscription factor,
        per the paper's definition: WS / (Tier-1 + Tier-2)."""
        if oversubscription <= 0:
            raise ConfigError(f"oversubscription must be positive: {oversubscription}")
        return int(round(self.total_memory_frames * oversubscription))

    def with_policy(self, policy: str) -> GMTConfig:
        """Same geometry, different policy (fig. 8's three-way comparison)."""
        return replace(self, policy=policy)

    # ------------------------------------------------------------------
    @classmethod
    def paper_default(
        cls,
        scale: int = DEFAULT_SCALE,
        tier2_ratio: int = PAPER_TIER2_RATIO,
        tier1_bytes: int = PAPER_TIER1_BYTES,
        **overrides,
    ) -> GMTConfig:
        """The section 3.1 configuration, byte-scaled by ``1/scale``.

        ``paper_default()`` gives Tier-1 = 1 024 frames ("16 GB"/256) and
        Tier-2 = 4 096 frames ("64 GB"/256).  ``scale=1`` reproduces the
        paper's raw capacities.
        """
        if scale < 1:
            raise ConfigError(f"scale must be >= 1, got {scale}")
        if tier2_ratio < 0:
            raise ConfigError(f"tier2_ratio must be >= 0, got {tier2_ratio}")
        tier1_frames = max(1, tier1_bytes // (PAGE_SIZE * scale))
        return cls(
            tier1_frames=tier1_frames,
            tier2_frames=tier1_frames * tier2_ratio,
            **overrides,
        )
