"""Belady-style oracle placement: GMT-Reuse with perfect future knowledge.

GMT-Reuse *approximates* Belady's OPT by predicting each victim's
remaining reuse distance (paper section 2.1.3).  The oracle here removes
both sources of error in that approximation:

- the **remaining VTD** of every victim is read from the future of the
  trace instead of being predicted by the Markov chain;
- the **VTD -> RD map** (Eq. 2) is fit offline over the *entire* trace
  instead of a sampled prefix.

Placement then proceeds through exactly the same Eq. 1 classification,
the same tiers, and the same 80 % Tier-3-bias heuristic, so the gap
between GMT-Reuse and :func:`run_with_oracle` is precisely the cost of
*prediction error* — the natural upper bound to report next to Figure 8.

This requires the trace twice (one pass to index future accesses, one to
run), which is why it lives outside the online policy registry.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import defaultdict

from repro.core.config import GMTConfig
from repro.core.placement import Tier3BiasHeuristic
from repro.core.policies import PlacementPlan, PlacementPolicy, plan_for_class
from repro.core.runtime import GMTRuntime, RunResult
from repro.core.stats import RuntimeStats
from repro.errors import TraceError
from repro.mem.page import PageState
from repro.reuse.classifier import ReuseClass, RRDClassifier
from repro.reuse.regression import IncrementalOLS, LinearModel
from repro.reuse.vtd import VirtualTimestampClock
from repro.workloads.trace import Workload


class FutureReuseIndex:
    """Positions of every page's accesses, for next-access queries.

    Positions are in coalesced-access order, i.e. the same virtual time
    the runtime's :class:`VirtualTimestampClock` counts (1-based).
    """

    def __init__(self, workload: Workload) -> None:
        self._positions: dict[int, list[int]] = defaultdict(list)
        position = 0
        for page in workload.coalesced_pages():
            position += 1
            self._positions[page].append(position)
        if position == 0:
            raise TraceError("cannot build a future index over an empty trace")
        self.trace_length = position

    def next_access_after(self, page: int, now: int) -> int | None:
        """Virtual time of ``page``'s first access strictly after ``now``."""
        positions = self._positions.get(page)
        if not positions:
            return None
        idx = bisect_right(positions, now)
        if idx == len(positions):
            return None
        return positions[idx]


def fit_global_vtd_model(workload: Workload) -> LinearModel | None:
    """Offline Eq. 2 fit (RD = m * VTD + b) over the whole trace.

    Returns ``None`` when the trace has no reuse at all (then every
    eviction is LONG by definition).
    """
    from repro.reuse.distance import ReuseDistanceTracker

    tracker = ReuseDistanceTracker()
    last_ts: dict[int, int] = {}
    ols = IncrementalOLS()
    now = 0
    for page in workload.coalesced_pages():
        now += 1
        rd = tracker.record(page)
        prev = last_ts.get(page)
        last_ts[page] = now
        if rd is None or prev is None:
            continue
        ols.add(float(now - prev), float(rd))
    if not ols.ready:
        return None
    return ols.model()


class OraclePolicy(PlacementPolicy):
    """Eq. 1 placement driven by exact future RVTDs (see module docs)."""

    name = "oracle"
    tier2_evicts_on_full = True

    def __init__(
        self,
        config: GMTConfig,
        stats: RuntimeStats,
        vts: VirtualTimestampClock,
        index: FutureReuseIndex,
        model: LinearModel | None,
    ) -> None:
        super().__init__(config, stats)
        self._vts = vts
        self._index = index
        self._model = model
        self.classifier = RRDClassifier(config.tier1_frames, config.tier2_frames)
        self.heuristic = Tier3BiasHeuristic(
            threshold=config.tier3_bias_threshold, window=config.tier3_bias_window
        )
        self._heuristic_enabled = config.tier3_bias_enabled

    def choose(self, state: PageState) -> PlacementPlan:
        now = self._vts.now
        next_access = self._index.next_access_after(state.page, now)
        if next_access is None or self._model is None:
            actual = ReuseClass.LONG
        else:
            rrd = max(0.0, self._model.predict(float(next_access - now)))
            actual = self.classifier.classify(rrd)
        self.stats.predictions_made += 1
        return plan_for_class(actual, self.heuristic, self._heuristic_enabled)


def run_with_oracle(config: GMTConfig, workload: Workload) -> RunResult:
    """Replay ``workload`` under oracle placement; returns the run result.

    The runtime is a stock :class:`GMTRuntime` — only the policy differs —
    so results are directly comparable with the online policies (the
    oracle policy keeps the default silent ``on_access``, so its hits
    batch).
    """
    index = FutureReuseIndex(workload)
    model = fit_global_vtd_model(workload)

    def factory(
        cfg: GMTConfig,
        stats: RuntimeStats,
        vts: VirtualTimestampClock,
        rng: random.Random,
    ) -> OraclePolicy:
        return OraclePolicy(cfg, stats, vts, index, model)

    runtime = GMTRuntime(config, policy_factory=factory)
    runtime.name = "GMT-oracle"
    result = runtime.run(workload)
    result.runtime_name = "GMT-oracle"
    return result
