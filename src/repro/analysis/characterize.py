"""Instrumented-run workload characterisation (Table 2, Figures 4 and 7).

The paper grounds its policy design in "instrumented runs" that record
exact reuse distances, VTDs, and the remaining reuse distance (RRD) of
every Tier-1 eviction.  This module is that instrumentation, applied to
the coalesced page stream of any workload:

- :func:`characterize_workload` -> reuse %, total I/O, access counts
  (Table 2's columns);
- :func:`vtd_rd_correlation` -> (VTD, RD) sample pairs + their linear fit
  (Figure 4(a), the justification for Eq. 2);
- :func:`collect_eviction_rrds` -> the RRD of each clock eviction from a
  simulated Tier-1, per page and in aggregate (Figures 4(b), 4(c), 7).

The distinct-pages-in-interval queries behind RRDs use the classic offline
sweep with a Fenwick tree over last-occurrence positions — O((N+Q) log N).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.mem.clock_replacement import ClockReplacement
from repro.reuse.classifier import ReuseClass, RRDClassifier
from repro.reuse.distance import ReuseDistanceTracker, _FenwickTree
from repro.reuse.regression import LinearModel, fit_ols
from repro.workloads.trace import Workload


# ---------------------------------------------------------------------------
# Table 2: reuse percentage and total I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """Table 2's per-application columns, measured from the trace."""

    name: str
    coalesced_accesses: int
    distinct_pages: int
    reused_pages: int
    write_accesses: int

    @property
    def reuse_percent(self) -> float:
        """"Reuse % of a Page": share of pages accessed more than once."""
        if not self.distinct_pages:
            return 0.0
        return 100.0 * self.reused_pages / self.distinct_pages

    def total_io_bytes(self, page_size: int) -> int:
        """Table 2's "Total I/O": all data the kernel demands, in bytes."""
        return self.coalesced_accesses * page_size


def characterize_workload(workload: Workload) -> WorkloadCharacteristics:
    """One instrumented pass over ``workload``'s coalesced stream."""
    counts: dict[int, int] = defaultdict(int)
    accesses = 0
    writes = 0
    for warp in workload:
        seen: set[int] = set()
        for page in warp.pages:
            if page in seen:
                continue
            seen.add(page)
            counts[page] += 1
            accesses += 1
            if warp.write:
                writes += 1
    reused = sum(1 for c in counts.values() if c > 1)
    return WorkloadCharacteristics(
        name=workload.name,
        coalesced_accesses=accesses,
        distinct_pages=len(counts),
        reused_pages=reused,
        write_accesses=writes,
    )


# ---------------------------------------------------------------------------
# Figure 4(a): VTD vs reuse distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VtdRdCorrelation:
    """Sampled (VTD, RD) pairs with their OLS fit and Pearson r."""

    vtds: list[int]
    rds: list[int]
    model: LinearModel
    pearson_r: float

    @property
    def samples(self) -> int:
        return len(self.vtds)


def vtd_rd_correlation(
    workload: Workload, max_samples: int | None = None
) -> VtdRdCorrelation:
    """Instrument the trace to pair each access's VTD with its exact RD.

    Reproduces Figure 4(a)'s scatter; the paper's observation is that the
    relation is close to linear, which :attr:`VtdRdCorrelation.pearson_r`
    quantifies.
    """
    tracker = ReuseDistanceTracker()
    last_ts: dict[int, int] = {}
    now = 0
    vtds: list[int] = []
    rds: list[int] = []
    for page in workload.coalesced_pages():
        now += 1
        rd = tracker.record(page)
        prev = last_ts.get(page)
        last_ts[page] = now
        if rd is None or prev is None:
            continue
        vtds.append(now - prev)
        rds.append(rd)
        if max_samples is not None and len(vtds) >= max_samples:
            break
    if len(vtds) < 2:
        raise TraceError(f"{workload.name}: not enough reuse to correlate VTD and RD")
    model = fit_ols([float(v) for v in vtds], [float(r) for r in rds])
    return VtdRdCorrelation(
        vtds=vtds, rds=rds, model=model, pearson_r=_pearson(vtds, rds)
    )


def _pearson(xs: list[int], ys: list[int]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


# ---------------------------------------------------------------------------
# Figure 7: reuse-distance distribution of accesses
# ---------------------------------------------------------------------------


@dataclass
class AccessRDAnalysis:
    """Distribution of exact reuse distances over a trace's *accesses*.

    Figure 7 plots, per application, where reuses fall relative to the
    Tier-1 and Tier-1+Tier-2 capacity lines: "if the distances are (a)
    very small (to fit in GPU memory itself), the hierarchy would not help
    much; or (b) very large (exceeding the GPU+Host memory capacities),
    the data is more likely to be in the SSD".
    """

    class_counts: dict[ReuseClass, int] = field(default_factory=dict)
    finite_reuses: int = 0
    cold_accesses: int = 0
    #: Sorted sample of reuse distances (for histograms/percentiles).
    rd_sample: list[int] = field(default_factory=list)

    def class_fractions(self) -> dict[ReuseClass, float]:
        """Share of (finite-RD) reuses per Eq. 1 class — the tier bias."""
        if not self.finite_reuses:
            return {cls: 0.0 for cls in ReuseClass}
        return {
            cls: self.class_counts.get(cls, 0) / self.finite_reuses
            for cls in ReuseClass
        }

    def percentile(self, q: float) -> int:
        """q-quantile (0..1) of the sampled reuse distances."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.rd_sample:
            raise ValueError("no reuse distances sampled")
        idx = min(len(self.rd_sample) - 1, int(q * len(self.rd_sample)))
        return self.rd_sample[idx]


def collect_access_rds(
    workload: Workload,
    tier1_frames: int,
    tier2_frames: int,
    sample_stride: int = 1,
) -> AccessRDAnalysis:
    """Exact reuse distance of every access, classified per Eq. 1.

    ``sample_stride`` keeps every n-th distance in :attr:`rd_sample`
    (class counts always cover all reuses).
    """
    if sample_stride < 1:
        raise TraceError(f"sample_stride must be >= 1, got {sample_stride}")
    classifier = RRDClassifier(tier1_frames, tier2_frames)
    tracker = ReuseDistanceTracker()
    analysis = AccessRDAnalysis()
    for i, page in enumerate(workload.coalesced_pages()):
        rd = tracker.record(page)
        if rd is None:
            analysis.cold_accesses += 1
            continue
        analysis.finite_reuses += 1
        cls = classifier.classify(rd)
        analysis.class_counts[cls] = analysis.class_counts.get(cls, 0) + 1
        if i % sample_stride == 0:
            analysis.rd_sample.append(rd)
    analysis.rd_sample.sort()
    return analysis


# ---------------------------------------------------------------------------
# Figures 4(b), 4(c): RRD at Tier-1 evictions
# ---------------------------------------------------------------------------


@dataclass
class EvictionRRDAnalysis:
    """Exact remaining reuse distances of simulated Tier-1 clock evictions.

    Attributes:
        rrds: one entry per eviction whose page is accessed again:
            (page, rrd).  Eviction order is preserved, so a page's
            successive entries give Figure 4(b)/(c)'s per-page series.
        never_reused_evictions: evictions whose page never returns
            (infinite RRD; Figure 7 lumps these beyond the Tier-2 line).
        class_counts: ReuseClass -> eviction count (never-reused counts
            as LONG), given the classifier used.
    """

    rrds: list[tuple[int, int]] = field(default_factory=list)
    never_reused_evictions: int = 0
    class_counts: dict[ReuseClass, int] = field(default_factory=dict)

    @property
    def total_evictions(self) -> int:
        return len(self.rrds) + self.never_reused_evictions

    def class_fractions(self) -> dict[ReuseClass, float]:
        """Share of evictions per Eq. 1 class — Figure 7's tier bias."""
        total = self.total_evictions
        if not total:
            return {cls: 0.0 for cls in ReuseClass}
        return {
            cls: self.class_counts.get(cls, 0) / total for cls in ReuseClass
        }

    def per_page_series(self, page: int) -> list[int]:
        """RRDs of ``page``'s successive evictions (Figure 4(b)/(c))."""
        return [rrd for p, rrd in self.rrds if p == page]


def collect_eviction_rrds(
    workload: Workload, tier1_frames: int, tier2_frames: int = 0
) -> EvictionRRDAnalysis:
    """Replay the trace through a clock-managed Tier-1 and compute the
    exact RRD of every eviction.

    ``tier2_frames`` only affects Eq. 1's medium/long boundary in the
    class counts (Figure 7's second vertical line).
    """
    if tier1_frames <= 0:
        raise TraceError(f"tier1_frames must be positive, got {tier1_frames}")
    pages = list(workload.coalesced_pages())
    positions: dict[int, list[int]] = defaultdict(list)
    for pos, page in enumerate(pages):
        positions[page].append(pos)

    # Pass 1: simulate the clock, recording (eviction position, page).
    clock = ClockReplacement(tier1_frames)
    evictions: list[tuple[int, int]] = []
    for pos, page in enumerate(pages):
        if page in clock:
            clock.touch(page)
            continue
        if clock.full:
            evictions.append((pos, clock.select_victim()))
        clock.insert(page, referenced=True)

    # Build interval queries (evict_pos, next_access_pos) per eviction.
    analysis = EvictionRRDAnalysis()
    classifier = RRDClassifier(tier1_frames, tier2_frames)
    queries: list[tuple[int, int, int, int]] = []  # (j, i, page, query_id)
    for query_id, (evict_pos, page) in enumerate(evictions):
        plist = positions[page]
        nxt = bisect.bisect_left(plist, evict_pos)
        if nxt == len(plist):
            analysis.never_reused_evictions += 1
            cls = ReuseClass.LONG
            analysis.class_counts[cls] = analysis.class_counts.get(cls, 0) + 1
            continue
        queries.append((plist[nxt], evict_pos, page, query_id))

    # Pass 2: offline distinct-count sweep.  BIT over positions, marking
    # each page at its most recent occurrence; distinct pages in (i, j) =
    # prefix(j-1+1) - prefix(i+1) with 1-based BIT indices.
    queries.sort()
    results: list[tuple[int, int, int]] = []  # (query_id, page, rrd)
    tree = _FenwickTree(len(pages) + 1)
    last_pos: dict[int, int] = {}
    qi = 0
    for pos, page in enumerate(pages):
        prev = last_pos.get(page)
        if prev is not None:
            tree.add(prev + 1, -1)
        tree.add(pos + 1, 1)
        last_pos[page] = pos
        # Answer queries whose next-access position j == pos: count
        # distinct pages at positions (i, j) exclusive of j's own access —
        # use prefix sums up to j-1 (i.e. pos, 1-based) minus up to i.
        while qi < len(queries) and queries[qi][0] == pos:
            j, i, qpage, query_id = queries[qi]
            qi += 1
            rrd = tree.prefix_sum(pos) - tree.prefix_sum(i + 1)
            if rrd < 0:
                raise AssertionError("negative distinct count")
            results.append((query_id, qpage, rrd))

    results.sort()
    for _, page, rrd in results:
        analysis.rrds.append((page, rrd))
        cls = classifier.classify(rrd)
        analysis.class_counts[cls] = analysis.class_counts.get(cls, 0) + 1
    return analysis
