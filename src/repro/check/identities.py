"""The stats-identity catalogue: what must hold after *any* replay.

The paper's evaluation is counter-level (wasteful lookups, SSD traffic,
writebacks — Figs. 8–10), so the reproduction's credibility rests on the
counters being self-consistent.  This module collects identities that
hold for **every** runtime and policy — they follow from the structure of
the access/eviction pipeline, not from any placement decision:

- every coalesced access either hits or misses Tier-1;
- every Tier-2 lookup is either useful or wasteful, and every useful
  lookup becomes exactly one PCIe fetch;
- every miss is filled from Tier-2 or the SSD, and every SSD read beyond
  the demand fills is a prefetch;
- every Tier-1 eviction either lands in Tier-2, writes back dirty data,
  or discards a clean page — nothing vanishes;
- resident-page counts are conserved (fills minus evictions);
- the device models (NVMe, PCIe, the queueing network's fluid links)
  agree with the runtime counters byte for byte.

:func:`audit_stats` checks the pure-counter identities on a
:class:`~repro.core.stats.RuntimeStats`; :func:`audit_runtime` adds the
structural and cross-component checks that need the live runtime;
:func:`assert_conformant` raises :class:`~repro.errors.ConformanceError`
on any violation.  The same auditor backs periodic checking
(``GMTRuntime.enable_periodic_checks``), the ``gmt-check`` CLI, the
``gmt-bench`` gate and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import RuntimeStats
from repro.errors import ConformanceError, SimulationError
from repro.units import SEC

#: Relative tolerance for float conservation checks (accumulated wire
#: times); integer identities are compared exactly.
FLOAT_RTOL = 1e-6

#: The catalogue — name and plain-language statement of every identity,
#: in audit order.  ``gmt-check --list`` and docs/conformance.md render
#: this table; the audit functions below implement it.
CATALOG: tuple[tuple[str, str], ...] = (
    ("access-conservation",
     "t1_hits + t1_misses == coalesced_accesses"),
    ("t2-lookup-partition",
     "t2_lookups == t2_hits + t2_wasteful_lookups"),
    ("t2-fetch-is-hit",
     "t2_fetches == t2_hits (every useful lookup promotes exactly once)"),
    ("miss-fill-sources",
     "t1_misses == t2_hits + ssd_page_reads - prefetches_issued "
     "(every miss fills from Tier-2 or the SSD; extra SSD reads are "
     "prefetches)"),
    ("writeback-conservation",
     "ssd_page_writes == (t1_evictions - t2_placements - clean_discards)"
     " + (t2_evictions - t2_clean_evictions) — dirty evictions on the "
     "bypass and Tier-2-evict paths, nothing else, reach the SSD"),
    ("prefetch-partition",
     "prefetch_hits + prefetch_wasted <= prefetches_issued (exact once "
     "still-resident prefetched pages are added; see prefetch-exact)"),
    ("prediction-accounting",
     "correct_predictions <= resolved_predictions and the confusion "
     "matrix sums to resolved_predictions"),
    ("admission-conservation",
     "open-loop serving: requests_arrived == requests_admitted + "
     "requests_shed, and requests_completed <= requests_admitted (every "
     "arrival is admitted or shed, nothing else completes) — all four "
     "are zero outside an open-loop run"),
    ("counter-positivity",
     "every counter is >= 0"),
    ("structural",
     "check_invariants(): each tier's eviction structure (its one "
     "membership record) within the configured frames, no page in both "
     "tiers' structures, page-table locations match that membership, "
     "the hit map matches the page table (serving runtimes also: each "
     "tenant's quota counts match a recount of the structures)"),
    ("eviction-structural",
     "each tier's eviction structure passes its own check_integrity() "
     "(S3-FIFO ghost bound / small-main disjointness, generation "
     "consistency, a partition's running size, ...)"),
    ("tier1-occupancy",
     "len(t1_clock) == t1_misses + prefetches_issued - t1_evictions"),
    ("tier2-occupancy",
     "len(_t2_order) == t2_placements - t2_fetches - t2_evictions"),
    ("prefetch-exact",
     "prefetches_issued == prefetch_hits + prefetch_wasted + "
     "still-resident prefetched pages (all of which sit in Tier-1)"),
    ("ssd-parity",
     "the NVMe device model counted exactly ssd_page_reads reads and "
     "ssd_page_writes writes"),
    ("pcie-parity",
     "the PCIe link counted exactly t2_fetches H2D and t2_placements "
     "D2H transfers"),
    ("footprint-bound",
     "with config.footprint_pages set, no page id at or past the bound "
     "ever enters the page table (the prefetcher must not fabricate "
     "pages the workload cannot touch)"),
    ("queueing-read-conservation",
     "queueing model: SSD read-link busy time == ssd_page_reads x the "
     "page's wire time"),
    ("queueing-write-conservation",
     "queueing model: SSD write-link busy time == ssd_page_writes x the "
     "page's wire time (catches writebacks that bypass the time model)"),
    ("queueing-pcie-conservation",
     "queueing model: PCIe-link busy time == (t2_hits + t2_placements) "
     "x the page's wire time"),
    ("tenant-split-conservation",
     "multi-tenant serving: per-tenant counter slices sum to the "
     "aggregate for every counter"),
    # -- differential / metamorphic checks (repro.check.differential) --
    ("cross-runtime-trace",
     "every runtime replaying the same trace sees the same "
     "warp_instructions and coalesced_accesses — policies may not "
     "change the access stream"),
    ("metamorphic-degenerate-bam",
     "GMT with tier2_frames=0 and the tier-order policy is "
     "counter-identical to the BaM baseline on the same trace"),
    ("metamorphic-determinism",
     "replaying the same trace twice from the same seed yields "
     "identical counters and elapsed time"),
    ("metamorphic-solo-serve",
     "a 1-tenant serve run reproduces the single-stream replay's "
     "counters and elapsed time exactly"),
    ("scalar-vs-vector",
     "the vectorized replay engine produces byte-identical counters and "
     "elapsed time to the scalar runtime on every trace"),
    ("telemetry-parity",
     "with windowed telemetry and the full lifecycle recorder attached, "
     "both replay engines produce byte-equal window streams, "
     "latency-digest buckets, counter tracks, anomaly findings and "
     "lifecycle events"),
)

CATALOG_NAMES = tuple(name for name, _ in CATALOG)


@dataclass(frozen=True)
class Violation:
    """One violated identity, with the numbers that broke it."""

    identity: str
    message: str

    def __post_init__(self) -> None:
        if self.identity not in CATALOG_NAMES:
            raise SimulationError(
                f"violation references unknown identity {self.identity!r}"
            )

    def __str__(self) -> str:
        return f"{self.identity}: {self.message}"


class _Auditor:
    """Accumulates violations; one helper per comparison flavour."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def equal(self, identity: str, lhs, rhs, detail: str) -> None:
        if lhs != rhs:
            self.violations.append(
                Violation(identity, f"{detail}: {lhs} != {rhs}")
            )

    def close(self, identity: str, lhs: float, rhs: float, detail: str) -> None:
        if abs(lhs - rhs) > FLOAT_RTOL * max(abs(lhs), abs(rhs), 1.0):
            self.violations.append(
                Violation(identity, f"{detail}: {lhs!r} != {rhs!r}")
            )

    def require(self, identity: str, condition: bool, detail: str) -> None:
        if not condition:
            self.violations.append(Violation(identity, detail))


def audit_stats(stats: RuntimeStats) -> list[Violation]:
    """Pure-counter identities — no runtime needed, any policy, any tier
    geometry.  Returns the (possibly empty) violation list."""
    a = _Auditor()
    a.equal(
        "access-conservation",
        stats.t1_hits + stats.t1_misses,
        stats.coalesced_accesses,
        f"t1_hits({stats.t1_hits}) + t1_misses({stats.t1_misses}) vs "
        f"coalesced_accesses",
    )
    a.equal(
        "t2-lookup-partition",
        stats.t2_lookups,
        stats.t2_hits + stats.t2_wasteful_lookups,
        f"t2_lookups vs t2_hits({stats.t2_hits}) + "
        f"t2_wasteful_lookups({stats.t2_wasteful_lookups})",
    )
    a.equal(
        "t2-fetch-is-hit",
        stats.t2_fetches,
        stats.t2_hits,
        "t2_fetches vs t2_hits",
    )
    a.equal(
        "miss-fill-sources",
        stats.t1_misses,
        stats.t2_hits + stats.ssd_page_reads - stats.prefetches_issued,
        f"t1_misses vs t2_hits({stats.t2_hits}) + "
        f"ssd_page_reads({stats.ssd_page_reads}) - "
        f"prefetches_issued({stats.prefetches_issued})",
    )
    t1_writebacks = stats.t1_evictions - stats.t2_placements - stats.clean_discards
    t2_writebacks = stats.t2_evictions - stats.t2_clean_evictions
    a.equal(
        "writeback-conservation",
        stats.ssd_page_writes,
        t1_writebacks + t2_writebacks,
        f"ssd_page_writes vs bypass-path dirty({t1_writebacks}) + "
        f"tier2-evict-path dirty({t2_writebacks})",
    )
    a.require(
        "prefetch-partition",
        stats.prefetch_hits + stats.prefetch_wasted <= stats.prefetches_issued,
        f"prefetch_hits({stats.prefetch_hits}) + "
        f"prefetch_wasted({stats.prefetch_wasted}) > "
        f"prefetches_issued({stats.prefetches_issued})",
    )
    a.require(
        "prediction-accounting",
        stats.correct_predictions <= stats.resolved_predictions,
        f"correct_predictions({stats.correct_predictions}) > "
        f"resolved_predictions({stats.resolved_predictions})",
    )
    a.equal(
        "prediction-accounting",
        sum(stats.confusion.values()),
        stats.resolved_predictions,
        "confusion-matrix total vs resolved_predictions",
    )
    a.equal(
        "admission-conservation",
        stats.requests_arrived,
        stats.requests_admitted + stats.requests_shed,
        f"requests_arrived vs requests_admitted({stats.requests_admitted}) "
        f"+ requests_shed({stats.requests_shed})",
    )
    a.require(
        "admission-conservation",
        stats.requests_completed <= stats.requests_admitted,
        f"requests_completed({stats.requests_completed}) > "
        f"requests_admitted({stats.requests_admitted})",
    )
    for name in stats.counter_names():
        value = getattr(stats, name)
        a.require(
            "counter-positivity",
            value >= 0,
            f"{name} is negative: {value}",
        )
    return a.violations


def _audit_queueing(a: _Auditor, runtime) -> None:
    model = runtime._queueing
    if model is None:
        return
    page_size = runtime.config.page_size
    stats = runtime.stats
    # The model's fluid links are the authority on bandwidth: baselines
    # override the SSD bandwidths at construction (HMM's page cache).
    read_wire = page_size / model._ssd_read.bandwidth * SEC
    write_wire = page_size / model._ssd_write.bandwidth * SEC
    pcie_wire = page_size / model._pcie.bandwidth * SEC
    a.close(
        "queueing-read-conservation",
        model.ssd_read_busy_ns,
        stats.ssd_page_reads * read_wire,
        f"read-link busy vs ssd_page_reads({stats.ssd_page_reads}) x wire",
    )
    a.close(
        "queueing-write-conservation",
        model.ssd_write_busy_ns,
        stats.ssd_page_writes * write_wire,
        f"write-link busy vs ssd_page_writes({stats.ssd_page_writes}) x wire",
    )
    a.close(
        "queueing-pcie-conservation",
        model.pcie_busy_ns,
        (stats.t2_hits + stats.t2_placements) * pcie_wire,
        f"pcie-link busy vs (t2_hits({stats.t2_hits}) + "
        f"t2_placements({stats.t2_placements})) x wire",
    )


def audit_runtime(runtime) -> list[Violation]:
    """The full audit: counter identities plus everything that needs the
    live runtime (structure, occupancy conservation, device parity, the
    footprint bound, queueing-link conservation).

    Works on any :class:`~repro.core.runtime.GMTRuntime` — baselines and
    the tenant-aware serving runtime included.
    """
    a = _Auditor()
    a.violations.extend(audit_stats(runtime.stats))
    try:
        runtime.check_invariants()
    except SimulationError as exc:
        a.violations.append(Violation("structural", str(exc)))

    stats = runtime.stats
    a.equal(
        "tier1-occupancy",
        len(runtime.t1_clock),
        stats.t1_misses + stats.prefetches_issued - stats.t1_evictions,
        f"resident Tier-1 pages vs t1_misses({stats.t1_misses}) + "
        f"prefetches_issued({stats.prefetches_issued}) - "
        f"t1_evictions({stats.t1_evictions})",
    )
    a.equal(
        "tier2-occupancy",
        len(runtime._t2_order),
        stats.t2_placements - stats.t2_fetches - stats.t2_evictions,
        f"resident Tier-2 pages vs t2_placements({stats.t2_placements}) - "
        f"t2_fetches({stats.t2_fetches}) - t2_evictions({stats.t2_evictions})",
    )

    # Any eviction structure with self-checks (ghost bound, generation
    # consistency, a partition's running size, ...) gets them audited
    # here; its membership is checked against the page table above.
    for structure in (runtime.t1_clock, runtime._t2_order):
        check = getattr(structure, "check_integrity", None)
        if check is not None:
            try:
                check()
            except SimulationError as exc:
                a.violations.append(Violation("eviction-structural", str(exc)))

    resident_prefetched = 0
    t1_pages = set(runtime.t1_clock.pages())
    for state in runtime.page_table:
        if state.prefetched:
            resident_prefetched += 1
            a.require(
                "prefetch-exact",
                state.page in t1_pages,
                f"page {state.page} carries the prefetched flag outside Tier-1",
            )
    a.equal(
        "prefetch-exact",
        stats.prefetches_issued,
        stats.prefetch_hits + stats.prefetch_wasted + resident_prefetched,
        f"prefetches_issued vs prefetch_hits({stats.prefetch_hits}) + "
        f"prefetch_wasted({stats.prefetch_wasted}) + "
        f"still-resident({resident_prefetched})",
    )

    a.equal("ssd-parity", runtime.ssd.reads, stats.ssd_page_reads,
            "NvmeSSD.reads vs ssd_page_reads")
    a.equal("ssd-parity", runtime.ssd.writes, stats.ssd_page_writes,
            "NvmeSSD.writes vs ssd_page_writes")
    a.equal("pcie-parity", runtime.pcie.h2d_transfers, stats.t2_fetches,
            "PCIeLink.h2d_transfers vs t2_fetches")
    a.equal("pcie-parity", runtime.pcie.d2h_transfers, stats.t2_placements,
            "PCIeLink.d2h_transfers vs t2_placements")

    bound = runtime.config.footprint_pages
    if bound is not None:
        out_of_range = sorted(
            state.page for state in runtime.page_table if state.page >= bound
        )
        a.require(
            "footprint-bound",
            not out_of_range,
            f"pages past the {bound}-page footprint entered the page "
            f"table: {out_of_range[:5]}"
            + ("..." if len(out_of_range) > 5 else ""),
        )

    _audit_queueing(a, runtime)
    return a.violations


def audit_split(aggregate: RuntimeStats, slices) -> list[Violation]:
    """Serve-layer conservation: tenant slices must sum to the aggregate
    for every counter (the charge at each tenant switch may not lose or
    double-count an increment).  Read it after the run's final
    ``begin_tenant(None)``: slices are current to the last switch."""
    a = _Auditor()
    slices = list(slices)
    for name in RuntimeStats.counter_names():
        a.equal(
            "tenant-split-conservation",
            sum(getattr(s, name) for s in slices),
            getattr(aggregate, name),
            f"sum of tenant {name} slices vs aggregate",
        )
    return a.violations


def assert_conformant(runtime) -> None:
    """Raise :class:`ConformanceError` if any identity is violated."""
    violations = audit_runtime(runtime)
    if violations:
        raise ConformanceError(violations)
