"""Tenant-aware runtime: a :class:`GMTRuntime` serving N streams at once.

Three things distinguish a served runtime from the single-stream one:

- **per-tenant accounting** — each tenant switch charges the outgoing
  tenant's private :class:`~repro.core.stats.RuntimeStats` slice with
  everything the shared counters moved since the previous switch, so the
  shared run yields both the aggregate numbers and an exact per-tenant
  decomposition (including the cost of evictions a tenant's miss
  inflicted on others, charged to the tenant that caused the work) while
  the hot path keeps plain counter writes;
- **quota enforcement** — the victim-selection and admission hooks of the
  base eviction pipeline are overridden to honour
  :class:`~repro.serve.quota.TierQuotas`: a tenant at its Tier-1 budget
  evicts its own pages first, over-budget tenants are preferred victims
  when a tier is physically full, and Tier-2 placement is denied to
  tenants over their host-memory budget (migration admission control);
- **tenant-labelled telemetry** — when telemetry is attached, every span
  and miss event carries a ``tenant=<name>`` argument so Perfetto renders
  per-tenant lanes and per-tenant metric registries export distinct
  Prometheus series.

The tenants occupy contiguous ranges of one dense page space, so the
runtime keeps the same page table, hit map and replay as every other
runtime.  With quotas disabled and a single tenant, every hook
degenerates to the base behaviour and the runtime reproduces the
single-stream numbers exactly (asserted in tests).
"""

from __future__ import annotations

import operator
from collections import Counter

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError, SimulationError
from repro.mem.page import PageState
from repro.obs.digest import LatencyDigest
from repro.policyzoo.governor import GovernorConfig, MigrationGovernor
from repro.policyzoo.partition import PartitionedPolicy
from repro.policyzoo.registry import make_eviction_policy
from repro.serve.quota import QuotaConfig, TierQuotas
from repro.serve.stream import TenantStream

_COUNTERS = RuntimeStats.counter_names()
#: Reads every scalar counter of a stats object as one tuple.
_read_counters = operator.attrgetter(*_COUNTERS)


class TenantAwareRuntime(GMTRuntime):
    """Shared GMT hierarchy multiplexing several tenant streams.

    Args:
        config: the shared hierarchy's geometry/policy/platform.
        streams: the tenants, in index order, in contiguous page ranges
            from 0 (:func:`~repro.serve.stream.lay_out_streams`); their
            names label telemetry and their weights are the default
            quota shares.
        quota: per-tenant tier budgets (default: no quotas).
        policy_factory: forwarded to :class:`GMTRuntime`.
        tier1_policies / tier2_policies: per-tenant eviction policy
            names (``repro.policyzoo`` registry), one entry per tenant;
            ``None`` entries fall back to the shared default for that
            tier.  Passing ``None`` for the whole list keeps the
            pre-zoo shared structure for that tier (byte-identical).
        governor: token-bucket migration admission control
            (:class:`~repro.policyzoo.governor.GovernorConfig`); None
            disables throttling.
    """

    orchestration = "gpu"

    def __init__(
        self,
        config: GMTConfig,
        streams: list[TenantStream],
        quota: QuotaConfig | None = None,
        policy_factory=None,
        tier1_policies: list[str | None] | None = None,
        tier2_policies: list[str | None] | None = None,
        governor: GovernorConfig | None = None,
    ) -> None:
        if not streams:
            raise ConfigError("TenantAwareRuntime needs at least one tenant")
        tenant_names = [s.name for s in streams]
        if len(set(tenant_names)) != len(tenant_names):
            raise ConfigError(f"tenant names must be unique: {tenant_names}")
        owners: list[int] = []
        for expected, stream in enumerate(streams):
            if (stream.index, stream.base) != (expected, len(owners)):
                raise ConfigError(
                    f"tenant {stream.name!r} has index {stream.index}, base "
                    f"{stream.base}; streams must be in index order, in contiguous "
                    f"page ranges from 0 (expected {expected}, {len(owners)})"
                )
            owners.extend([expected] * stream.footprint_pages)
        for label, policies in (
            ("tier1_policies", tier1_policies),
            ("tier2_policies", tier2_policies),
        ):
            if policies is not None and len(policies) != len(tenant_names):
                raise ConfigError(f"{label} must name every tenant")
        super().__init__(config, policy_factory)
        # The whole page space is known: size the hit map once, with room
        # for prefetch candidates past the last page.
        self._hit_map.ensure(len(owners) + config.prefetch_degree)
        self.tenant_names = tenant_names
        #: ``owner_of(page)`` is the index of the tenant whose range holds
        #: ``page``: one lookup in a dense per-page owner list.
        self.owner_of = owners.__getitem__
        #: One past each tenant's last page id.
        self._range_end = [s.base + s.footprint_pages for s in streams]
        # Per-tenant eviction policies: replace the shared replacement
        # structures (still empty here) with one-partition-per-tenant
        # composites.  Each sub-policy gets the full tier capacity —
        # budgets stay the quota layer's job.
        if tier1_policies is not None:
            names = [name or config.tier1_eviction for name in tier1_policies]
            self.t1_clock = PartitionedPolicy(
                [
                    make_eviction_policy(name, config.tier1_frames)
                    for name in names
                ],
                self.owner_of,
                names=names,
            )
            self.tier1_policy_names = tuple(names)
        else:
            self.tier1_policy_names = (config.tier1_eviction,) * len(tenant_names)
        if tier2_policies is not None and config.tier2_frames > 0:
            default = config.tier2_eviction or (
                "clock" if self.policy.tier2_uses_clock else "fifo"
            )
            names = [name or default for name in tier2_policies]
            self._t2_order = PartitionedPolicy(
                [
                    make_eviction_policy(name, config.tier2_frames)
                    for name in names
                ],
                self.owner_of,
                names=names,
            )
            self.tier2_policy_names = tuple(names)
        else:
            shared = config.tier2_eviction or (
                "clock" if self.policy.tier2_uses_clock else "fifo"
            )
            self.tier2_policy_names = (shared,) * len(tenant_names)
        self.governor = (
            None
            if governor is None
            else MigrationGovernor(governor, len(tenant_names))
        )
        self.quotas = TierQuotas(
            quota or QuotaConfig(),
            tier1_capacity=config.tier1_frames,
            tier2_capacity=config.tier2_frames,
            weights=[s.weight for s in streams],
            owner_of=self.owner_of,
        )
        # The quotas keep each tenant's residency per tier: the base
        # runtime reports every page that enters or leaves a tier.
        self._tier_counts = self.quotas
        self.tenant_stats = [RuntimeStats() for _ in tenant_names]
        #: Per-tenant streaming latency digests, fed by the attached
        #: telemetry on every serviced miss (empty until telemetry
        #: attaches — the unobserved hot path never touches them).
        self.tenant_digests = [LatencyDigest() for _ in tenant_names]
        self._current: int | None = None
        #: The shared counters and confusion matrix as of the last tenant
        #: switch; the next switch charges the difference.
        self._charged = _read_counters(self.stats)
        self._charged_confusion: dict[tuple[str, str], int] = {}
        self.obs_extra_labels = dict(self.obs_extra_labels)
        self.obs_extra_labels["tenants"] = str(len(tenant_names))

    # -- tenant switching (driven by the server, per warp) --------------
    def begin_tenant(self, index: int | None) -> None:
        """All subsequent work is issued by (and charged to) ``index``.

        The outgoing tenant's slice is charged with what the shared
        counters and confusion matrix moved since the previous switch
        (work done with no tenant active is charged to nobody).  So a
        slice read mid-run is current to the last switch; the servers
        end every run with ``begin_tenant(None)``.
        """
        counters = _read_counters(self.stats)
        confusion = self.stats.confusion
        if self._current is not None:
            target = self.tenant_stats[self._current]
            for name, now, then in zip(_COUNTERS, counters, self._charged):
                if now != then:
                    setattr(target, name, getattr(target, name) + now - then)
            charged = self._charged_confusion
            for key, count in confusion.items():
                moved = count - charged.get(key, 0)
                if moved:
                    target.confusion[key] = target.confusion.get(key, 0) + moved
        self._charged = counters
        self._charged_confusion = dict(confusion)
        self._current = index
        if index is not None:
            self.quotas.note_active(index, self.stats.coalesced_accesses)

    def finish_tenant(self, index: int) -> None:
        """Mark ``index``'s stream drained (dynamic quotas reclaim it)."""
        self.quotas.note_finished(index)

    @property
    def current_tenant(self) -> int | None:
        return self._current

    def current_tenant_label(self) -> str | None:
        if self._current is None:
            return None
        return self.tenant_names[self._current]

    def elapsed_ns(self) -> float:
        """Cheap read of the aggregate modelled elapsed time so far."""
        if self._queueing is not None:
            return self._queueing.makespan_ns
        return self.cost.breakdown(
            pcie_busy_ns=self.pcie.busy_time_ns(),
            ssd_busy_ns=self.ssd.busy_time_ns(),
        ).elapsed_ns

    def _address_end(self, page: int) -> int:
        """A prefetch stays in the range of the tenant owning ``page``."""
        return self._range_end[self.owner_of(page)]

    # -- quota-aware eviction hooks -------------------------------------
    def _tier1_needs_eviction(self) -> bool:
        if len(self.t1_clock) >= self.config.tier1_frames:
            return True
        tenant = self._current
        if tenant is None or not self.quotas.enabled:
            return False
        held = self.quotas.resident(1, tenant)
        if held >= self.quotas.tier1_budget(tenant) and held > 0:
            # The filling tenant is at its frame budget: it must free one
            # of its own frames even though the tier has physical room.
            self.stats.quota_evictions += 1
            return True
        return False

    def _next_tier1_victim(self) -> int:
        tenant = self._current
        if tenant is not None and self.quotas.enabled:
            held = self.quotas.resident(1, tenant)
            if held >= self.quotas.tier1_budget(tenant) and held > 0:
                victim = self.t1_clock.select_victim_where(
                    lambda p: self.owner_of(p) == tenant
                )
                if victim is not None:
                    return victim
            if len(self.t1_clock) >= self.config.tier1_frames:
                over = self.quotas.over_budget_tier1()
                over.discard(tenant)
                if over:
                    victim = self.t1_clock.select_victim_where(
                        lambda p: self.owner_of(p) in over
                    )
                    if victim is not None:
                        return victim
        return self.t1_clock.select_victim()

    def _admit_tier2(self, state: PageState) -> bool:
        if not self.quotas.enabled or self.config.tier2_frames == 0:
            return True
        owner = self.owner_of(state.page)
        return self.quotas.resident(2, owner) < self.quotas.tier2_budget(owner)

    # -- migration governor (TierBPF-style admission control) ------------
    def _admit_demotion(self, state: PageState) -> bool:
        if self.governor is None:
            return True
        # Migrations are charged to the page's owner — the tenant whose
        # data is moving over the interconnect — on the runtime's
        # logical clock (deterministic under the replay engine).
        return self.governor.try_take(
            self.owner_of(state.page), self.stats.coalesced_accesses
        )

    def _promotion_stall_ns(self, page: int) -> float:
        if self.governor is None:
            return 0.0
        if self.governor.try_take(self.owner_of(page), self.stats.coalesced_accesses):
            return 0.0
        return self.governor.config.promotion_stall_ns

    def _select_tier2_victim(self) -> int:
        if self.quotas.enabled:
            over = self.quotas.over_budget_tier2()
            if over:
                victim = self._t2_order.select_victim_where(
                    lambda p: self.owner_of(p) in over
                )
                if victim is not None:
                    return victim
        return self._t2_order.select_victim()

    # -- audit -----------------------------------------------------------
    def check_invariants(self) -> None:
        """The base structural checks, then each tenant's quota counts
        per tier against a recount of the tier's eviction structure."""
        super().check_invariants()
        for tier, structure in ((1, self.t1_clock), (2, self._t2_order)):
            recount = dict(Counter(map(self.owner_of, structure.pages())))
            counted = self.quotas.residents(tier)
            if recount != counted:
                raise SimulationError(
                    f"Tier-{tier} per-tenant counts {counted} disagree with "
                    f"the tier's eviction structure {recount}"
                )

    # -- telemetry -------------------------------------------------------
    def attach_telemetry(self, telemetry=None):
        telemetry = super().attach_telemetry(telemetry)
        # Spans, instants and misses carry the tenant label, and each
        # labelled miss feeds that tenant's digest.
        telemetry.tenant_source = self.current_tenant_label
        telemetry.tenant_digests = dict(zip(self.tenant_names, self.tenant_digests))
        if telemetry.lifecycle is not None:
            telemetry.lifecycle.tenant_source = self.current_tenant_label
        return telemetry

    def attach_flight_recorder(self, capacity: int | None = 100_000, recorder=None):
        recorder = super().attach_flight_recorder(capacity, recorder)
        # Lifecycle events carry the issuing tenant (per-tenant lanes).
        recorder.tenant_source = self.current_tenant_label
        return recorder
