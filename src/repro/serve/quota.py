"""Per-tenant tier frame quotas: budgets, residency counts, reclaim.

The serving layer's resource-isolation mechanism, mirroring TierBPF-style
migration admission control: each tenant holds a *frame budget* in Tier-1
and Tier-2, and the runtime's victim selection / placement admission is
steered so no tenant can flood a tier at its peers' expense.  The
per-tenant residency counts and peaks the budgets are held against live
here too: the runtime reports each page that enters or leaves a tier
(:meth:`TierQuotas.entered` / :meth:`TierQuotas.left`), in every mode.

Two enforcement modes (plus ``"none"``):

- ``static`` — hard caps.  Budgets are fixed shares of each tier's
  capacity (proportional to scheduling weight unless explicit shares are
  given).  A tenant at its Tier-1 budget evicts one of its *own* pages
  before filling a new one, so its residency can never exceed the budget;
  a tenant at its Tier-2 budget is denied placement (the page bypasses to
  Tier-3).
- ``dynamic`` — static shares plus idle reclaim.  A tenant that has not
  issued an access for ``idle_window`` coalesced accesses donates its
  unused budget to a pool split among the active tenants, so a lone
  active tenant can use (nearly) the whole tier; when an idle tenant
  wakes up, over-budget peers become the preferred eviction victims and
  the shares re-converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError

#: Quota modes accepted by :class:`QuotaConfig` and the CLI.
QUOTA_MODES = ("none", "static", "dynamic")


@dataclass(frozen=True)
class QuotaConfig:
    """Quota policy knobs for a served run.

    Attributes:
        mode: ``"none"`` | ``"static"`` | ``"dynamic"``.
        tier1_shares / tier2_shares: optional explicit capacity fractions
            per tenant (must be positive; normalised to sum to 1).  When
            None, shares are proportional to the tenants' scheduling
            weights.
        idle_window: coalesced accesses of inactivity after which a
            tenant's budget becomes reclaimable (dynamic mode only).
    """

    mode: str = "none"
    tier1_shares: tuple[float, ...] | None = None
    tier2_shares: tuple[float, ...] | None = None
    idle_window: int = 20_000

    def __post_init__(self) -> None:
        if self.mode not in QUOTA_MODES:
            raise ConfigError(
                f"unknown quota mode {self.mode!r}; expected one of {QUOTA_MODES}"
            )
        if self.idle_window < 1:
            raise ConfigError("idle_window must be >= 1")
        for label, shares in (("tier1", self.tier1_shares), ("tier2", self.tier2_shares)):
            if shares is not None and any(s <= 0 for s in shares):
                raise ConfigError(f"{label}_shares must all be positive")

    @property
    def enabled(self) -> bool:
        return self.mode != "none"


def split_frames(capacity: int, shares: Sequence[float]) -> list[int]:
    """Integer frame budgets from capacity fractions (largest remainder).

    Every tenant gets at least one frame; the budgets never sum to more
    than ``capacity``.  A zero-capacity tier yields all-zero budgets.
    """
    n = len(shares)
    if capacity <= 0 or n == 0:
        return [0] * n
    if capacity < n:
        raise ConfigError(
            f"cannot split {capacity} frames among {n} tenants "
            "(every tenant needs at least one frame)"
        )
    total = sum(shares)
    exact = [capacity * s / total for s in shares]
    budgets = [max(1, int(e)) for e in exact]
    # Largest-remainder top-up of any frames the floors left unassigned.
    leftover = capacity - sum(budgets)
    if leftover > 0:
        order = sorted(range(n), key=lambda i: exact[i] - int(exact[i]), reverse=True)
        for i in order[:leftover]:
            budgets[i] += 1
    while sum(budgets) > capacity:
        # The min-1 floor oversubscribed the tier (very skewed shares on
        # a tiny capacity): shave the largest budget until it fits —
        # terminates because capacity >= n allows all-ones.
        budgets[max(range(n), key=budgets.__getitem__)] -= 1
    return budgets


class TierQuotas:
    """Budget arithmetic, residency counts and activity tracking for one
    served run.

    One instance serves both tiers; the runtime asks for
    :meth:`tier1_budget` / :meth:`tier2_budget` of the tenant it is about
    to charge and for :meth:`over_budget_tier1` / ``_tier2`` sets when
    hunting eviction victims.  Tiers are numbered 1 and 2.  Peak
    residency per tenant is recorded so quota invariants ("residency
    never exceeded the budget") are checkable after the fact without
    per-access assertions.  ``owner_of`` maps a page id to the index of
    the tenant owning it.
    """

    def __init__(
        self,
        config: QuotaConfig,
        tier1_capacity: int,
        tier2_capacity: int,
        weights: Sequence[float],
        owner_of: Callable[[int], int],
    ) -> None:
        self.config = config
        self.tenants = len(weights)
        if self.tenants == 0:
            raise ConfigError("TierQuotas needs at least one tenant")
        t1_shares = config.tier1_shares or tuple(weights)
        t2_shares = config.tier2_shares or tuple(weights)
        if len(t1_shares) != self.tenants or len(t2_shares) != self.tenants:
            raise ConfigError(
                f"quota shares must name all {self.tenants} tenants "
                f"(got {len(t1_shares)} tier1, {len(t2_shares)} tier2)"
            )
        self._t1_static = split_frames(tier1_capacity, t1_shares) if config.enabled else []
        self._t2_static = split_frames(tier2_capacity, t2_shares) if config.enabled else []
        self._tier1_capacity = tier1_capacity
        self._tier2_capacity = tier2_capacity
        self._owner_of = owner_of
        #: Last coalesced-access position each tenant was active at
        #: (-inf-ish start: every tenant counts as active until proven idle).
        self._last_active = [0] * self.tenants
        self._now = 0
        #: Tenants whose streams have drained — permanent budget donors.
        self._finished: set[int] = set()
        #: Dynamic mode's ``[_now, tier-1 budgets, tier-2 budgets]``;
        #: None once activity was noted since.
        self._dynamic: list | None = None
        #: Per tier: ``{tenant: resident pages}`` and ``{tenant: peak}``.
        self._counts: dict[int, dict[int, int]] = {1: {}, 2: {}}
        self._peaks: dict[int, dict[int, int]] = {1: {}, 2: {}}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def mode(self) -> str:
        return self.config.mode

    # -- residency -------------------------------------------------------
    def entered(self, tier: int, page: int) -> None:
        """``page`` now occupies a frame of ``tier``."""
        owner = self._owner_of(page)
        counts = self._counts[tier]
        count = counts.get(owner, 0) + 1
        counts[owner] = count
        peaks = self._peaks[tier]
        if count > peaks.get(owner, 0):
            peaks[owner] = count

    def left(self, tier: int, page: int) -> None:
        """``page`` released its frame of ``tier``."""
        self._counts[tier][self._owner_of(page)] -= 1

    def resident(self, tier: int, tenant: int) -> int:
        """Pages of ``tenant`` resident in ``tier`` now."""
        return self._counts[tier].get(tenant, 0)

    def peak(self, tier: int, tenant: int) -> int:
        """Highest residency ``tenant`` ever reached in ``tier``."""
        return self._peaks[tier].get(tenant, 0)

    def residents(self, tier: int) -> dict[int, int]:
        """Snapshot ``{tenant: resident pages}`` of ``tier`` (zero entries
        pruned)."""
        return {t: c for t, c in self._counts[tier].items() if c}

    # -- activity --------------------------------------------------------
    def note_active(self, tenant: int, position: int) -> None:
        """Record that ``tenant`` issued work at access ``position``."""
        self._last_active[tenant] = position
        if position > self._now:
            self._now = position
        self._dynamic = None

    def note_finished(self, tenant: int) -> None:
        """Mark ``tenant``'s stream as drained (its budget is reclaimable)."""
        self._finished.add(tenant)
        self._dynamic = None

    def _idle(self, tenant: int) -> bool:
        if tenant in self._finished:
            return True
        return self._now - self._last_active[tenant] > self.config.idle_window

    def active_tenants(self) -> list[int]:
        """Tenants currently considered active (dynamic-mode view).

        May be empty — e.g. after every stream drained.  An empty active
        set means there is no one to donate the idle budgets *to*, and
        every tenant keeps its static share.  (An earlier revision fell
        back to "everyone is active" here, which let each tenant count
        its *own* static share into the donated pool as well: a tenant
        that drained exactly at the ``idle_window`` boundary was both an
        idle donor and an active recipient, and the budgets summed to
        roughly twice the tier's capacity.)
        """
        return [t for t in range(self.tenants) if not self._idle(t)]

    # -- budgets ---------------------------------------------------------
    def _budget(self, tier: int, tenant: int) -> int:
        if not self.enabled:
            return 1 << 62  # effectively unbounded
        if self.mode == "static":
            return (self._t1_static if tier == 1 else self._t2_static)[tenant]
        # dynamic: idle tenants' static budgets pool to the active set.
        # Idle tenants — and everyone, when no tenant is active — keep
        # their static share; only truly active tenants receive a cut of
        # the idle pool, so the budgets of any disjoint donor/recipient
        # split never sum past the tier's capacity.  Victim hunting reads
        # many budgets between two activity changes: compute them once.
        view = self._dynamic
        if view is None or view[0] != self._now:
            active = [not self._idle(t) for t in range(self.tenants)]
            view = [self._now]
            for static in (self._t1_static, self._t2_static):
                pool = sum(b for b, a in zip(static, active) if not a)
                share = pool // max(1, sum(active))
                view.append([b + share if a else b for b, a in zip(static, active)])
            self._dynamic = view
        return view[tier][tenant]

    def tier1_budget(self, tenant: int) -> int:
        """Effective Tier-1 frame budget of ``tenant`` right now."""
        return self._budget(1, tenant)

    def tier2_budget(self, tenant: int) -> int:
        """Effective Tier-2 frame budget of ``tenant`` right now."""
        return self._budget(2, tenant)

    def static_tier1_budget(self, tenant: int) -> int:
        return self._t1_static[tenant] if self.enabled else self._tier1_capacity

    def static_tier2_budget(self, tenant: int) -> int:
        return self._t2_static[tenant] if self.enabled else self._tier2_capacity

    # -- victim-hunting helpers -----------------------------------------
    def over_budget_tier1(self) -> set[int]:
        """Tenants holding more Tier-1 frames than their current budget."""
        if not self.enabled:
            return set()
        return {
            t
            for t, count in self._counts[1].items()
            if count and count > self.tier1_budget(t)
        }

    def over_budget_tier2(self) -> set[int]:
        """Tenants holding more Tier-2 frames than their current budget."""
        if not self.enabled:
            return set()
        return {
            t
            for t, count in self._counts[2].items()
            if count and count > self.tier2_budget(t)
        }
