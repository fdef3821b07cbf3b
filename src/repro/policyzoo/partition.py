"""Per-tenant policy partitioning: one private policy instance per
tenant, routed by page ownership.

``PartitionedPolicy`` presents the single-structure
:class:`~repro.policyzoo.base.EvictionPolicy` interface the runtime
drives, while internally each page lives in its owning tenant's
sub-policy (cache_ext-style).  Quota pressure is still applied by the
serving runtime's victim-selection hooks — via filtered sweeps, which
delegate tenant-by-tenant — so the partition composes with, rather than
replaces, ``TierQuotas``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.errors import PageStateError, SimulationError
from repro.policyzoo.base import EvictionPolicy


class PartitionedPolicy(EvictionPolicy):
    """Route pages to per-tenant sub-policies by ``owner_of(page)``.

    Each sub-policy is built with the FULL tier capacity: budgets are
    the quota layer's job, and a tenant may legitimately hold more than
    an equal share when its peers are idle.  So no partition bounds the
    total; the runtime's fullness test reads ``len()``, which a running
    size keeps O(1) whatever the tenant count.
    """

    def __init__(
        self,
        policies: Sequence,
        owner_of: Callable[[int], int],
        names: Sequence[str] | None = None,
    ) -> None:
        self.policies = list(policies)
        self.names = tuple(names) if names is not None else tuple(
            type(p).__name__ for p in self.policies
        )
        self._owner_of = owner_of
        self._size = sum(len(p) for p in self.policies)

    def _sub(self, page: int):
        owner = self._owner_of(page)
        if not 0 <= owner < len(self.policies):
            raise PageStateError(
                f"page {page} belongs to tenant {owner}, outside the "
                f"{len(self.policies)}-tenant partition"
            )
        return self.policies[owner]

    # -- delegation ---------------------------------------------------
    def insert(self, page: int, referenced: bool = True) -> None:
        self._sub(page).insert(page, referenced=referenced)
        self._size += 1

    def touch(self, page: int) -> None:
        self._sub(page).touch(page)

    def remove(self, page: int) -> None:
        self._sub(page).remove(page)
        self._size -= 1

    def __len__(self) -> int:
        return self._size

    def __contains__(self, page: int) -> bool:
        return page in self._sub(page)

    def pages(self) -> Iterable[int]:
        out: list[int] = []
        for policy in self.policies:
            out.extend(policy.pages())
        return out

    # -- victim selection ---------------------------------------------
    def select_victim(self) -> int:
        """Unfiltered pressure lands on the largest partition (ties:
        lowest tenant index), then that tenant's own policy picks."""
        best_index = -1
        best_size = 0
        for index, policy in enumerate(self.policies):
            size = len(policy)
            if size > best_size:
                best_index, best_size = index, size
        if best_index < 0:
            raise PageStateError(
                "cannot select a victim: every partition is empty"
            )
        victim = self.policies[best_index].select_victim()
        self._size -= 1
        return victim

    def select_victim_where(
        self, predicate: Callable[[int], bool]
    ) -> int | None:
        for policy in self.policies:
            victim = policy.select_victim_where(predicate)
            if victim is not None:
                self._size -= 1
                return victim
        return None

    # -- audit hook ---------------------------------------------------
    def check_integrity(self) -> None:
        total = sum(len(p) for p in self.policies)
        if self._size != total:
            raise SimulationError(
                f"partition size {self._size} disagrees with its "
                f"partitions' total {total}"
            )
        for index, policy in enumerate(self.policies):
            check = getattr(policy, "check_integrity", None)
            if check is not None:
                check()
            for page in policy.pages():
                if self._owner_of(page) != index:
                    raise SimulationError(
                        f"partition invariant broken: page {page} owned by "
                        f"tenant {self._owner_of(page)} found in tenant "
                        f"{index}'s policy"
                    )
