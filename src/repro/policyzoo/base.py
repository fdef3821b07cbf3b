"""The eviction-policy strategy interface.

Both replacement structures the runtime drives — ``t1_clock`` over the
GPU tier and ``_t2_order`` over the host tier — satisfy this contract.
``ClockReplacement`` and ``Tier2Fifo`` in ``repro.mem`` predate the
zoo and satisfy it structurally (duck typing); the zoo members subclass
:class:`EvictionPolicy` directly.

Contract (see ``docs/policies.md`` for the full statement):

- ``insert(page, referenced=...)`` — admit a page; raises
  ``PageStateError`` when already tracked and ``CapacityError`` when the
  structure is full (capacity-bounded members only).
- ``touch(page)`` — record a re-reference of a tracked page.
- ``remove(page)`` — forget a page (tier promotion/teardown); raises
  ``PageStateError`` when untracked.
- ``select_victim()`` — remove and return the policy's victim; raises
  ``PageStateError`` when empty.
- ``select_victim_where(predicate)`` — remove and return a victim
  matching ``predicate``, or ``None`` when no tracked page matches.
  The filtered sweep must leave every non-matching page's bookkeeping
  (membership, recency/frequency state, queue position) untouched.
- ``pages()``, ``__len__``, ``__contains__`` — introspection.
- ``check_integrity()`` (optional) — raise ``SimulationError`` when an
  internal structural invariant is broken; the conformance audit calls
  it when present (the ``eviction-structural`` identity).
"""

from __future__ import annotations

from typing import Callable, Iterable


class EvictionPolicy:
    """Abstract base for zoo members; documents the strategy contract."""

    def insert(self, page: int, referenced: bool = True) -> None:
        raise NotImplementedError

    def touch(self, page: int) -> None:
        raise NotImplementedError

    def remove(self, page: int) -> None:
        raise NotImplementedError

    def select_victim(self) -> int:
        raise NotImplementedError

    def select_victim_where(
        self, predicate: Callable[[int], bool]
    ) -> int | None:
        raise NotImplementedError

    def pages(self) -> Iterable[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, page: int) -> bool:
        raise NotImplementedError

    def check_integrity(self) -> None:
        """Hook for the conformance audit; default: nothing to check."""
