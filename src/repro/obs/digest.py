"""Bounded-memory streaming quantile digests (DDSketch-style).

The always-on :class:`~repro.obs.metrics.Histogram` answers quantile
queries only to bucket granularity (factor-of-2 bounds — a "p99" can be
off by 2x).  Admission control against per-tenant SLOs (ROADMAP item 3)
needs real percentiles, streamed, without storing observations.

:class:`LatencyDigest` keeps geometric buckets of ratio ``gamma =
(1 + e) / (1 - e)``: every observation ``v`` lands in bucket
``ceil(log_gamma(v))``, and the reported quantile is the geometric
midpoint of the bucket holding the target rank, which is within
relative error ``e`` of the true order statistic — *guaranteed*, not
statistically (the DDSketch argument; see PAPERS.md on HM-Keeper for
why bounded-overhead instrumentation is the only kind a tiering system
can afford to leave enabled).

Memory is bounded two ways: buckets are a sparse dict (only populated
ranges cost anything), and the bucket count is capped at ``max_bins``
by collapsing the two lowest buckets — tail quantiles (the SLO end)
keep full accuracy.

The digest runs on whatever clock feeds ``observe``; in this repo that
is the *simulated* nanosecond latency of each demand miss, so digests
are deterministic for a given trace and config.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

#: Default accuracy: 0.5% relative error keeps p50/p90/p99 comfortably
#: inside the 1% the conformance tests assert, at ~2.4k bins across a
#: 1 ns..1 s latency span.
DEFAULT_RELATIVE_ERROR = 0.005

#: Observations at or below this are counted in the zero bucket (the
#: log mapping needs a positive floor; sub-nanosecond modelled latency
#: is indistinguishable from zero for SLO purposes).
MIN_TRACKABLE = 1e-9


class LatencyDigest:
    """Streaming quantile sketch with guaranteed relative error.

    Args:
        relative_error: accuracy bound ``e`` in (0, 1): ``quantile(q)``
            is within ``e * true_value`` of the true q-quantile.
        max_bins: cap on populated buckets; lowest buckets collapse
            first, preserving tail accuracy.
    """

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_bins: int = 4096,
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ConfigError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        if max_bins < 8:
            raise ConfigError(f"max_bins must be >= 8, got {max_bins}")
        self.relative_error = relative_error
        self.max_bins = max_bins
        self.gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self.gamma)
        self._bins: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Buckets merged away by the memory cap (diagnostic only).
        self.collapsed = 0

    # -- ingest ---------------------------------------------------------
    def observe(self, value: float) -> None:
        """Add one observation (non-negative)."""
        if value < 0:
            raise ConfigError(f"latency digest observations must be >= 0, got {value}")
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= MIN_TRACKABLE:
            self._zero += 1
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        bins = self._bins
        bins[key] = bins.get(key, 0) + 1
        if len(bins) > self.max_bins:
            self._collapse_lowest()

    def _collapse_lowest(self) -> None:
        low, second = sorted(self._bins)[:2]
        self._bins[second] += self._bins.pop(low)
        self.collapsed += 1

    def merge(self, other: "LatencyDigest") -> None:
        """Fold ``other`` into this digest (same accuracy required)."""
        if not math.isclose(other.gamma, self.gamma, rel_tol=1e-12):
            raise ConfigError(
                "cannot merge digests with different relative_error "
                f"({self.relative_error} vs {other.relative_error})"
            )
        for key, count in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + count
        while len(self._bins) > self.max_bins:
            self._collapse_lowest()
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def __len__(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """The q-quantile, within ``relative_error`` of the true order
        statistic (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * (self._count - 1)  # 0-based target order statistic
        if rank < self._zero:
            return 0.0
        cumulative = self._zero
        for key in sorted(self._bins):
            cumulative += self._bins[key]
            if cumulative > rank:
                # Geometric midpoint of (gamma^(k-1), gamma^k]: within
                # relative_error of every value the bucket can hold.
                estimate = 2.0 * self.gamma**key / (self.gamma + 1.0)
                return min(max(estimate, self._min), self._max)
        return self._max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready state (ledger entries, snapshot sidecars)."""
        return {
            "relative_error": self.relative_error,
            "max_bins": self.max_bins,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "zero": self._zero,
            "bins": {str(key): count for key, count in sorted(self._bins.items())},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LatencyDigest":
        digest = cls(
            relative_error=doc["relative_error"],
            max_bins=doc.get("max_bins", 4096),
        )
        digest._count = doc["count"]
        digest._sum = doc["sum"]
        digest._zero = doc.get("zero", 0)
        if doc.get("min") is not None:
            digest._min = doc["min"]
        if doc.get("max") is not None:
            digest._max = doc["max"]
        digest._bins = {int(key): count for key, count in doc.get("bins", {}).items()}
        return digest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyDigest(n={self._count}, p50={self.p50:.0f}, "
            f"p99={self.p99:.0f}, bins={len(self._bins)})"
        )
