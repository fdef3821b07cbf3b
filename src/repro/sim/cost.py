"""Execution-time model: max of the pipeline's bottlenecks.

A GPU application over-subscribing its memory runs as a deep pipeline:
thousands of warps compute while others are parked on faults, and the
PCIe link and SSD stream data underneath.  Execution time is therefore
governed by whichever resource saturates first, not by the sum of all
latencies — the roofline view BaM's own evaluation takes.  The model
tracks four terms and reports their maximum:

- *compute*: per-coalesced-access GPU work (the floor when data fits);
- *fault latency*: the sum of critical-path miss latencies, divided by the
  fault-level parallelism the orchestrator sustains.  This is where GPU
  orchestration (BaM/GMT, thousands of in-flight faults) beats CPU
  orchestration (HMM, a few host cores) — same latencies, far smaller
  divisor for the GPU;
- *link/device busy time*: bandwidth floors from the PCIe link and SSD
  byte counters.

The breakdown is exposed so experiment reports can show *why* a runtime is
fast or slow, not just the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError


def sequential_float_sum(base: float, step: float, count: int) -> float:
    """``base`` after ``count`` sequential ``+= step`` operations.

    Bit-for-bit identical to the Python loop: ``np.add.accumulate`` is
    defined as the sequential recurrence ``r[i] = r[i-1] + a[i]``, so its
    last element carries the exact same intermediate roundings.  (Do NOT
    substitute ``np.add.reduce``/``np.sum`` here — those use pairwise
    summation, which rounds differently.)  The batched replay relies on
    this to keep float accumulators byte-identical to the per-access
    path's.
    """
    if count <= 0:
        return base
    arr = np.empty(count + 1, dtype=np.float64)
    arr[0] = base
    arr[1:] = step
    return float(np.add.accumulate(arr)[-1])


@dataclass
class CostBreakdown:
    """The four bottleneck terms (ns) and the resulting elapsed time.

    ``measured_ns``, when set, overrides the roofline maximum with a
    measured makespan (the queueing time model,
    :mod:`repro.sim.queueing`); the four terms remain available as the
    explanatory breakdown.
    """

    compute_ns: float
    fault_ns: float
    pcie_ns: float
    ssd_ns: float
    measured_ns: float | None = None

    @property
    def elapsed_ns(self) -> float:
        if self.measured_ns is not None:
            return self.measured_ns
        return max(self.compute_ns, self.fault_ns, self.pcie_ns, self.ssd_ns)

    @property
    def bottleneck(self) -> str:
        """Name of the dominating term."""
        terms = {
            "compute": self.compute_ns,
            "fault-latency": self.fault_ns,
            "pcie": self.pcie_ns,
            "ssd": self.ssd_ns,
        }
        return max(terms, key=terms.get)  # type: ignore[arg-type]


class CostModel:
    """Accumulates compute and fault-latency time for one run.

    Args:
        fault_concurrency: in-flight faults the orchestrator sustains
            (GPU-orchestrated: hundreds; CPU-orchestrated: a few).
    """

    def __init__(self, fault_concurrency: int) -> None:
        if fault_concurrency < 1:
            raise SimulationError(
                f"fault_concurrency must be >= 1, got {fault_concurrency}"
            )
        self.fault_concurrency = fault_concurrency
        self._compute_ns = 0.0
        self._fault_latency_ns = 0.0

    @property
    def compute_ns(self) -> float:
        return self._compute_ns

    @property
    def fault_latency_ns(self) -> float:
        """Undivided sum of critical-path fault latencies."""
        return self._fault_latency_ns

    def add_compute(self, ns: float) -> None:
        if ns < 0:
            raise SimulationError(f"negative compute time: {ns}")
        self._compute_ns += ns

    def add_compute_batch(self, ns: float, count: int) -> None:
        """Charge ``count`` identical compute steps of ``ns`` each.

        Equivalent — to the last bit — to ``count`` calls to
        :meth:`add_compute` (see :func:`sequential_float_sum`).
        """
        if ns < 0:
            raise SimulationError(f"negative compute time: {ns}")
        self._compute_ns = sequential_float_sum(self._compute_ns, ns, count)

    def add_fault_latency(self, ns: float) -> None:
        """Add one fault's critical-path latency (lookup + fetch + ...)."""
        if ns < 0:
            raise SimulationError(f"negative fault latency: {ns}")
        self._fault_latency_ns += ns

    def breakdown(self, pcie_busy_ns: float = 0.0, ssd_busy_ns: float = 0.0) -> CostBreakdown:
        """Combine the accumulated terms with device busy times."""
        if pcie_busy_ns < 0 or ssd_busy_ns < 0:
            raise SimulationError("device busy times must be non-negative")
        return CostBreakdown(
            compute_ns=self._compute_ns,
            fault_ns=self._fault_latency_ns / self.fault_concurrency,
            pcie_ns=pcie_busy_ns,
            ssd_ns=ssd_busy_ns,
        )
