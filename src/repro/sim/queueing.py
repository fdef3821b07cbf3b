"""Queueing-based execution-time model (higher-fidelity alternative).

The default :class:`~repro.sim.cost.CostModel` prices a run as the maximum
of four pipeline bottlenecks — a roofline view that is fast and explains
*why* a runtime is slow, but ignores transient queueing (bursts of faults
colliding on NVMe command slots, PCIe serialization between fetches and
evictions, idle gaps when the access stream has no misses).

:class:`QueueingModel` replays the same per-access information through an
explicit service network in virtual time:

- the GPU issues coalesced accesses ``gpu_access_ns`` apart (hits never
  stall the stream — other warps keep running);
- a miss occupies one of ``fault_concurrency`` *fault slots* from issue to
  data arrival (the warps parked on faults);
- SSD commands occupy one of ``nvme_queue_depth`` command slots and pay
  the device latency;
- bandwidth (SSD, PCIe) follows a fluid (processor-sharing) model: every
  transfer sees its own wire time, and each link's aggregate busy time
  floors the makespan.

Everything is computed in a single forward pass (heaps for slot pools,
O(log slots) per miss), so the model can run the full evaluation suite.
The `extensions` model-validation study checks the two models agree on
speedups where bandwidth binds and quantifies the queueing corrections
where latency binds.
"""

from __future__ import annotations

import heapq

from repro.errors import SimulationError
from repro.sim.latency import PlatformModel
from repro.units import SEC


class SlotPool:
    """k-server FIFO queue: requests take the earliest free slot."""

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise SimulationError(f"slot pool needs >= 1 slot, got {slots}")
        self.slots = slots
        self._free_at = [0.0] * slots
        heapq.heapify(self._free_at)

    def admit(self, ready_ns: float) -> float:
        """Earliest start time for work that is ready at ``ready_ns``.

        The caller must follow up with :meth:`release` for the same
        request once its finish time is known.
        """
        earliest = heapq.heappop(self._free_at)
        return max(ready_ns, earliest)

    def release(self, finish_ns: float) -> None:
        heapq.heappush(self._free_at, finish_ns)


class FluidLink:
    """A shared link/device under the fluid (processor-sharing) model.

    Each transfer experiences its own wire time immediately
    (``bytes / bandwidth``), and the link's aggregate utilization becomes
    a lower bound on the makespan: total busy time can never exceed
    wall-clock time.  This avoids the head-of-line artefacts a strict
    FIFO cursor suffers when completion chains of different depths submit
    transfers with non-monotone ready times, while still charging every
    byte against the shared capacity.
    """

    def __init__(self, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = bandwidth
        self._busy_ns = 0.0

    def transfer(self, ready_ns: float, num_bytes: int) -> float:
        """Account a transfer ready at ``ready_ns``; returns finish time."""
        if num_bytes < 0:
            raise SimulationError(f"negative transfer: {num_bytes}")
        wire = num_bytes / self.bandwidth * SEC
        self._busy_ns += wire
        return ready_ns + wire

    @property
    def busy_ns(self) -> float:
        """Aggregate wire time served — the link's makespan floor."""
        return self._busy_ns


class QueueingModel:
    """Virtual-time replay of the access stream through the service network.

    The runtime drives it with one call per coalesced access
    (:meth:`on_hit` / :meth:`on_miss`); :attr:`makespan_ns` afterwards is
    the simulated execution time.
    """

    def __init__(
        self,
        platform: PlatformModel,
        page_size: int,
        fault_concurrency: int,
        extra_fault_ns: float = 0.0,
        t2_move_ns: float = 0.0,
        ssd_read_bandwidth: float | None = None,
        ssd_write_bandwidth: float | None = None,
    ) -> None:
        self.platform = platform
        self.page_size = page_size
        self._arrival_ns = 0.0
        self._makespan_ns = 0.0
        self._fault_slots = SlotPool(fault_concurrency)
        self._nvme_slots = SlotPool(platform.nvme_queue_depth)
        self._ssd_read = FluidLink(ssd_read_bandwidth or platform.ssd_read_bandwidth)
        self._ssd_write = FluidLink(ssd_write_bandwidth or platform.ssd_write_bandwidth)
        self._pcie = FluidLink(platform.pcie_bandwidth)
        self._extra_fault_ns = extra_fault_ns
        self._t2_move_ns = t2_move_ns

    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> float:
        """The issue cursor (how far the GPU has pushed the stream)."""
        return self._arrival_ns

    @property
    def makespan_ns(self) -> float:
        """Completion time of the latest event, floored by every shared
        link's aggregate utilization (the fluid-bandwidth constraint).

        Reads and writes share the SSD device, so their busy times add."""
        return max(
            self._makespan_ns,
            self._arrival_ns,
            self._pcie.busy_ns,
            self._ssd_read.busy_ns + self._ssd_write.busy_ns,
        )

    def _advance_arrival(self) -> float:
        self._arrival_ns += self.platform.gpu_access_ns
        return self._arrival_ns

    # ------------------------------------------------------------------
    def on_hit(self) -> None:
        """A Tier-1 hit: consumes issue bandwidth, stalls nothing."""
        self._advance_arrival()

    def on_hits(self, count: int) -> None:
        """Retire ``count`` consecutive Tier-1 hits at once.

        Byte-identical to ``count`` calls to :meth:`on_hit`: the arrival
        cursor advances through the same sequence of float roundings
        (see :func:`repro.sim.cost.sequential_float_sum`), and hits touch
        no other model state.
        """
        from repro.sim.cost import sequential_float_sum

        self._arrival_ns = sequential_float_sum(
            self._arrival_ns, self.platform.gpu_access_ns, count
        )

    def on_miss(
        self,
        tier2_lookup: bool,
        tier2_hit: bool,
        writeback: bool = False,
        tier2_place: bool = False,
        tier2_evict: bool = False,
    ) -> float:
        """A demand miss with its eviction side effects; returns its
        completion time."""
        arrival = self._advance_arrival()
        start = self._fault_slots.admit(arrival)
        t = start + self._extra_fault_ns
        if tier2_lookup:
            t += self.platform.tier2_lookup_ns

        if tier2_hit:
            # Fetch the page from host memory over PCIe.
            t = self._pcie.transfer(t, self.page_size)
            t += self.platform.host_fetch_latency_ns + self._t2_move_ns
        else:
            # Fetch from the SSD through an NVMe command slot.
            cmd_start = self._nvme_slots.admit(t)
            finish = self._ssd_read.transfer(
                cmd_start + self.platform.ssd_read_latency_ns, self.page_size
            )
            self._nvme_slots.release(finish)
            t = finish

        # Eviction work on the critical path (synchronous orchestration).
        # The faulting warp waits for the victim's frame to be *handed
        # over* — command issue plus device latency — but outbound data
        # drains through staging buffers, so its wire time occupies the
        # device/link without blocking the chain (inbound fetches above,
        # by contrast, block until the data arrives).
        if tier2_evict:
            t += self.platform.tier2_eviction_ns
        if writeback:
            cmd_start = self._nvme_slots.admit(t)
            t = cmd_start + self.platform.ssd_write_latency_ns
            self._nvme_slots.release(t)
            self._ssd_write.transfer(t, self.page_size)
        if tier2_place:
            t += self._t2_move_ns
            self._pcie.transfer(t, self.page_size)

        self._fault_slots.release(t)
        if t > self._makespan_ns:
            self._makespan_ns = t
        return t

    def on_background_io(self, num_bytes: int, write: bool = False) -> None:
        """Traffic not on any miss's critical path (async evictions,
        prefetches): occupies device bandwidth only."""
        cursor = self._ssd_write if write else self._ssd_read
        cursor.transfer(self._arrival_ns, num_bytes)

    def on_background_pcie(self, num_bytes: int) -> None:
        """A Tier-1<->Tier-2 move off every miss's critical path (async or
        prefetch-triggered Tier-2 placements): occupies PCIe bandwidth
        only, like :meth:`on_background_io` does for the SSD."""
        self._pcie.transfer(self._arrival_ns, num_bytes)

    # ------------------------------------------------------------------
    # conservation probes (read-only; see repro.check.identities)
    # ------------------------------------------------------------------
    @property
    def ssd_read_busy_ns(self) -> float:
        """Aggregate SSD read wire time served so far."""
        return self._ssd_read.busy_ns

    @property
    def ssd_write_busy_ns(self) -> float:
        """Aggregate SSD write wire time served so far."""
        return self._ssd_write.busy_ns

    @property
    def pcie_busy_ns(self) -> float:
        """Aggregate PCIe wire time served so far."""
        return self._pcie.busy_ns
