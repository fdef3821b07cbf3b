"""Backprop: layer-by-layer forward pass and backward propagation (Rodinia).

Table 2 shape: **93.54 % page reuse** (the suite's highest), Tier-2-biased
RRDs, and the largest total I/O (6 823 GB — many epochs over the weights).
GMT-Reuse's best result (179 % over BaM, 81 % less SSD I/O) comes from
keeping the palindromically swept weight pages in host memory.

Each epoch sweeps the network's weight pages forward (inference) and then
backward (gradient update, dirtying them).  The palindrome gives every
page two characteristic reuse distances — short near the turnaround,
growing toward the far end — so a large share of Tier-1 evictions land in
the medium (host-memory) class.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload


class BackpropWorkload(Workload):
    """Epochs of forward+backward palindromic sweeps over weight pages."""

    name = "Backprop"
    description = "ML training, forward pass + backward propagation (Rodinia)"

    def __init__(
        self,
        footprint_pages: int,
        epochs: int = 8,
        weight_fraction: float = 0.93,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if epochs < 1:
            raise TraceError(f"epochs must be >= 1, got {epochs}")
        if not 0.0 < weight_fraction <= 1.0:
            raise TraceError(f"weight_fraction must be in (0, 1]: {weight_fraction}")
        self.epochs = epochs
        self.weight_pages = max(2, int(footprint_pages * weight_fraction))
        self.input_pages = footprint_pages - self.weight_pages

    def columns(self) -> WarpColumns:
        weight_base = self.input_pages
        weights = range(weight_base, weight_base + self.weight_pages)
        per_epoch_inputs = (
            max(1, self.input_pages // self.epochs) if self.input_pages else 0
        )
        trace = TraceBuilder()
        for epoch in range(self.epochs):
            # This epoch's minibatch inputs: fresh pages, read once.
            if per_epoch_inputs:
                first = (epoch * per_epoch_inputs) % max(1, self.input_pages)
                last = min(first + per_epoch_inputs, self.input_pages)
                trace.stream(range(first, last))
            # Forward pass: read weights layer by layer.
            trace.stream(weights)
            # Backward pass: update weights in reverse layer order.
            trace.stream(weights[::-1], write=True)
        return trace.build()
