"""Srad: speckle-reducing anisotropic diffusion, 4-neighbor grid (Rodinia).

Table 2 shape: **83.38 % page reuse**, Tier-2-biased RRDs, and one of
GMT-Reuse's two biggest wins (133 % over BaM) via a 73 % SSD-I/O cut.

Srad runs two kernels per iteration (gradient/coefficient, then update)
over the image.  The GPU scheduler processes the image in large chunks;
within a chunk, kernel 2 re-reads what kernel 1 produced at a reuse
distance of one chunk — larger than GPU memory, comfortably inside
GPU+host memory.  Between iterations the whole image recurs at a long
distance, so per-page RRDs *alternate* between medium and long, exercising
the Markov predictor's 2-level history.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.workloads.trace import TraceBuilder, WarpColumns, Workload


class SradWorkload(Workload):
    """Iterated two-kernel stencil over a chunked image."""

    name = "Srad"
    description = "Image processing, 4 grid neighbor accesses (Rodinia)"

    def __init__(
        self,
        footprint_pages: int,
        iterations: int = 4,
        chunk_fraction: float = 0.30,
        image_fraction: float = 0.84,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if iterations < 1:
            raise TraceError(f"iterations must be >= 1, got {iterations}")
        if not 0.0 < chunk_fraction <= 1.0:
            raise TraceError(f"chunk_fraction must be in (0, 1]: {chunk_fraction}")
        if not 0.0 < image_fraction <= 1.0:
            raise TraceError(f"image_fraction must be in (0, 1]: {image_fraction}")
        self.iterations = iterations
        self.image_pages = max(2, int(footprint_pages * image_fraction))
        self.chunk_pages = max(1, int(footprint_pages * chunk_fraction))
        self.cold_pages = footprint_pages - self.image_pages

    def columns(self) -> WarpColumns:
        image_base = self.cold_pages
        trace = TraceBuilder()
        # One-time setup data (coefficients, borders): read once, never again.
        trace.stream(range(self.cold_pages))
        for _ in range(self.iterations):
            for chunk_start in range(0, self.image_pages, self.chunk_pages):
                chunk_end = min(chunk_start + self.chunk_pages, self.image_pages)
                chunk = range(image_base + chunk_start, image_base + chunk_end)
                # Kernel 1: statistics/reduction over the chunk (reads).
                trace.stream(chunk)
                # Kernel 2: gradients/diffusion coefficients (reads).
                trace.stream(chunk)
                # Kernel 3: image update (read-modify-write).
                trace.stream(chunk, write=True)
        return trace.build()
