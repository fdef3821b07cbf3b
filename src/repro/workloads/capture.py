"""Capture and replay of warp traces (compressed npz format).

Trace generation can dominate experiment time (graph construction, jitter
shuffling), and reproducing a bug needs the *exact* access stream.  This
module serialises any workload's warp stream to a compact compressed file
and replays it as a first-class :class:`~repro.workloads.trace.Workload`:

>>> from repro.workloads.capture import save_trace, load_trace
>>> summary = save_trace(make_workload("srad", config), "srad.npz")
>>> replay = load_trace("srad.npz")
>>> GMTRuntime(config).run(replay)   # identical to running the original

Format (npz, version 1): the workload's
:class:`~repro.workloads.trace.WarpColumns` — ``pages`` (its ``lanes``,
int64, all lanes concatenated), ``lengths`` (int32 lanes per warp),
``writes`` (bool per warp) — and ``meta`` (JSON string with
name/description/footprint).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.workloads.trace import WarpColumns, Workload

_FORMAT_VERSION = 1


def save_trace(workload: Workload, path: str | Path) -> dict:
    """Serialise ``workload``'s columns to ``path``.

    Returns a summary dict (warps, lane accesses, bytes on disk).
    """
    trace = workload.columns()
    if not trace.n_warps:
        raise TraceError(f"workload {workload.name!r} produced an empty trace")
    meta = {
        "version": _FORMAT_VERSION,
        "name": workload.name,
        "description": workload.description,
        "footprint_pages": workload.footprint_pages,
        "seed": workload.seed,
    }
    path = Path(path)
    np.savez_compressed(
        path,
        pages=trace.lanes,
        lengths=trace.lengths.astype(np.int32),
        writes=trace.writes,
        meta=np.array(json.dumps(meta)),
    )
    return {
        "warps": trace.n_warps,
        "lane_accesses": len(trace.lanes),
        "bytes": path.stat().st_size,
        "path": str(path),
    }


class RecordedWorkload(Workload):
    """A workload replayed from a captured trace file."""

    def __init__(self, pages: np.ndarray, lengths: np.ndarray, writes: np.ndarray, meta: dict) -> None:
        super().__init__(int(meta["footprint_pages"]), int(meta.get("seed", 0)))
        self.name = meta["name"]
        self.description = meta.get("description", "")
        self._columns = WarpColumns(pages, lengths, writes)

    @property
    def num_warps(self) -> int:
        return self._columns.n_warps

    def columns(self) -> WarpColumns:
        return self._columns


def load_trace(path: str | Path) -> RecordedWorkload:
    """Load a trace captured with :func:`save_trace`."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no trace file at {path}")
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"]))
            pages = data["pages"]
            lengths = data["lengths"]
            writes = data["writes"]
        except KeyError as missing:
            raise TraceError(f"corrupt trace file {path}: missing {missing}") from None
    version = meta.get("version")
    if version != _FORMAT_VERSION:
        raise TraceError(
            f"trace {path} has format version {version}; expected {_FORMAT_VERSION}"
        )
    return RecordedWorkload(pages=pages, lengths=lengths, writes=writes, meta=meta)
