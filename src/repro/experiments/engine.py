"""Parallel, cache-aware experiment engine.

The evaluation loop decomposes every table/figure into independent
**cells** — one :class:`Cell` per workload x policy x scale x platform
combination — and this module executes them:

- :class:`Cell` names a pure, importable function plus its (picklable)
  keyword arguments; executing the same cell twice always produces the
  same value, so cells are safe to cache and to farm out to worker
  processes.
- :func:`cell_key` derives a stable content hash of (function path,
  canonicalised parameters — including the full
  :class:`~repro.core.config.GMTConfig` — and a code-version salt).
  Overlapping sweeps (fig8/fig9/fig10/fig14 share most of their replay
  matrix) therefore collapse onto the same keys.
- :class:`ResultCache` is the content-addressed on-disk store
  (``~/.cache/gmt-results`` by default, override with ``GMT_CACHE_DIR``).
  Interrupted ``gmt-experiments all`` runs resume from it: completed
  cells are never re-executed.
- :class:`Engine` runs the missing cells — serially or on a
  ``ProcessPoolExecutor`` (``jobs > 1``) with deterministic seeding (all
  randomness flows from the seeds already inside each cell's params) —
  and emits per-cell progress lines and counts cache hits and misses in
  :class:`EngineStats`.

The parallel path is bit-equal to the serial path: cells are pure
functions of their parameters, and reduction order is fixed by the cell
list, not by completion order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.harness import RunOptions

#: Bumped whenever the cell/result encoding changes incompatibly.
SCHEMA_VERSION = "gmt-cells-v1"

#: Default on-disk cache location (``GMT_CACHE_DIR`` overrides).
DEFAULT_CACHE_DIR = "~/.cache/gmt-results"


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One independent unit of experimental work.

    Attributes:
        fn: dotted path ``"package.module:function"`` of a top-level
            function; workers import it, so it must not be a closure.
        params: keyword arguments as a sorted tuple of ``(name, value)``
            pairs.  Values must be picklable and hashable (str, numbers,
            tuples, frozen dataclasses such as ``GMTConfig``).
        label: human-readable progress label; excluded from identity.
    """

    fn: str
    params: tuple = ()
    label: str = field(default="", compare=False)

    @classmethod
    def make(cls, fn: str, label: str = "", **params) -> "Cell":
        """Build a cell with canonically ordered params."""
        if ":" not in fn:
            raise ConfigError(f"cell fn must be 'module:function', got {fn!r}")
        return cls(fn=fn, params=tuple(sorted(params.items())), label=label)

    def kwargs(self) -> dict:
        return dict(self.params)

    def __repr__(self) -> str:  # keep progress lines short
        return f"Cell({self.label or self.fn})"


def _canonical(value):
    """A JSON-encodable, deterministic view of a cell parameter value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__dataclass__": type(value).__qualname__}
        for f in dataclasses.fields(value):
            out[f.name] = _canonical(getattr(value, f.name))
        return out
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)  # full precision, distinguishes 1.0 from 1
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


_code_salt_cache: str | None = None


def code_salt() -> str:
    """Hash of every ``repro`` source file — the cache's code-version salt.

    Any edit to the package invalidates all cached cells, so a stale
    cache can never mask a code change.  ``GMT_CACHE_SALT`` overrides
    (useful for tests and for pinning across installs).
    """
    global _code_salt_cache
    override = os.environ.get("GMT_CACHE_SALT")
    if override:
        return override
    if _code_salt_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256(SCHEMA_VERSION.encode())
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _code_salt_cache = digest.hexdigest()[:16]
    return _code_salt_cache


def cell_key(cell: Cell, salt: str | None = None) -> str:
    """Stable content hash identifying ``cell``'s value."""
    payload = {
        "schema": SCHEMA_VERSION,
        "salt": salt if salt is not None else code_salt(),
        "fn": cell.fn,
        "params": _canonical(dict(cell.params)),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def execute_cell(cell: Cell):
    """Import and run one cell (also the worker-process entry point)."""
    module_name, _, func_name = cell.fn.partition(":")
    fn = getattr(importlib.import_module(module_name), func_name)
    return fn(**cell.kwargs())


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
_MISS = object()


class ResultCache:
    """Content-addressed pickle store: one file per cell key.

    Keys are hex digests from :func:`cell_key`; entries live at
    ``<root>/<key[:2]>/<key>.pkl``.  Writes are atomic (tempfile +
    rename) so a killed sweep never leaves a torn entry, and corrupt or
    unreadable entries read as misses.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get("GMT_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root).expanduser()

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached value, or the module-level ``_MISS`` sentinel."""
        try:
            with open(self.path(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return _MISS

    def put(self, key: str, value) -> bool:
        """Store ``value``; returns False if it cannot be pickled."""
        target = self.path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            payload = pickle.dumps(value)
        except Exception:
            return False
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass
class EngineStats:
    """Hit/miss accounting for one :class:`Engine` (cumulative)."""

    cells: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    executed: int = 0
    failures: int = 0

    @property
    def hits(self) -> int:
        return self.memo_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.cells if self.cells else 0.0

    def summary(self) -> str:
        return (
            f"cells={self.cells} memo_hits={self.memo_hits} "
            f"disk_hits={self.disk_hits} executed={self.executed} "
            f"hit_rate={self.hit_rate:.2f}"
        )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
#: Process-wide memo shared by every Engine (unless one is given its
#: own): figures sharing cells within one process pay for them once.
_GLOBAL_MEMO: dict[str, object] = {}


def clear_memo() -> None:
    """Drop the process-wide cell memo (tests use this for isolation)."""
    _GLOBAL_MEMO.clear()


class Engine:
    """Executes cells with memoisation, disk caching and parallelism.

    Args:
        jobs: worker processes; 1 (the default) runs in-process.
        cache: a :class:`ResultCache`, or None for no disk cache.
        force: re-execute cells even when cached (results still stored).
        memo: in-process memo dict; None shares the process-wide memo.
        progress: optional callable receiving one line per cell event.
        options: the :class:`~repro.experiments.harness.RunOptions` the
            cells run under (in-run audits, telemetry export, anomaly
            scan); None means the defaults.  They are installed
            only while this engine executes cells, in-process or in its
            pool workers, and the previous options are restored after.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        force: bool = False,
        memo: dict | None = None,
        progress: Callable[[str], None] | None = None,
        options: RunOptions | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.force = force
        self.memo = _GLOBAL_MEMO if memo is None else memo
        self.progress = progress
        if options is None:
            from repro.experiments.harness import RunOptions

            options = RunOptions()
        self.options = options
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def run_cells(self, cells: Sequence[Cell], group: str = "") -> dict[Cell, object]:
        """Execute ``cells`` (deduplicated), returning ``{cell: value}``.

        Cached cells are served from the memo, then the disk cache;
        the rest run serially or on the process pool.  The mapping
        preserves first-seen cell order.
        """
        salt = code_salt()
        unique: dict[Cell, str] = {}
        for cell in cells:
            if cell not in unique:
                unique[cell] = cell_key(cell, salt=salt)

        results: dict[Cell, object] = {}
        pending: list[Cell] = []
        for cell, key in unique.items():
            self.stats.cells += 1
            if not self.force:
                if key in self.memo:
                    results[cell] = self.memo[key]
                    self.stats.memo_hits += 1
                    continue
                if self.cache is not None:
                    value = self.cache.get(key)
                    if value is not _MISS:
                        self.memo[key] = value
                        results[cell] = value
                        self.stats.disk_hits += 1
                        continue
            pending.append(cell)

        if pending:
            from repro.experiments.harness import install_options

            tag = f"{group} " if group else ""
            self._emit(
                f"[{tag}engine] {len(pending)}/{len(unique)} cells to run "
                f"({len(unique) - len(pending)} cached), jobs={self.jobs}"
            )
            previous = install_options(self.options)
            try:
                for index, (cell, value) in enumerate(self._execute(pending), 1):
                    key = unique[cell]
                    self.memo[key] = value
                    if self.cache is not None:
                        self.cache.put(key, value)
                    results[cell] = value
                    self.stats.executed += 1
                    self._emit(
                        f"[{tag}{index}/{len(pending)}] ran {cell.label or cell.fn}"
                    )
            finally:
                install_options(previous)

        # Preserve first-seen order for deterministic reduction.
        return {cell: results[cell] for cell in unique}

    def _execute(self, pending: list[Cell]) -> Iterable[tuple[Cell, object]]:
        if self.jobs > 1 and len(pending) > 1:
            from repro.experiments.harness import install_options

            workers = min(self.jobs, len(pending))
            try:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=install_options,
                    initargs=(self.options,),
                ) as pool:
                    yield from self._consume(pending, pool.map(execute_cell, pending))
                    return
            except (OSError, PermissionError) as exc:
                # Sandboxes without process spawning fall back to serial.
                self._emit(f"[engine] process pool unavailable ({exc}); running serially")
        yield from self._consume(pending, map(execute_cell, pending))

    def _consume(self, pending, values) -> Iterable[tuple[Cell, object]]:
        iterator = iter(values)
        for cell in pending:
            try:
                value = next(iterator)
            except StopIteration:  # pragma: no cover - map length mismatch
                raise
            except Exception:
                self.stats.failures += 1
                raise
            yield cell, value


def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    engine: Engine | None = None,
) -> list:
    """Convenience wrapper: execute ``cells``, return values in order."""
    engine = engine if engine is not None else Engine(jobs=jobs, cache=cache, force=force)
    results = engine.run_cells(list(cells))
    return [results[cell] for cell in cells]
