"""One repetition of one benchmark workload, in the process that runs it.

``run.py`` spawns ``python3 worker.py WORKLOAD SEED TRACE SPAWN_T`` once
per rep, so every rep pays interpreter start, imports and trace
generation the way a CLI run does.  The worker prints one JSON line: the
rep record (ops, fingerprints, metrics and, when traced, spans).

Each workload drives ``repro`` through the entry points a user's tool
calls.  Set-up (imports, config, workload/population/runtime objects)
ends at the first timed call; ``setup_s`` runs from the parent's spawn
to that call.  The timed phase is the run plus its conformance audit.
Tracing shadows methods on instances, and module or class attributes
while the rep runs, from this file only; nothing in ``repro`` is edited.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import ExitStack

from spans import Spans, layer_self, self_times

KINDS = ("bam", "tier-order", "random", "reuse")

#: Fleet-wide request-latency SLO (the ``capacity`` experiment's).
SLO_P99_NS = 5_000_000.0

#: GMT-Reuse speedup over BaM per app as the paper reports it (Fig. 8a),
#: read off the "paper:" column of EXPERIMENTS.md §Figure 8: "Reuse +28%"
#: is 1.28, LavaMD's "GMT-Reuse -12%" is 0.88 and Pathfinder's "~1.25 all
#: policies" is 1.25.
PAPER_REUSE_SPEEDUP = {
    "lavamd": 0.88,
    "pathfinder": 1.25,
    "bfs": 1.28,
    "multivectoradd": 1.40,
    "srad": 2.33,
    "backprop": 2.79,
    "pagerank": 1.18,
    "sssp": 1.13,
    "hotspot": 2.25,
}

#: The four workloads.  Why each was chosen is in README.md and
#: BENCHMARK.json.  The sizes give each rep ~3 s on a 2-vCPU x86 VM, so
#: a 20 s run still gets three reps when a busy host halves its speed.
WORKLOADS: dict[str, dict] = {
    "paper-dense": {
        "kind": "paper",
        "apps": ("lavamd", "pathfinder", "multivectoradd", "srad", "backprop", "hotspot"),
        "scale": 2048,
    },
    "paper-graph": {"kind": "paper", "apps": ("bfs", "pagerank", "sssp"), "scale": 1024},
    "kv-hit": {"kind": "kv", "scale": 4096, "oversubscription": 0.15, "lookups": 1_250_000},
    "fleet-openloop": {
        "kind": "fleet",
        "scale": 4096,
        "tenants": 1024,
        "requests_per_tenant": 32,
        "rate_per_tenant": 64.0,
        "max_backlog": 256,
    },
}


def op_count(workload: str) -> int:
    """Ops one rep attempts: one per replay, or one per fleet run."""
    spec = WORKLOADS.get(workload, {})
    return len(spec["apps"]) * len(KINDS) if spec.get("kind") == "paper" else 1


def fingerprint(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()


def result_payload(result) -> dict:
    """What a replay's fingerprint covers."""
    return {"stats": result.stats.as_dict(), "elapsed_ns": result.elapsed_ns}


def audit(runtime, split: bool = False) -> str | None:
    """The conformance audit; the violations as text, or None."""
    from repro.check.identities import audit_runtime, audit_split

    violations = audit_runtime(runtime)
    if split:
        violations += audit_split(runtime.stats, runtime.tenant_stats)
    return "; ".join(map(str, violations)) or None


def counters(stats_list) -> dict[str, float]:
    """Per-layer counts summed over a rep's replays."""

    def total(name):
        return sum(getattr(s, name) for s in stats_list)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    return {
        "core.t1_misses": total("t1_misses"),
        "mem.t1_evictions": total("t1_evictions"),
        "mem.clock_retentions": total("clock_retentions"),
        "mem.t2_hit_ratio": ratio("t2_hits", "t2_lookups"),
        "reuse.prediction_accuracy": ratio("correct_predictions", "resolved_predictions"),
        "reuse.t2_placements": total("t2_placements"),
        "reuse.t2_bypasses": total("t2_full_bypasses"),
        "sim.ssd_page_reads": total("ssd_page_reads"),
        "sim.ssd_page_writes": total("ssd_page_writes"),
    }


class Paper:
    """Figure 8's replay matrix: ``harness.replay`` cells for ``apps`` x
    {bam, tier-order, random, reuse} through ``Engine(jobs=1,
    cache=None).run_cells``, each runtime audited afterwards.  Runtimes
    are captured by wrapping ``harness.build_runtime`` (the cells return
    only results, and the audit needs the live runtime)."""

    #: Layers this workload never calls; their per-layer metrics are 0.
    IDLE_LAYERS = ("obs", "serve")

    def __init__(self, spec, seed, spans, stack) -> None:
        from repro.experiments import harness

        self.spec, self.seed, self.spans = spec, seed, spans
        self.harness = harness
        # Already empty in a fresh worker; keeps in-process reps (the
        # self-tests) from being served by an earlier rep's results.
        harness.clear_caches()
        self.config = harness.default_config(spec["scale"])
        self.cells = [
            harness.replay(app, kind, self.config, seed=seed)
            for app in spec["apps"]
            for kind in KINDS
        ]
        self.runtimes = []
        build_runtime = harness.build_runtime

        def capture(*args, **kwargs):
            with spans.span("core.build"):
                runtime = build_runtime(*args, **kwargs)
            spans.wrap_method(runtime, "run", "core.replay")
            self.runtimes.append(runtime)
            return runtime

        # Undone by the rep's ExitStack.  (unittest.mock.patch would add
        # ~20 ms of asyncio imports to setup_s.)
        stack.callback(setattr, harness, "build_runtime", build_runtime)
        harness.build_runtime = capture

    def run(self) -> None:
        from repro.experiments.engine import Engine

        with self.spans.span("experiments.run_cells"):
            self.results = Engine(jobs=1, cache=None).run_cells(self.cells)
        with self.spans.span("check.audit"):
            self.errors = [audit(runtime) for runtime in self.runtimes]

    def report(self):
        if len(self.runtimes) != len(self.cells):
            raise RuntimeError(
                f"{len(self.runtimes)} runtimes built for {len(self.cells)} cells"
            )
        results = [self.results[cell] for cell in self.cells]
        ops = {
            cell.label: (fingerprint(result_payload(result)), error)
            for cell, result, error in zip(self.cells, results, self.errors)
        }
        by_label = dict(zip((cell.label for cell in self.cells), results))
        speedups = {
            app: by_label[f"{app}/reuse"].speedup_over(by_label[f"{app}/bam"])
            for app in self.spec["apps"]
        }
        accesses = sum(r.stats.coalesced_accesses for r in results)
        vector = sum(
            rt.stats.coalesced_accesses
            for rt in self.runtimes
            if rt.engine_resolution()[0] == "vector"
        )
        metrics = {
            "accesses": accesses,
            "sim_elapsed_s": sum(r.elapsed_ns for r in results) / 1e9,
            "sim_ssd_io_mb": sum(r.ssd_io_bytes for r in results) / 1e6,
            "sim_t1_hit_rate": sum(r.stats.t1_hits for r in results) / accesses,
            "core.vector_share": vector / accesses,
            "experiments.cells": len(self.cells),
            "experiments.reuse_speedup": statistics.fmean(speedups.values()),
            "experiments.paper_err": statistics.fmean(
                abs(s / PAPER_REUSE_SPEEDUP[app] - 1.0) for app, s in speedups.items()
            ),
            **counters([r.stats for r in results]),
        }
        return ops, metrics

    def extra(self, ops, metrics) -> tuple[dict, list]:
        """Phase shares from the sampled profiler on the bam and reuse
        cells.  The profiler drives the scalar engine, so its replay must
        also reproduce the vector replay's fingerprint."""
        from repro.prof import PHASES, profile_replay

        harness = self.harness
        phase_s = dict.fromkeys(PHASES, 0.0)
        wall = 0.0
        errors = []
        for app in self.spec["apps"]:
            workload = harness.get_workload(app, self.config, seed=self.seed)
            for kind in ("bam", "reuse"):
                prof, result = profile_replay(harness.build_runtime(kind, self.config), workload)
                label = f"{app}/{kind}"
                if fingerprint(result_payload(result)) != ops[label][0]:
                    errors.append([label, "scalar profiled replay differs from the run"])
                for phase, row in prof.report()["phases"].items():
                    phase_s[phase] = phase_s.get(phase, 0.0) + row["self_s"]
                wall += prof.wall_s
        metrics = {f"prof.{p}.share": phase_s[p] / wall for p in PHASES}
        metrics["prof.unattributed.share"] = 1.0 - sum(phase_s.values()) / wall
        metrics["prof.scalar_wall_s"] = wall
        return metrics, errors


class KeyValue:
    """A zipf key-value store whose hot set fits Tier-1, replayed once
    through GMT-Reuse with windowed ``Telemetry`` attached."""

    IDLE_LAYERS = ("experiments", "prof", "serve")

    def __init__(self, spec, seed, spans, stack) -> None:
        from repro.experiments import harness
        from repro.obs import Telemetry
        from repro.workloads.registry import make_workload

        self.spans = spans
        self.harness = harness
        self.config = harness.default_config(spec["scale"])
        self.workload = make_workload(
            "keyvalue", self.config, spec["oversubscription"], seed=seed,
            lookups=spec["lookups"],
        )
        self.runtime = harness.build_runtime("reuse", self.config)
        self.telemetry = Telemetry()
        self.runtime.attach_telemetry(self.telemetry)
        spans.wrap_method(self.runtime, "run", "core.replay")

    def run(self) -> None:
        self.result = self.runtime.run(self.workload)
        with self.spans.span("check.audit"):
            self.error = audit(self.runtime)

    def report(self):
        stats = self.result.stats
        ops = {"keyvalue/reuse": (fingerprint(result_payload(self.result)), self.error)}
        metrics = {
            "accesses": stats.coalesced_accesses,
            "sim_elapsed_s": self.result.elapsed_ns / 1e9,
            "sim_ssd_io_mb": self.result.ssd_io_bytes / 1e6,
            "sim_t1_hit_rate": stats.t1_hit_rate,
            "core.vector_share": float(self.runtime.engine_resolution()[0] == "vector"),
            "obs.windows": len(self.telemetry.windows()),
            **counters([stats]),
        }
        return ops, metrics

    def extra(self, ops, metrics) -> tuple[dict, list]:
        """Replay the same materialized trace without telemetry: the time
        difference is the telemetry's share of the traced replay, and the
        counters must match."""
        from repro.core.vector import materialize_trace

        bare = self.harness.build_runtime("reuse", self.config)
        trace = materialize_trace(self.workload)
        start = time.monotonic()
        result = bare.run(trace)
        bare_s = time.monotonic() - start
        errors = []
        if fingerprint(result_payload(result)) != ops["keyvalue/reuse"][0]:
            errors.append(["keyvalue/reuse", "replay without telemetry differs"])
        return {"obs.overhead_share": 1.0 - bare_s / metrics["core.replay_s"]}, errors


class Fleet:
    """The ``capacity`` experiment's 1024-tenant point, run longer: a zipf
    ``TenantPopulation`` under Poisson arrivals through
    ``OpenLoopServer.run``, audited with ``assert_conformant`` identities
    plus ``audit_split``."""

    IDLE_LAYERS = ("experiments", "prof", "obs")

    def __init__(self, spec, seed, spans, stack) -> None:
        from repro.experiments.harness import default_config
        from repro.serve import OpenLoopConfig, OpenLoopServer, TenantPopulation

        self.spans = spans
        tenants = spec["tenants"]
        population = TenantPopulation(tenants, seed=seed, slo_p99_ns=SLO_P99_NS)
        loop = OpenLoopConfig(
            requests=spec["requests_per_tenant"] * tenants,
            arrival_rate_per_s=spec["rate_per_tenant"] * tenants,
            seed=seed,
            max_backlog=spec["max_backlog"],
        )
        self.server = OpenLoopServer(default_config(spec["scale"]), population, loop)
        spans.tally_method(self.server.runtime, "access_warp", "core.access_warp")
        spans.tally_method(self.server.admission, "observe", "serve.admission")
        if spans.enabled:
            # The serving loop pulls warps from iter(stream), which looks
            # __iter__ up on the class, so the class is patched for the rep.
            from repro.serve.stream import TenantStream

            iterate = TenantStream.__iter__

            def tallied_iter(stream):
                step = spans.tally(iterate(stream).__next__, "workloads.trace")
                while True:
                    try:
                        yield step()
                    except StopIteration:
                        return

            stack.callback(setattr, TenantStream, "__iter__", iterate)
            TenantStream.__iter__ = tallied_iter

    def run(self) -> None:
        with self.spans.span("serve.run"):
            self.outcome = self.server.run()
        with self.spans.span("check.audit"):
            self.error = audit(self.server.runtime, split=True)

    def report(self):
        out = self.outcome
        stats = self.server.runtime.stats
        digest = out.latency.to_dict()
        payload = {
            **result_payload(out.result),
            "requests": [out.arrived, out.admitted, out.shed, out.completed],
            "makespan_ns": out.makespan_ns,
            "latency": digest,
        }
        gamma = (1 + digest["relative_error"]) / (1 - digest["relative_error"])
        slo_key = math.ceil(math.log(SLO_P99_NS) / math.log(gamma))
        late = sum(n for key, n in digest["bins"].items() if int(key) > slo_key)
        metrics = {
            "accesses": stats.coalesced_accesses,
            # Requests pull each generated warp exactly once.
            "workloads.accesses": stats.coalesced_accesses,
            "sim_elapsed_s": out.makespan_ns / 1e9,
            "sim_ssd_io_mb": stats.io_bytes(self.server.config.page_size) / 1e6,
            "sim_t1_hit_rate": stats.t1_hit_rate,
            "core.vector_share": float(self.server.engine_resolution()[0] == "vector"),
            "serve.requests_admitted": out.admitted,
            "serve.requests_shed": out.shed,
            "serve.requests_completed": out.completed,
            "serve.pressure_findings": out.pressure_findings,
            "serve.req_p50_ms": (out.p50_ns or 0.0) / 1e6,
            "serve.req_p99_ms": (out.p99_ns or 0.0) / 1e6,
            "serve.slo_miss_rate": (out.shed + late) / out.arrived,
            **counters([stats]),
        }
        return {"fleet/openloop": (fingerprint(payload), self.error)}, metrics

    def extra(self, ops, metrics) -> tuple[dict, list]:
        return {}, []


BENCHES = {"paper": Paper, "kv": KeyValue, "fleet": Fleet}


def span_metrics(doc: dict, metrics: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from a rep's spans, and each layer's self time
    as a share of the traced wall (the ``rep`` span)."""
    own, tallied = self_times(doc)
    spans = doc["spans"]
    root = next(sid for sid, name, *_ in spans if name == "rep")
    wall = spans[root][3] - spans[root][2]
    layers = layer_self(doc)
    serve_self = sum((own[sid] for sid, name, *_ in spans if name == "serve.run"), 0.0)
    trace_s = layers.get("workloads", 0.0)
    core_s = layers.get("core", 0.0)
    misses = metrics["core.t1_misses"]
    generated = metrics["workloads.accesses"]
    out = {
        "trace.coverage": 1.0 - own[root] / wall,
        "workloads.trace_s": trace_s,
        "workloads.trace_share": trace_s / wall,
        "workloads.ns_per_access": trace_s / generated * 1e9 if generated else 0.0,
        "core.replay_s": core_s,
        "core.replay_share": core_s / wall,
        "core.ns_per_access": core_s / metrics["accesses"] * 1e9,
        "core.us_per_miss": core_s / misses * 1e6 if misses else 0.0,
        "experiments.self_share": layers.get("experiments", 0.0) / wall,
        "check.audit_s": layers.get("check", 0.0),
        "serve.admission_share": tallied.get("serve.admission", 0.0) / wall,
        "serve.self_share": serve_self / wall,
    }
    return out, {layer: seconds / wall for layer, seconds in layers.items()}


def run_rep(
    workload: str,
    seed: int,
    trace: bool,
    spawn_t: float | None = None,
    sizes: dict | None = None,
) -> dict:
    """Run one rep in this process and return its record.

    ``sizes`` overrides entries of the workload's spec (the self-tests
    shrink the runs with it); ``spawn_t`` is the parent's ``monotonic()``
    at spawn, which starts ``setup_s``.
    """
    entered = time.monotonic()
    spec = {**WORKLOADS[workload], **(sizes or {})}
    spans = Spans(enabled=trace)
    generated = {}
    with ExitStack() as stack:
        if trace:
            import repro.core.vector as vector

            materialize = vector.materialize_trace

            def traced_materialize(w):
                with spans.span("workloads.trace"):
                    arrays = materialize(w)
                generated[id(arrays)] = len(arrays.pages)
                return arrays

            stack.callback(setattr, vector, "materialize_trace", materialize)
            vector.materialize_trace = traced_materialize
        bench = BENCHES[spec["kind"]](spec, seed, spans, stack)
        first_call = time.monotonic()
        with spans.span("rep"):
            bench.run()
        wall_s = time.monotonic() - first_call
    ops, metrics = bench.report()
    metrics.update(
        wall_s=wall_s,
        acc_per_s=metrics["accesses"] / wall_s,
        setup_s=first_call - (entered if spawn_t is None else spawn_t),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    errors = [[label, error] for label, (_, error) in ops.items() if error]
    record = {"workload": workload, "seed": seed, "trace": trace, "n_ops": len(ops)}
    if trace:
        metrics.setdefault("workloads.accesses", sum(generated.values()))
        doc = spans.to_dict()
        layer_metrics, record["layers"] = span_metrics(doc, metrics)
        metrics.update(layer_metrics)
        extra, extra_errors = bench.extra(ops, metrics)
        metrics.update(extra)
        errors += extra_errors
        record["spans"] = doc
    record.update(
        fingerprints={label: fp for label, (fp, _) in ops.items()},
        errors=errors,
        metrics=metrics,
    )
    return record


if __name__ == "__main__":
    name, seed_arg, trace_arg, spawn_arg = sys.argv[1:5]
    print(json.dumps(run_rep(name, int(seed_arg), trace_arg == "1", float(spawn_arg))))
