"""End-to-end benchmark of the GMT simulator.

Runs the named workloads through the library's public entry points, one
fresh worker process per rep (``worker.py``), and prints every metric in
``BENCHMARK.json`` by name and unit, then one JSON result line::

    python3 e2ebench/run.py --workload paper-dense --seed 0 --seconds 20 --trace 0

With no ``--workload`` all four run, their reps interleaved round-robin so
a burst of host noise hits one rep of each rather than every rep of one.
Reps repeat until ``--seconds`` is spent, never fewer than three; values
are medians over reps.  ``--trace 1`` alternates traced and untraced reps
(traced first, never fewer than one of each): per-layer metrics come from
the traced ones, and ``trace.overhead_s`` is the traced minus the
untraced median wall.  The spans are written as Chrome-trace JSON under
``e2ebench/out/``.

A rep fails an op when the op raises, violates a conformance identity, or
its result fingerprint differs from the other reps'.  The exit code is 0
only when no op failed; a run that cannot start prints no result.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Rounds of reps for end-to-end medians; a traced run needs only one
#: traced and one untraced round.
MIN_REPS = 3
MIN_TRACED_ROUNDS = 2
#: Kill a worker that runs this long; a rep takes ~3 s.
REP_TIMEOUT_S = 120


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn_rep(workload: str, seed: int, trace: bool) -> dict:
    """Run one rep in a fresh interpreter; a crash becomes a record whose
    every op failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # NumPy asks for transparent huge pages, which the kernel grants only
    # while the host's memory is unfragmented: kv-hit's peak RSS then
    # moved by up to 6 % from one hour to the next.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            "1" if trace else "0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=REP_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        crash = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
    except subprocess.TimeoutExpired:
        crash = [f"no result after {REP_TIMEOUT_S} s"]
    return {"workload": workload, "seed": seed, "trace": trace,
            "n_ops": worker.op_count(workload), "crash": crash[0]}


def failed_ops(records: list[dict]) -> list[set]:
    """Labels of the failed ops of each rep: crashed, erroneous, or with a
    fingerprint that differs from the most common one across reps."""
    seen = collections.defaultdict(collections.Counter)
    for r in records:
        for label, fp in r.get("fingerprints", {}).items():
            seen[label][fp] += 1
    usual = {label: counts.most_common(1)[0][0] for label, counts in seen.items()}
    failed = []
    for r in records:
        if "crash" in r:
            failed.append({f"op{i}" for i in range(r["n_ops"])})
            continue
        bad = {label for label, _ in r["errors"]}
        bad |= {label for label, fp in r["fingerprints"].items() if fp != usual[label]}
        failed.append(bad)
    return failed


def metric(values: list[float], unit: str) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def summarize(records: list[dict], bench: dict) -> dict:
    """Medians and quartiles of every ``BENCHMARK.json`` metric over one
    workload's reps, with its op accounting."""
    failed = sum(len(bad) for bad in failed_ops(records))
    attempted = sum(r["n_ops"] for r in records)
    done = [r for r in records if "crash" not in r]
    plain = [r for r in done if not r["trace"]]
    traced = [r for r in done if r["trace"]]
    metrics = {}
    if plain:
        for m in bench["end_to_end"]:
            metrics[m["name"]] = metric([r["metrics"][m["name"]] for r in plain], m["unit"])
    if traced:
        idle = worker.BENCHES[worker.WORKLOADS[traced[0]["workload"]]["kind"]].IDLE_LAYERS
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                if plain:
                    walls = [r["metrics"]["wall_s"] for r in traced]
                    base = statistics.median(r["metrics"]["wall_s"] for r in plain)
                    metrics[name] = metric([w - base for w in walls], m["unit"])
            elif spans.layer_of(name) in idle:
                metrics[name] = metric([0.0] * len(traced), m["unit"])
            else:
                metrics[name] = metric([r["metrics"][name] for r in traced], m["unit"])
    layers = collections.defaultdict(list)
    for r in traced:
        for layer, share in r["layers"].items():
            layers[layer].append(share)
    prints = sorted(set().union(*(r["fingerprints"].items() for r in done))) if done else []
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "fingerprint": hashlib.sha256(json.dumps(prints).encode()).hexdigest(),
        "metrics": metrics,
        "layers": {layer: statistics.median(v) for layer, v in layers.items()},
        "errors": [r["crash"] for r in records if "crash" in r]
        + [f"{label}: {msg}" for r in done for label, msg in r["errors"]],
    }


def run(workloads: list[str], seed: int, seconds: float, trace: bool) -> dict[str, list]:
    """Spawn reps round-robin over ``workloads`` until ``seconds`` is
    spent (at least :data:`MIN_REPS` rounds, or :data:`MIN_TRACED_ROUNDS`
    when tracing); stop early on a crash."""
    records = {w: [] for w in workloads}
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_REPS
    start = time.monotonic()
    rounds = 0
    while True:
        rep_trace = trace and rounds % 2 == 0
        for w in workloads:
            r = spawn_rep(w, seed, rep_trace)
            records[w].append(r)
            status = r.get("crash") or (
                f"setup {r['metrics']['setup_s']:.3f} s  wall {r['metrics']['wall_s']:.3f} s"
                f"  errors {len(r['errors'])}"
            )
            print(f"[rep {rounds + 1}] {w} seed={seed}{' traced' if rep_trace else ''}  {status}")
        rounds += 1
        elapsed = time.monotonic() - start
        if any("crash" in records[w][-1] for w in workloads):
            break
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break
    return records


def write_chrome_trace(path: Path, records: dict[str, list]) -> None:
    """All traced reps on one timeline (workers share the parent's
    monotonic clock): one process per workload, one thread lane per rep."""
    traced = [(pid, w, i, r["spans"]) for pid, (w, reps) in enumerate(records.items(), 1)
              for i, r in enumerate(reps) if "spans" in r]
    if not traced:
        return
    origin = min(doc["spans"][0][2] for *_, doc in traced)
    events = []
    for pid, w, i, doc in traced:
        events += spans.chrome_events(doc, w, i, origin, pid)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(worker.WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds every generator: traces, population, arrivals")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding reps until this much time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced reps")
    parser.add_argument("--json-out", metavar="PATH",
                        help="write medians, quartiles and every rep record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    workloads = args.workload or list(worker.WORKLOADS)
    records = run(workloads, args.seed, args.seconds, bool(args.trace))
    if all("crash" in r for reps in records.values() for r in reps):
        print("run.py: every rep crashed; no result", file=sys.stderr)
        return 1
    summaries = {w: summarize(reps, bench) for w, reps in records.items()}

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(f"\n{'workload':<15} {'metric':<28} {'median':>14} {'unit':<6} "
          f"{'q1':>14} {'q3':>14}  n")
    result_metrics = {}
    for w, s in summaries.items():
        for m in wanted:
            stat = s["metrics"].get(m["name"])
            if stat is None:
                continue
            print(f"{w:<15} {m['name']:<28} {stat['value']:>14.6g} {stat['unit']:<6} "
                  f"{stat['q1']:>14.6g} {stat['q3']:>14.6g}  {stat['n']}")
            key = m["name"] if len(workloads) == 1 else f"{w}/{m['name']}"
            result_metrics[key] = {"value": stat["value"], "unit": stat["unit"]}
        if s["layers"]:
            shares = sorted(s["layers"].items(), key=lambda kv: -kv[1])
            print(f"{w:<15} share of traced wall: "
                  + ", ".join(f"{layer} {share:.1%}" for layer, share in shares))
        print(f"{w:<15} ops {s['attempted']} attempted, {s['failed']} failed; "
              f"fingerprint {s['fingerprint'][:16]}")
        for error in s["errors"]:
            print(f"{w:<15} FAILED {error}")

    if args.trace:
        name = workloads[0] if len(workloads) == 1 else "all"
        path = HERE / "out" / f"{name}-seed{args.seed}.trace.json"
        write_chrome_trace(path, records)
        print(f"spans: {path}")
    if args.json_out:
        for reps in records.values():
            for r in reps:
                r.pop("spans", None)
        doc = {"seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
               "workloads": {w: {**s, "reps": records[w]} for w, s in summaries.items()}}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
