"""Compare two result files written by ``run.py --json-out``.

    python3 e2ebench/compare.py A.json B.json

For each (workload, metric) present in both files it prints A's and B's
medians and quartiles and a verdict on B against A, with the bounds and
directions from ``BENCHMARK.json``:

- ``unresolved`` -- either side's spread (q3 - q1 as a share of its
  median) exceeds the bound, and not every B value beats every A value;
- ``worse`` / ``better`` -- B's median is worse / better than A's by more
  than the bound (a share of A's median);
- ``within bound`` -- otherwise.

The modelled ``sim_*`` metrics and the result fingerprints are
deterministic in the seed.  When A and B ran the same seed they must
match exactly: a ``sim_*`` median that moves at all reads ``changed``,
and so does a fingerprint that differs.  Their bounds in
``BENCHMARK.json`` apply only across seeds.

Per-layer metrics have no bound and are listed without a verdict.  The
exit code is 1 when any metric is worse or changed, a fingerprint
changed, or B's fail rate is higher.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(stat: dict) -> float:
    width = stat["q3"] - stat["q1"]
    return width / abs(stat["value"]) if stat["value"] else (0.0 if not width else float("inf"))


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a["values"] for y in b["values"]):
            return "better"
        return "unresolved"
    change = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(a_doc: dict, b_doc: dict, bench: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed against A."""
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    order = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    same_seed = a_doc["seed"] == b_doc["seed"]
    lines, regressed = [], False
    for workload, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(workload)
        if b is None:
            lines.append(f"{workload}: missing from B")
            continue
        same = a["fingerprint"] == b["fingerprint"]
        lines.append(
            f"{workload}: fail rate {a['fail_rate']:.3g} -> {b['fail_rate']:.3g}; "
            f"result fingerprints {'identical' if same else 'DIFFER'}"
            + ("" if same_seed else " (different seeds)")
        )
        if b["fail_rate"] > a["fail_rate"] or (same_seed and not same):
            regressed = True
        for name in order:
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            x, y = a["metrics"][name], b["metrics"][name]
            m = bounded.get(name)
            if m is None:
                word = "-"
            elif same_seed and name.startswith("sim_"):
                word = "within bound" if x["value"] == y["value"] else "changed"
            else:
                word = verdict(x, y, m["better"], m["bound"])
            regressed |= word in ("worse", "changed")
            lines.append(
                f"  {name:<28} {x['value']:>12.6g} [{x['q1']:.6g}, {x['q3']:.6g}]  "
                f"{y['value']:>12.6g} [{y['q1']:.6g}, {y['q3']:.6g}] {x['unit']:<8} {word}"
            )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    lines, regressed = compare(docs[0], docs[1], bench)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
