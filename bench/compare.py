"""Compare two result documents of ``bench/run.py --out``: A is the base.

``python3 bench/compare.py A.json B.json`` prints, per workload, every
end-to-end metric with both reported values (the fast quartile of the
repetitions, see run.py) and quartiles, the ratio B/A *with its base*,
the bound from ``BENCHMARK.json`` and a verdict:

* ``WORSE``      — B's value is worse than A's by more than the bound;
* ``DIFFERS``    — a metric that must repeat exactly does not: the
  simulated ``virtual_s`` / ``speedup``, ``order_agreement``,
  ``custom_regret``, and the sim counts ``engine.events`` /
  ``network.messages`` (same seed on both sides only);
* ``ROSE``       — ``failed_frac`` went up;
* ``unresolved`` — within the bound, but either side's own spread
  (IQR / median of its repetitions) is wider than the bound, and not
  every run of B reads better than every run of A;
* ``ok``.

Exit status 1 if any row is ``WORSE``, ``DIFFERS`` or ``ROSE``.
"""

from __future__ import annotations

import json
import pathlib
import sys

SPEC = json.loads((pathlib.Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Exact on every workload that reports them / on simulated workloads.
EXACT_ALWAYS = ("order_agreement", "custom_regret")
EXACT_ON_SIM = ("virtual_s", "speedup")
EXACT_SIM_LAYERS = ("engine.events", "network.messages")

FAILING = ("WORSE", "DIFFERS", "ROSE")


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"] \
        if metric["value"] else 0.0


def verdict(name: str, a: dict, b: dict, exact: bool) -> str:
    if name == "failed_frac":
        return "ROSE" if b["value"] > a["value"] else "ok"
    if exact:
        return "ok" if a["value"] == b["value"] else "DIFFERS"
    if name not in BOUNDS:
        return "-"  # informational (raw seconds): never gated
    bound, lower = BOUNDS[name], BETTER[name] == "lower"
    change = (b["value"] - a["value"]) / a["value"]
    if (change if lower else -change) > bound:
        return "WORSE"
    if max(spread(a), spread(b)) > bound:
        b_wins = max(b["samples"]) < min(a["samples"]) if lower \
            else min(b["samples"]) > max(a["samples"])
        if not b_wins:
            return "unresolved"
    return "ok"


def row(name: str, a: dict, b: dict, status: str) -> str:
    unit = UNITS.get(name, "s")
    ratio = f"{b['value'] / a['value']:.3f}" if a["value"] else "n/a"
    bound = f"{BOUNDS[name]:.2f}" if name in BOUNDS else "-"
    return (f"  {name:16s} {a['value']:12.6g} [{a['q1']:.4g}..{a['q3']:.4g}]"
            f"  {b['value']:12.6g} [{b['q1']:.4g}..{b['q3']:.4g}]"
            f"  B/A {ratio} (base A = {a['value']:.6g} {unit})"
            f"  bound {bound}  {status}")


def compare(doc_a: dict, doc_b: dict) -> int:
    same_seed = doc_a["env"]["e2e"]["seed"] == doc_b["env"]["e2e"]["seed"]
    if not same_seed:
        print("different seeds: exact metrics are not compared")
    failures = 0
    for workload, rec_a in doc_a["workloads"].items():
        rec_b = doc_b["workloads"].get(workload)
        if rec_b is None:
            print(f"{workload}: only in A")
            continue
        sim = rec_a["backend"] == "sim"
        print(f"{workload} [{rec_a['backend']}]   "
              "A value [q1..q3]   B value [q1..q3]")
        for name, a in rec_a["e2e"].items():
            if name not in rec_b["e2e"]:
                continue
            exact = same_seed and (name in EXACT_ALWAYS
                                   or (sim and name in EXACT_ON_SIM))
            status = verdict(name, a, rec_b["e2e"][name], exact)
            failures += status in FAILING
            print(row(name, a, rec_b["e2e"][name], status))
        layers_a, layers_b = rec_a.get("layers"), rec_b.get("layers")
        if sim and same_seed and layers_a and layers_b:
            for name in EXACT_SIM_LAYERS:
                status = "ok" if layers_a[name] == layers_b[name] \
                    else "DIFFERS"
                failures += status in FAILING
                print(f"  {name:16s} {layers_a[name]:12.6g}"
                      f"  {layers_b[name]:12.6g}  exact  {status}")
    print(f"{failures} failing row(s)")
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[0] + "\n\nusage: compare.py A.json B.json",
              file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(pathlib.Path(p).read_text())
                    for p in sys.argv[1:])
    return compare(doc_a, doc_b)


if __name__ == "__main__":
    sys.exit(main())
