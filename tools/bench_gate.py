"""Benchmark regression gate.

Compares freshly generated ``BENCH_*.json`` documents (written by the
``benchmarks/`` suite) against the committed baselines and fails when a
gated metric regressed by more than the threshold.

Every gated metric has a *kind*, and the ``--mode`` flag selects which
kinds a run enforces:

* ``deterministic`` — simulated (virtual) durations.  Given the seeds
  these are exact, so they get a tight default threshold and CI runs
  them as a **blocking** job: only a real model/protocol change moves
  them, and such a change must regenerate the baseline in the same PR.
* ``wall`` — wall-clock seconds on shared runners.  Inherently noisy;
  CI runs them ``continue-on-error`` as a prompt to look, never a
  merge blocker.  This mode also enforces the speedup metrics below.
* ``speedup`` — wall-clock ratios (thread vs process).  Noisy *and*
  cpu-bound: when the fresh runner has fewer cores than the baseline's
  ``cpu_count`` records, the comparison is physically meaningless, so
  the gate skips it loudly (a GitHub ``::warning::`` annotation)
  instead of failing — or, worse, silently passing a 1-core run.
* ``all`` (default) — everything above.

Usage::

    python tools/bench_gate.py --baseline-dir baselines --fresh-dir .
    python tools/bench_gate.py --mode deterministic      # blocking CI job
    python tools/bench_gate.py --mode wall --threshold 0.4

Only stdlib, so it runs anywhere CI can run Python.  Missing baselines
(first run of a new benchmark) are reported and tolerated; missing
*fresh* files fail, because that means the benchmark suite itself broke.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Gated metrics per benchmark document: {path: (direction, kind)}.
# Paths are dot-separated; a "*" segment fans out over every key of a
# dict.  Direction "lower" means smaller is better (wall times),
# "higher" the opposite (speedups).  Kind is "deterministic", "wall",
# or "speedup" (see the module docstring).
GATES: dict[str, dict[str, tuple[str, str]]] = {
    "BENCH_backend.json": {
        "strategies.*.sim_virtual_duration": ("lower", "deterministic"),
        "strategies.*.thread_wall_seconds": ("lower", "wall"),
    },
    "BENCH_process.json": {
        "strategies.*.process_wall_seconds": ("lower", "wall"),
        "best_speedup": ("higher", "speedup"),
    },
    "BENCH_topology.json": {
        "topologies.*.*": ("lower", "deterministic"),
        "scale.*.*": ("lower", "deterministic"),
    },
    "BENCH_scale.json": {
        "des.*.virtual_duration": ("lower", "deterministic"),
        "des.*.wall_seconds": ("lower", "wall"),
        "best_speedup_at_4": ("higher", "speedup"),
    },
    "BENCH_obs.json": {
        # Tracing must never move the simulated schedule: both virtual
        # durations are exact given the seed, and they must stay equal
        # to each other (asserted inside the benchmark itself).
        "des.virtual_duration_off": ("lower", "deterministic"),
        "des.virtual_duration_on": ("lower", "deterministic"),
        "des.wall_seconds_off": ("lower", "wall"),
        "des.wall_seconds_on": ("lower", "wall"),
        "thread.wall_seconds_off": ("lower", "wall"),
    },
}

#: Kinds each --mode enforces.
MODES = {
    "deterministic": {"deterministic"},
    "wall": {"wall", "speedup"},
    "all": {"deterministic", "wall", "speedup"},
}


def resolve(doc: object, path: str) -> dict[str, float]:
    """Expand a dotted path (with "*" fan-out) to {concrete_path: value}."""
    out: dict[str, float] = {}

    def walk(node: object, segments: list[str], trail: list[str]) -> None:
        if not segments:
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                out[".".join(trail)] = float(node)
            return
        head, rest = segments[0], segments[1:]
        if not isinstance(node, dict):
            return
        keys = sorted(node) if head == "*" else ([head] if head in node else [])
        for key in keys:
            walk(node[key], rest, trail + [key])

    walk(doc, path.split("."), [])
    return out


def annotate(message: str) -> None:
    """Loud skip: a GitHub Actions warning annotation plus plain stdout."""
    print(f"::warning title=bench-gate::{message}")
    print(f"[bench-gate] SKIPPED: {message}")


def compare(name: str, baseline: dict, fresh: dict, *, kinds: set[str],
            threshold: float, det_threshold: float) -> list[str]:
    """Return a list of regression descriptions for one document."""
    regressions: list[str] = []
    base_cpus = baseline.get("cpu_count")
    fresh_cpus = fresh.get("cpu_count")
    for path, (direction, kind) in GATES[name].items():
        if kind not in kinds:
            continue
        if kind == "speedup" and base_cpus and fresh_cpus \
                and fresh_cpus < base_cpus:
            annotate(
                f"{name}:{path}: runner has {fresh_cpus} CPU(s) but the "
                f"baseline was recorded on {base_cpus}; speedup "
                "comparison skipped")
            continue
        limit = det_threshold if kind == "deterministic" else threshold
        base_vals = resolve(baseline, path)
        fresh_vals = resolve(fresh, path)
        for key, base in sorted(base_vals.items()):
            if key not in fresh_vals:
                regressions.append(f"{name}:{key} vanished from fresh run")
                continue
            new = fresh_vals[key]
            if base <= 0:
                continue  # degenerate baseline; nothing to gate against
            ratio = new / base
            if direction == "lower" and ratio > 1 + limit:
                regressions.append(
                    f"{name}:{key} regressed: {base:.4g} -> {new:.4g} "
                    f"(+{(ratio - 1) * 100:.1f}%, limit +{limit * 100:.1f}%)"
                )
            elif direction == "higher" and ratio < 1 - limit:
                regressions.append(
                    f"{name}:{key} regressed: {base:.4g} -> {new:.4g} "
                    f"(-{(1 - ratio) * 100:.1f}%, limit -{limit * 100:.1f}%)"
                )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("."),
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly generated BENCH_*.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional tolerance for wall/speedup metrics (0.25 = 25%%)",
    )
    parser.add_argument(
        "--det-threshold",
        type=float,
        default=0.001,
        help="fractional tolerance for deterministic (virtual-duration) "
             "metrics; these are exact given the seeds, so the default "
             "only absorbs float formatting (0.001 = 0.1%%)",
    )
    parser.add_argument(
        "--mode",
        choices=sorted(MODES),
        default="all",
        help="which metric kinds to enforce (see module docstring)",
    )
    args = parser.parse_args(argv)
    kinds = MODES[args.mode]

    regressions: list[str] = []
    checked = 0
    for name in sorted(GATES):
        if not any(kind in kinds for _, kind in GATES[name].values()):
            continue  # no gated metric of the requested kinds
        fresh_path = args.fresh_dir / name
        base_path = args.baseline_dir / name
        if not fresh_path.exists():
            regressions.append(f"{name}: fresh results missing at {fresh_path}")
            continue
        if not base_path.exists():
            print(f"[bench-gate] {name}: no baseline at {base_path}; skipping")
            continue
        baseline = json.loads(base_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        found = compare(name, baseline, fresh, kinds=kinds,
                        threshold=args.threshold,
                        det_threshold=args.det_threshold)
        checked += 1
        if found:
            regressions.extend(found)
        else:
            print(f"[bench-gate] {name}: ok (mode {args.mode})")

    for line in regressions:
        print(f"[bench-gate] REGRESSION: {line}", file=sys.stderr)
    if not regressions and checked == 0:
        print("[bench-gate] nothing compared (no baselines yet)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
