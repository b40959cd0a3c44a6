"""Benchmark regression gate for the committed ``BENCH_*.json`` documents.

The documents hold only simulated seconds and counts, exact given the
seeds, so a regenerated copy is normally byte-identical; the 0.1 %
window exists so a runner with a different libm / numpy can agree with a
baseline generated elsewhere.  The gate is directional rather than a
``git diff``, so a PR that *improves* a simulated time passes before its
baseline refresh is reviewed.  Wall clock, speedup and RSS live in
``bench/run.py`` + ``bench/compare.py``, which repeat runs and report
spread.

Usage::

    python tools/bench_gate.py --baseline-dir baselines --fresh-dir .

Only stdlib.  A missing baseline (first run of a new benchmark) is
reported and tolerated; a missing *fresh* file, a vanished key, or a
gated path that matches nothing in the baseline fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Fractional tolerance on every gated value.
TOLERANCE = 0.001

# Gated metrics per document: {path: direction}.  Paths are
# dot-separated; a "*" segment fans out over every key of a dict.
# Direction "lower" means smaller is better, "higher" the opposite.
GATES: dict[str, dict[str, str]] = {
    "BENCH_topology.json": {
        "topologies.*.*": "lower",
        "scale.*.*": "lower",
    },
    "BENCH_scale.json": {
        "des.*.virtual_duration": "lower",
        "des.*.syncs": "lower",
        "des.*.messages": "lower",
        "des.*.engine_events": "lower",
        "des.*.resumes": "lower",
        "des.*.protocol_turns": "lower",
    },
    "BENCH_obs.json": {
        # Tracing must never move the simulated schedule; the two stay
        # equal to each other (asserted inside the benchmark itself).
        "des.virtual_duration_off": "lower",
        "des.virtual_duration_on": "lower",
    },
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


def compare(name: str, baseline: dict, fresh: dict) -> tuple[int, list[str]]:
    """Return (values compared, regression descriptions) for one document."""
    compared = 0
    regressions: list[str] = []
    for path, direction in GATES[name].items():
        base_vals = resolve(baseline, path)
        fresh_vals = resolve(fresh, path)
        if not base_vals:
            regressions.append(f"{name}:{path} matches nothing")
        for key, base in sorted(base_vals.items()):
            if key not in fresh_vals:
                regressions.append(f"{name}:{key} vanished from fresh run")
                continue
            if base <= 0:
                continue  # degenerate baseline; nothing to gate against
            compared += 1
            new = fresh_vals[key]
            change = new / base - 1
            worse = change if direction == "lower" else -change
            if worse > TOLERANCE:
                regressions.append(
                    f"{name}:{key} regressed: {base:.6g} -> {new:.6g} "
                    f"({change * 100:+.2f}%, limit {TOLERANCE * 100:.1f}%)"
                )
    return compared, regressions


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
    args = parser.parse_args(argv)

    regressions: list[str] = []
    for name in sorted(GATES):
        fresh_path = args.fresh_dir / name
        base_path = args.baseline_dir / name
        if not fresh_path.exists():
            regressions.append(f"{name}: fresh results missing at {fresh_path}")
            continue
        if not base_path.exists():
            print(f"[bench-gate] {name}: no baseline at {base_path}; skipping")
            continue
        compared, found = compare(
            name, json.loads(base_path.read_text()), json.loads(fresh_path.read_text())
        )
        regressions.extend(found)
        if not found:
            print(f"[bench-gate] {name}: ok ({compared} values)")

    for line in regressions:
        print(f"[bench-gate] REGRESSION: {line}", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
