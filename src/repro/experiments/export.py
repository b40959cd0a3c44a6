"""Export figure/table results to CSV and JSON.

Downstream plotting (matplotlib, gnuplot, a spreadsheet) should not
have to parse our ASCII reports; these writers emit the structured
data.  Everything is plain-stdlib (csv, json) so the library's numpy-
only dependency footprint stays intact.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Union

from ..runtime.stats import LoopRunStats
from .figures import FigureResult
from .tables import TableResult

__all__ = ["figure_to_csv", "table_to_csv", "run_to_csv", "run_to_json",
           "result_to_json", "write_result"]


def figure_to_csv(result: FigureResult) -> str:
    """One row per configuration, one column per scheme/series."""
    schemes = list(result.rows[0].normalized)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["config"] + schemes)
    for row in result.rows:
        writer.writerow([row.label] + [f"{row.normalized[s]:.6g}"
                                       for s in schemes])
    return buf.getvalue()


def table_to_csv(result: TableResult) -> str:
    """One row per parameter set with both orders and the agreement."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["parameters", "actual_order", "predicted_order",
                     "agreement", "best_match"])
    for row in result.rows:
        writer.writerow([row.label, " ".join(row.actual),
                         " ".join(row.predicted),
                         f"{row.agreement:.4f}", row.best_match])
    return buf.getvalue()


#: Scalar columns of one loop run.  ``backend`` distinguishes simulated
#: (virtual-second) runs from thread-backend (wall-clock) runs post-hoc.
_RUN_FIELDS = ("loop_name", "strategy", "backend", "n_processors",
               "group_size", "duration", "n_syncs", "n_redistributions",
               "total_work_moved", "network_messages", "network_bytes",
               "transport_payload_bytes", "payload_by_frame",
               "shm_data_bytes", "selected_scheme", "fault_retries",
               "reclaimed_iterations", "salvaged_iterations",
               "environment")


def _kv_column(mapping: dict) -> str:
    """Flatten a small mapping into one CSV cell (``K=V;K=V``): used for
    the socket backend's per-frame-type byte ledger and the run's
    environment fingerprint; empty when the mapping is."""
    return ";".join(f"{name}={value}"
                    for name, value in sorted(mapping.items()))


def _run_row(stats: LoopRunStats) -> dict:
    row = {}
    for name in _RUN_FIELDS:
        value = getattr(stats, name)
        if name in ("payload_by_frame", "environment"):
            value = _kv_column(value)
        row[name] = value.item() if hasattr(value, "item") else value
    return row


def run_to_csv(runs: Union[LoopRunStats, list[LoopRunStats]]) -> str:
    """One row per loop run, including the producing backend."""
    if isinstance(runs, LoopRunStats):
        runs = [runs]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(_RUN_FIELDS))
    writer.writeheader()
    for stats in runs:
        writer.writerow(_run_row(stats))
    return buf.getvalue()


def run_to_json(stats: LoopRunStats) -> str:
    """One run as a JSON document with per-sync and per-node detail."""
    doc = _run_row(stats)
    doc["kind"] = "run"
    doc["node_finish_times"] = {
        str(k): _jsonable(v) for k, v in stats.node_finish_times.items()}
    doc["messages_by_tag"] = dict(stats.messages_by_tag)
    # JSON keeps the per-frame-type transport split and the environment
    # fingerprint structured (the CSV cells flatten them).
    doc["payload_by_frame"] = dict(stats.payload_by_frame)
    doc["environment"] = dict(stats.environment)
    doc["joined_nodes"] = list(stats.joined_nodes)
    doc["left_nodes"] = list(stats.left_nodes)
    doc["syncs"] = [
        {"time": s.time, "group": s.group, "epoch": s.epoch,
         "reason": s.reason, "moved_work": s.moved_work,
         "n_transfers": s.n_transfers, "retired": list(s.retired)}
        for s in stats.syncs]
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True)


def result_to_json(result: Union[FigureResult, TableResult]) -> str:
    """A JSON document with full per-seed raw data where available."""
    if isinstance(result, FigureResult):
        doc = {
            "kind": "figure",
            "id": result.figure_id,
            "title": result.title,
            "meta": _jsonable(result.meta),
            "rows": [
                {
                    "label": row.label,
                    "normalized": {k: float(v)
                                   for k, v in row.normalized.items()},
                    "raw_times": {k: [float(t) for t in m.times]
                                  for k, m in row.raw.items()},
                }
                for row in result.rows
            ],
        }
    elif isinstance(result, TableResult):
        doc = {
            "kind": "table",
            "id": result.table_id,
            "title": result.title,
            "mean_agreement": result.mean_agreement,
            "best_match_rate": result.best_match_rate,
            "rows": [
                {
                    "label": row.label,
                    "actual": list(row.actual),
                    "predicted": list(row.predicted),
                    "agreement": row.agreement,
                    "actual_means": {k: float(v) for k, v
                                     in row.actual_means.items()},
                    "predicted_means": {k: float(v) for k, v
                                        in row.predicted_means.items()},
                }
                for row in result.rows
            ],
        }
    else:
        raise TypeError(f"cannot export {type(result)!r}")
    return json.dumps(doc, indent=2, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def write_result(result: Union[FigureResult, TableResult, LoopRunStats],
                 path: str) -> None:
    """Write ``result`` to ``path``; format chosen by extension
    (.csv or .json)."""
    if path.endswith(".json"):
        text = (run_to_json(result) if isinstance(result, LoopRunStats)
                else result_to_json(result))
    elif path.endswith(".csv"):
        if isinstance(result, LoopRunStats):
            text = run_to_csv(result)
        else:
            text = (figure_to_csv(result) if isinstance(result, FigureResult)
                    else table_to_csv(result))
    else:
        raise ValueError(f"unsupported extension on {path!r} "
                         "(use .csv or .json)")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
