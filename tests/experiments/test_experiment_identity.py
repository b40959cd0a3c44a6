"""Result identity of the experiment layer.

Every figure, table and sweep of :mod:`repro.experiments` reduces to
one computation — a scheme's loop time over seeded load realizations —
and the digests below pin what each public entry point returns for a
small grid: labels, orders, means, stds and the per-seed times, syncs
and moves, every field of every result.  A change to how a cell is run
or normalized that moves any of them is a change of result, not a
refactor.  Do not re-pin a digest without knowing which number moved
and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers

import pytest

from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure_topology, mxm_figure, \
    trfd_figure
from repro.experiments.runner import Measurement, measured_order, \
    predicted_order
from repro.experiments.sweeps import KNOBS, sweep, topology_sweep
from repro.experiments.tables import table_topology
from repro.runtime.options import RunOptions

CFG = ExperimentConfig(n_seeds=2, base_seed=11, persistence=0.5)
LOOP = LoopSpec(name="ident", n_iterations=48, iteration_time=0.01,
                dc_bytes=300)
SMALL = MxmConfig(48, 60, 60)
KNOB_VALUES = {
    "persistence": (0.2, 1.0),
    "group_size": (1, 4),
    "improvement_threshold": (0.0, 0.3),
    "sync_period": (0.05,),
    "max_load": (0, 3),
}


def _canon(value):
    """Every field, numbers as ``repr(float)`` / ``int``, dicts in order."""
    if isinstance(value, Measurement):
        return {"fields": _canon(dataclasses.asdict(value)),
                "mean": _canon(value.mean), "std": _canon(value.std),
                "mean_syncs": _canon(value.mean_syncs)}
    if dataclasses.is_dataclass(value):
        return {f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[str(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return repr(float(value))
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _digest(result) -> str:
    text = json.dumps(_canon(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _mxm_figure():
    return mxm_figure(4, CFG, sizes=(SMALL, MxmConfig(64, 48, 48)))


def _trfd_figure():
    return trfd_figure(4, CFG, n_values=(10,))


def _small_loop():
    return mxm_loop(SMALL, op_seconds=CFG.mxm_op_seconds)


def _topology_sweep(options):
    return topology_sweep(_small_loop(), 4, topologies=("bus", "ring"),
                          config=CFG, options=options)


CASES = {
    "mxm_figure": _mxm_figure,
    "trfd_figure": _trfd_figure,
    "figure_topology": lambda: figure_topology(
        CFG, n_processors=4, topologies=("bus", "ring"), size=SMALL),
    "table_topology": lambda: table_topology(
        CFG, n_processors=4, topologies=("bus", "ring"), size=SMALL),
    "measured_order": lambda: measured_order(LOOP, 4, CFG),
    "predicted_order": lambda: predicted_order(LOOP, 4, CFG),
    **{f"sweep-{knob}": (lambda knob=knob: sweep(
        LOOP, 4, knob, KNOB_VALUES[knob], schemes=("GD", "LC"), config=CFG))
       for knob in KNOBS},
    "topology_sweep": lambda: _topology_sweep(None),
    "topology_sweep-group-size": lambda: _topology_sweep(
        RunOptions(policy=CFG.policy, network=CFG.network, group_size=4)),
}

DIGESTS = {
    "figure_topology":
        "62df30eed59c288190751a2912b3870f7e92f25fb2f527816d6e2aa7a9eac8b2",
    "measured_order":
        "ad732704b5169c8517ee5a6b2a9d760eb851487dd35cbdc830221fba5daf09cc",
    "mxm_figure":
        "628e06ff15de476debe3742592a3d620d4f4af5437a79902d8933b7e18365654",
    "predicted_order":
        "0be79afc61d550821582839aab3d94ce21a5cae1d27f001c9e0a70e79e9a67e2",
    "sweep-group_size":
        "6daa03991f33119fa9f6d01a89cea73bb78c5fc5962fc26aa1a94fc6a99cf487",
    "sweep-improvement_threshold":
        "f2cae7164d695838301d7459c9fc617f43aacfe97370b4fe6c5133930389f310",
    "sweep-max_load":
        "c1a9333f0d3b005a729a31e97f53b213b0ba55f9301619eeaa4630952f724e41",
    "sweep-persistence":
        "aec6fece36611dce1341b9d7ad039d7eba8a63330b98802b88102d8f39a7aeda",
    "sweep-sync_period":
        "97f339a9a4c7b35c55060416cb9d5ac4b1930e3a103edd0d5c0c5320adc8429b",
    "table_topology":
        "4bbc638cff6e7ae6ddfdafa38376e2a52f31e748b7161d03316c8cd0eff8f2e3",
    "topology_sweep":
        "a5b6d5ad53f35130e7f16e64d82822f969582bc6125d2c6cde6e04d7963e6935",
    "topology_sweep-group-size":
        "e05940cff50721c28a95872d8252162f1a122a439931356b1c0e0ecb2b9e2283",
    "trfd_figure":
        "73b2d1a2e1d9b3fbc518a88bef68bda41d12befcb421bd1500f95fccf9ca6dab",
}


def test_every_knob_is_pinned():
    assert set(KNOB_VALUES) == set(KNOBS)
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_experiment_result_identity(case):
    assert _digest(CASES[case]()) == DIGESTS[case]
