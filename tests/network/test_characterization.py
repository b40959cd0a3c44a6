"""Tests for the Figure-4 characterization and fitted cost model."""

import random

import numpy as np
import pytest

from repro.network.characterization import (
    CommCostModel,
    _polyfit,
    characterize_network,
    probe_link_parameters,
)
from repro.network.parameters import NetworkParameters


@pytest.fixture(scope="module")
def model():
    return characterize_network(proc_counts=range(2, 17, 2))


def test_fits_cover_all_patterns(model):
    assert set(model.fits) == {"OA", "AO", "AA"}


def test_fit_close_to_samples(model):
    for fit in model.fits.values():
        for p, measured in fit.samples:
            assert fit(p) == pytest.approx(measured, rel=0.1, abs=2e-3)


def test_residuals_small(model):
    for fit in model.fits.values():
        assert fit.residual_rms() < 2e-3


def test_cost_ordering_preserved(model):
    for p in (4, 8, 16):
        assert model.one_to_all(p) <= model.all_to_one(p) \
            <= model.all_to_all(p)


def test_single_host_costs_nothing(model):
    assert model.one_to_all(1) == 0.0
    assert model.all_to_all(0) == 0.0


def test_point_to_point_formula(model):
    nbytes = 9600
    expected = model.latency + nbytes / model.bandwidth
    assert model.point_to_point(nbytes) == pytest.approx(expected)


def test_latency_matches_paper_default(model):
    assert model.latency == pytest.approx(2414.5e-6)
    assert model.bandwidth == pytest.approx(0.96e6)


def test_uncharacterized_pattern_raises():
    empty = CommCostModel(params=NetworkParameters())
    with pytest.raises(KeyError):
        empty.all_to_all(4)


def test_analytic_fallback_sane():
    model = CommCostModel.analytic()
    for p in (2, 8, 16):
        assert 0 < model.one_to_all(p) <= model.all_to_all(p)


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        characterize_network(proc_counts=[2, 3], degree=2)


def test_negative_fit_clipped():
    fit = characterize_network(proc_counts=range(2, 8)).fits["OA"]
    # Extrapolating far below the sample range must never go negative.
    assert fit(0.0) >= 0.0


# -- the fit in Python floats, held to numpy ----------------------------

def _numpy_fit(fit):
    ps = np.array([p for p, _ in fit.samples], dtype=float)
    ts = np.array([t for _, t in fit.samples])
    return np.polyfit(ps, ts, fit.degree)


@pytest.mark.parametrize("topology", [None, "ring", "torus", "mesh"])
def test_fitted_curves_are_numpys_to_rounding(topology):
    """The QR fit and ``numpy.polyfit``'s SVD solve one system: every
    curve agrees with numpy's to 1e-10 wherever the predictor can
    evaluate it, far outside the 2..16 it was measured on."""
    model = characterize_network(topology=topology)
    for fit in model.fits.values():
        ref = _numpy_fit(fit)
        for p in range(2, 1025):
            ours = fit(p)
            theirs = max(float(np.polyval(ref, p)), 0.0)
            assert ours == pytest.approx(theirs, rel=1e-10, abs=0.0)


def test_random_well_conditioned_fits_are_numpys_to_rounding():
    rng = random.Random(11)
    for _ in range(500):
        degree = rng.randint(0, 3)
        xs = [float(x) for x in sorted(rng.sample(range(1, 200),
                                                  rng.randint(degree + 2, 30)))]
        truth = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
        ys = [float(np.polyval(truth, x)) * (1.0 + rng.gauss(0.0, 0.01))
              for x in xs]
        ours = np.polyval(_polyfit(xs, ys, degree), xs)
        theirs = np.polyval(np.polyfit(xs, ys, degree), xs)
        # Relative to the curve's scale: a curve may cross zero.
        assert np.max(np.abs(ours - theirs)) <= \
            1e-10 * np.max(np.abs(theirs))


def test_curves_evaluate_as_numpys_polyval_bit_for_bit():
    """Horner's rule in numpy's order: the same float for a fit's own
    coefficients, at integer and fractional processor counts."""
    model = characterize_network(topology="ring")
    for fit in model.fits.values():
        for p in (*range(0, 70), 0.5, 3.25, 1023.75):
            assert fit(p) == max(float(np.polyval(fit.coefficients, p)), 0.0)
        ps = np.array([p for p, _ in fit.samples], dtype=float)
        ts = np.array([t for _, t in fit.samples])
        rms = float(np.sqrt(np.mean((np.polyval(fit.coefficients, ps)
                                     - ts) ** 2)))
        assert fit.residual_rms() == pytest.approx(rms, rel=1e-12)


def test_samples_that_fix_no_curve_are_refused():
    with pytest.raises(ValueError, match="do not determine"):
        _polyfit([4.0, 4.0, 4.0], [1.0, 2.0, 3.0], 2)


# -- seeded probe estimation (regression: was global-RNG-dependent) ------

def test_probe_estimate_is_deterministic():
    """Identical arguments => identical estimate, regardless of global
    RNG state (the probe draws from its own default_rng(seed))."""
    import random

    import numpy as np

    a = probe_link_parameters(topology="ring", n_hosts=6, seed=0)
    random.seed(999)
    np.random.seed(999)
    b = probe_link_parameters(topology="ring", n_hosts=6, seed=0)
    assert a == b


def test_probe_estimate_pinned_ring():
    """Pin the exact seeded output; any change to probing (pair
    selection, fit, hop accounting) must be deliberate."""
    est = probe_link_parameters(topology="ring", n_hosts=6, seed=0)
    assert est.latency == 0.002548562500000001
    assert est.bandwidth == 590769.2307692305
    assert est.mean_hops == 1.625
    assert len(est.samples) == 16
    assert est.samples[0] == (5, 3, 64, 0.002762333333333333)


def test_probe_estimate_pinned_bus():
    est = probe_link_parameters(n_hosts=8, seed=3)
    assert est.latency == 0.0024145000000000013
    assert est.bandwidth == 959999.9999999994
    assert est.mean_hops == 1.0  # every bus route is one hop


def test_probe_seed_changes_pairs():
    a = probe_link_parameters(topology="ring", n_hosts=6, seed=0)
    b = probe_link_parameters(topology="ring", n_hosts=6, seed=1)
    assert a.samples != b.samples


def test_probe_recovers_bus_parameters():
    """On the uncontended bus the fitted line is exact: intercept =
    send + latency + recv overheads, slope = 1/bandwidth."""
    p = NetworkParameters()
    est = probe_link_parameters(params=p, n_hosts=4, seed=7)
    expected = p.send_overhead + p.wire_latency + p.recv_overhead
    assert est.latency == pytest.approx(expected)
    assert est.bandwidth == pytest.approx(p.bandwidth)


def test_probe_input_validation():
    with pytest.raises(ValueError):
        probe_link_parameters(n_hosts=1)
    with pytest.raises(ValueError):
        probe_link_parameters(n_probes=0)
    with pytest.raises(ValueError):
        probe_link_parameters(probe_sizes=(64, 64))
