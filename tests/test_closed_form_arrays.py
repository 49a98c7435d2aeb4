"""The closed forms take a float or an array through one numpy expression.
An array call must give, entry by entry, what the float call gives, bit for
bit.  The inputs are the axes of the default fig5, s3, fig6 and s4 tables,
with sigma_p = 0, k = 0 and a |sigma_p L| past the 1e154 guard.
"""
import numpy as np
import pytest

from wva_lab.errors import NumericalError
from wva_lab.lgi import k31
from wva_lab.meter import intensity_after_postselection, pointer_shift_p_gaussian, postselection_probability_gaussian
from wva_lab.metrology import snr_db
from wva_lab.polarization import MwiSettings
from wva_lab.scenarios import P0_RAD_PER_M as P0, _profile, make_config
from wva_lab.spectra import effective_sigma_p


def _k_traces():
    """(sigma_p, N, rho, k axis) of every trace of the default fig5 and s3
    tables (their k axes start at k = 0; the coherent traces have
    sigma_p = 0), and one whose sigma_p L passes 1e154."""
    traces = []
    for scenario_id in ("fig5", "s3_intensity"):
        v = make_config(scenario_id).values
        widths = [effective_sigma_p(_profile(v, width)) for width in v["vsns_widths_nm"]]
        traces += [(0.0, n, v["rho_rad"], v["ks_m"]) for n in v.get("coherent_n_list", (1,))]
        traces += [(sigma_p, 1, v["rho_rad"], v["ks_m"]) for sigma_p in widths]
    return traces + [(1e160, 1, 0.002, np.array([0.0, 1e-6, 1.0]))]


def _rho_axes():
    """(N, k, sigma_p, rho axis) of every block of the default fig6 and s4
    tables, and the fig6 axis at a sigma_p whose damping is not 1."""
    blocks = []
    for scenario_id in ("fig6", "s4_weak_values"):
        v = make_config(scenario_id).values
        blocks += [(n, v["probe_k_m"], v["probe_sigma_p_rad_per_m"], v["rhos_rad"]) for n in v["n_list"]]
    return blocks + [(3, 1e-10, 1.5e4, make_config("fig6").values["rhos_rad"])]


K_TRACES = _k_traces()
RHO_AXES = _rho_axes()


def _per_entry(fn, axis):
    return np.array([fn(value) for value in axis.tolist()])


def _assert_bitwise(array, floats):
    assert array.dtype == floats.dtype and array.tobytes() == floats.tobytes()


@pytest.mark.parametrize(("sigma_p", "n", "rho", "ks"), K_TRACES)
def test_probability_and_intensity_over_k(sigma_p, n, rho, ks):
    probability = postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, ks, 0.0, rho))
    intensity, shift = intensity_after_postselection(2.5, sigma_p, P0, MwiSettings(n, ks, 0.0, rho))
    floats = [
        _per_entry(lambda k: postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, k, 0.0, rho)), ks),
        *(_per_entry(lambda k: intensity_after_postselection(2.5, sigma_p, P0, MwiSettings(n, k, 0.0, rho))[i], ks)
          for i in (0, 1)),
    ]
    for array, expected in zip((probability, intensity, shift), floats):
        _assert_bitwise(array, expected)


@pytest.mark.parametrize(("n", "k", "sigma_p", "rhos"), RHO_AXES)
def test_probability_and_k31_over_rho(n, k, sigma_p, rhos):
    exact = postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, k, 0.0, rhos))
    exact_floats = _per_entry(lambda rho: postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, k, 0.0, rho)),
                              rhos)
    _assert_bitwise(exact, exact_floats)
    _assert_bitwise(k31(n, rhos), _per_entry(lambda rho: k31(n, rho), rhos))
    k31_exact_floats = np.array([k31(n, rho, p) for rho, p in zip(rhos.tolist(), exact_floats.tolist())])
    _assert_bitwise(k31(n, rhos, exact), k31_exact_floats)


@pytest.mark.parametrize(("sigma_p", "n", "rho", "ks"), [trace for trace in K_TRACES if trace[0] > 0.0])
def test_shift_over_k(sigma_p, n, rho, ks):
    shift = pointer_shift_p_gaussian(sigma_p, P0, MwiSettings(n, ks, 0.0, rho))
    _assert_bitwise(shift, _per_entry(lambda k: pointer_shift_p_gaussian(sigma_p, P0, MwiSettings(n, k, 0.0, rho)), ks))


@pytest.mark.parametrize("sigma_p", [1307.6348193922136, 7845.808916353282, 1.5e4])
def test_shift_over_rho(sigma_p):
    rhos = make_config("fig6").values["rhos_rad"]
    shift = pointer_shift_p_gaussian(sigma_p, P0, MwiSettings(3, 1e-10, 0.0, rhos))
    _assert_bitwise(shift, _per_entry(lambda rho: pointer_shift_p_gaussian(sigma_p, P0, MwiSettings(3, 1e-10, 0.0, rho)),
                                      rhos))


@pytest.mark.parametrize("sigma_p", [1e154, 1e160])
def test_shift_damped_to_zero_where_its_square_overflows(sigma_p):
    # sigma_p L = sigma_p at L = 1 m: (sigma_p L)^2 and sigma_p^2 overflow, the damping is 0
    assert pointer_shift_p_gaussian(sigma_p, P0, MwiSettings(1, 1.0)) == 0.0
    shift = pointer_shift_p_gaussian(sigma_p, P0, MwiSettings(1, np.array([1.0, 2.0]), 0.0, 0.002))
    assert np.array_equal(shift, [0.0, 0.0])


@pytest.mark.parametrize(("sigma_p", "n", "rho", "ks"), K_TRACES)
def test_snr_over_k(sigma_p, n, rho, ks):
    intensity, _ = intensity_after_postselection(2.5, sigma_p, P0, MwiSettings(n, ks, 0.0, rho))
    _assert_bitwise(snr_db(intensity, 5e-4), _per_entry(lambda signal: snr_db(signal, 5e-4), intensity))


def test_snr_over_rho():
    signal = 3e4 * np.sin(make_config("s4_weak_values").values["rhos_rad"]) ** 2
    _assert_bitwise(snr_db(signal, 5e-4), _per_entry(lambda s: snr_db(s, 5e-4), signal))


def test_array_checks_raise_at_first_failure():
    # non-finite phases after a finite one (the overflow itself is left to the
    # check), and a signal of 0 after a positive one
    settings = MwiSettings(1, np.array([0.0, 1e308, 1.5e308]), 0.0, 0.002)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=r"= inf for L = 1e\+308 m"):
        postselection_probability_gaussian(0.0, P0, settings)
    with pytest.raises(ValueError, match="must be > 0"):
        snr_db(np.array([1.0, 0.0]), 1.0)
