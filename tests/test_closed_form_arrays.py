"""The closed forms take a float or an array.  An array call must give, entry
by entry, what the float call gives: bitwise where both go through the same
libm function, and within one ulp where numpy's expm1 or log10 stands in for
math's.  The SNR 10 log10(s) may differ by two ulps: one ulp of log10 is
at most 1.25 ulps after the factor 10, and each side rounds the product.  The inputs are the axes of the default fig5, s3, fig6 and s4
tables, with sigma_p = 0, k = 0 and a |sigma_p L| past the 1e154 guard.
"""
import numpy as np
import pytest

from wva_lab.errors import NumericalError
from wva_lab.lgi import k31
from wva_lab.meter import intensity_after_postselection, postselection_probability_gaussian
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


def _assert_within_ulp(array, floats, ulps=1):
    assert np.all(np.abs(array - floats) <= ulps * np.spacing(np.abs(floats)))


@pytest.mark.parametrize(("sigma_p", "n", "rho", "ks"), K_TRACES)
def test_probability_and_intensity_over_k(sigma_p, n, rho, ks):
    probability = postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, ks, 0.0, rho))
    intensity, shift = intensity_after_postselection(2.5, sigma_p, P0, MwiSettings(n, ks, 0.0, rho))
    floats = [
        _per_entry(lambda k: postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, k, 0.0, rho)), ks),
        *(_per_entry(lambda k: intensity_after_postselection(2.5, sigma_p, P0, MwiSettings(n, k, 0.0, rho))[i], ks)
          for i in (0, 1)),
    ]
    if sigma_p == 0.0:  # expm1(0) = 0 on both sides: the same libm path throughout
        for array, expected in zip((probability, intensity, shift), floats):
            _assert_bitwise(array, expected)
    else:  # np.expm1 of the damping exponent against math.expm1
        _assert_within_ulp(probability, floats[0])
        _assert_within_ulp(intensity, floats[1])
        # (I - I0)/I0: an ulp of I moves the shift by at most 2 ulp(I)/I0
        baseline, _ = intensity_after_postselection(2.5, sigma_p, P0, MwiSettings(n, 0.0, 0.0, rho))
        assert np.all(np.abs(shift - floats[2]) <= 2.0 * np.spacing(intensity) / baseline)


@pytest.mark.parametrize(("n", "k", "sigma_p", "rhos"), RHO_AXES)
def test_probability_and_k31_over_rho(n, k, sigma_p, rhos):
    # a float L: the damping goes through math.expm1 on both sides
    exact = postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, k, 0.0, rhos))
    exact_floats = _per_entry(lambda rho: postselection_probability_gaussian(sigma_p, P0, MwiSettings(n, k, 0.0, rho)),
                              rhos)
    _assert_bitwise(exact, exact_floats)
    _assert_bitwise(k31(n, rhos), _per_entry(lambda rho: k31(n, rho), rhos))
    k31_exact_floats = np.array([k31(n, rho, p) for rho, p in zip(rhos.tolist(), exact_floats.tolist())])
    _assert_bitwise(k31(n, rhos, exact), k31_exact_floats)


@pytest.mark.parametrize(("sigma_p", "n", "rho", "ks"), K_TRACES)
def test_snr_over_k(sigma_p, n, rho, ks):
    intensity, _ = intensity_after_postselection(2.5, sigma_p, P0, MwiSettings(n, ks, 0.0, rho))
    _assert_within_ulp(snr_db(intensity, 5e-4), _per_entry(lambda signal: snr_db(signal, 5e-4), intensity), 2)


def test_snr_over_rho():
    signal = 3e4 * np.sin(make_config("s4_weak_values").values["rhos_rad"]) ** 2
    _assert_within_ulp(snr_db(signal, 5e-4), _per_entry(lambda s: snr_db(s, 5e-4), signal), 2)


def test_array_checks_raise_at_first_failure():
    # non-finite phases after a finite one (the overflow itself is left to the
    # check), and a signal of 0 after a positive one
    settings = MwiSettings(1, np.array([0.0, 1e308, 1.5e308]), 0.0, 0.002)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=r"= inf for L = 1e\+308 m"):
        postselection_probability_gaussian(0.0, P0, settings)
    with pytest.raises(ValueError, match="must be > 0"):
        snr_db(np.array([1.0, 0.0]), 1.0)
