import math

import numpy as np
import pytest

from dyadicsq.characteristics import (
    CharacteristicEstimate,
    dyadic_ainfty,
    dyadic_joint_ap,
    interval_scan_joint_ap,
    muckenhoupt_ap,
    spine_joint_ap,
    spine_joint_ap_values,
)
from dyadicsq.density import Constant, PeriodicReflect, Power, dual_power


def test_estimate_rejects_negative():
    with pytest.raises(ValueError):
        CharacteristicEstimate(-0.5, "joint_ap", ("dyadic", 4))


def test_joint_ap_constant_weights():
    for p in (1.5, 2.0, 3.0):
        assert dyadic_joint_ap(Constant(1.0), Constant(1.0), p, 8).value == \
            pytest.approx(1.0, rel=1e-13)


def test_joint_ap_power_pair_bracket():
    # w = x^-beta, sigma = x^(beta/(p-1)), beta = 1/2, p = 2
    est = dyadic_joint_ap(Power(1.0, -0.5), Power(1.0, 0.5), 2.0, 16)
    assert 2.0 / math.e <= est.value <= 2.0 + 1e-12


def test_joint_ap_monotone_in_depth():
    vals = [dyadic_joint_ap(Power(1.0, -0.5), Power(1.0, 0.5), 2.0, n).value
            for n in (4, 8, 12, 16)]
    assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))


def test_spine_product_scale_free():
    p, beta = 2.0, 0.5
    vals = spine_joint_ap_values(Power(1.0, -beta), Power(1.0, beta / (p - 1.0)), p, 200)
    want = (1.0 - beta) ** -1.0 * (1.0 + beta / (p - 1.0)) ** (1.0 - p)
    assert want == pytest.approx(4.0 / 3.0, rel=1e-14)
    np.testing.assert_allclose(vals, want, rtol=1e-10)
    assert spine_joint_ap(Power(1.0, -beta), Power(1.0, 0.5), p, 200).value == \
        pytest.approx(want, rel=1e-10)


def test_spine_product_general_closed_form():
    for p in (2.5, 3.0, 4.0):
        for beta in (0.25, 0.5, 0.875):
            vals = spine_joint_ap_values(Power(1.0, -beta), Power(1.0, beta / (p - 1.0)), p, 64)
            want = (1.0 - beta) ** -1.0 * (1.0 + beta / (p - 1.0)) ** (1.0 - p)
            np.testing.assert_allclose(vals, want, rtol=1e-10)
            # the second factor always lies in [1/e, 1]
            assert 1.0 / math.e <= want * (1.0 - beta) <= 1.0


def test_muckenhoupt_constant():
    assert muckenhoupt_ap(Constant(1.0), 2.0, 8).value == pytest.approx(1.0, rel=1e-12)


def test_muckenhoupt_power_bracket():
    est = muckenhoupt_ap(Power(1.0, -0.5), 2.0, 16)
    assert 2.0 / math.e - 1e-12 <= est.value <= 2.0 + 1e-12
    assert est.value >= 1.0 - 1e-10


def test_muckenhoupt_duality():
    p, beta = 3.0, 0.6
    w = Power(1.0, beta * (p - 1.0))
    sigma = dual_power(w, p)
    pp = p / (p - 1.0)
    direct = muckenhoupt_ap(w, p, 14).value
    swapped = dyadic_joint_ap(sigma, w, pp, 14).value ** (p - 1.0)
    assert direct == pytest.approx(swapped, rel=1e-9)


def test_ainfty_constant_both_modes():
    assert dyadic_ainfty(Constant(1.0), depth=10, mode="full_tree").value == \
        pytest.approx(1.0, rel=1e-12)
    assert dyadic_ainfty(Constant(1.0), mode="radial", n_max=64).value == \
        pytest.approx(1.0, rel=1e-12)


def test_ainfty_full_tree_vs_radial():
    sigma = Power(1.0, -0.5)
    full = dyadic_ainfty(sigma, depth=14, mode="full_tree").value
    radial = dyadic_ainfty(sigma, mode="radial", n_max=400).value
    assert abs(full - radial) / radial < 0.01
    assert full >= 1.0 and radial >= 1.0


def test_ainfty_radial_analytic_value():
    # for x^-beta the maximizing averages are the spine prefixes; the shell
    # series telescopes to 2^(beta-1) <sigma>_{I} geometric sums
    beta = 0.5
    want = 0.5 / (1.0 - 2.0 ** (beta - 1.0))
    got = dyadic_ainfty(Power(1.0, -beta), mode="radial", n_max=600).value
    assert got == pytest.approx(want, rel=1e-6)


def test_ainfty_mode_validation():
    with pytest.raises(ValueError):
        dyadic_ainfty(Constant(1.0), mode="radial")
    with pytest.raises(ValueError):
        dyadic_ainfty(Constant(1.0), depth=25, mode="full_tree")
    with pytest.raises(ValueError):
        dyadic_ainfty(Constant(1.0), depth=8, mode="sideways")


def test_scan_constant_pair():
    w = PeriodicReflect(Constant(1.0))
    est = interval_scan_joint_ap(w, w, 2.0, span=2, grid_step=2.0 ** -6)
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_scan_monotone_in_span_and_grid():
    p, beta = 2.0, 0.5
    w = PeriodicReflect(Power(1.0, -beta))
    sigma = PeriodicReflect(Power(1.0, beta))
    coarse = interval_scan_joint_ap(w, sigma, p, span=2, grid_step=2.0 ** -6).value
    fine = interval_scan_joint_ap(w, sigma, p, span=2, grid_step=2.0 ** -8).value
    wide = interval_scan_joint_ap(w, sigma, p, span=4, grid_step=2.0 ** -8).value
    assert coarse <= fine + 1e-12
    assert fine <= wide + 1e-12


def test_scan_dominates_dyadic():
    # the scan grid contains every dyadic endpoint up to its resolution
    p, beta = 2.0, 0.5
    w, sigma = Power(1.0, -beta), Power(1.0, beta)
    dy = dyadic_joint_ap(w, sigma, p, 8).value
    sc = interval_scan_joint_ap(PeriodicReflect(w), PeriodicReflect(sigma), p,
                                span=2, grid_step=2.0 ** -8).value
    assert sc >= dy - 1e-12


def test_scan_rejects_bad_grid():
    w = PeriodicReflect(Constant(1.0))
    with pytest.raises(ValueError):
        interval_scan_joint_ap(w, w, 2.0, span=2, grid_step=0.3)


def test_nan_candidates_raise_instead_of_vanishing():
    from dyadicsq.characteristics import NonFiniteCandidateError

    with pytest.raises(NonFiniteCandidateError, match="depth 3"):
        dyadic_joint_ap(Constant(float("nan")), Constant(1.0), 3.0, 3)
    with np.errstate(invalid="ignore"):  # the zero weight makes every ratio 0/0
        with pytest.raises(NonFiniteCandidateError, match="depth 3"):
            dyadic_ainfty(Constant(0.0), depth=3)
        with pytest.raises(NonFiniteCandidateError, match="root I_0, n_max 8"):
            dyadic_ainfty(Constant(0.0), mode="radial", n_max=8)
