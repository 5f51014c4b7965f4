import math
import warnings

import numpy as np
import pytest

from dyadicsq.density import LN2, Constant, Power, SignModulate
from dyadicsq.experiments import (
    FAMILIES,
    _exp_series,
    _power_sum,
    _zeta,
    default_beta_grid,
    default_r,
    direct_sum_block_snorm_p,
    divergence_experiment,
    exponent_fit,
    extension_experiment,
    ainfty_growth_experiment,
    scaling_experiment,
)
from dyadicsq.squarefn import NonFiniteTermError, weighted_snorm


def test_exponent_fit_exact():
    slope, intercept, resid = exponent_fit([(x, x ** 1.5) for x in (1.0, 2.0, 4.0, 8.0)])
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert resid < 1e-12


def test_exponent_fit_with_noise():
    rng = np.random.default_rng(7)
    e, c = 2.3, 0.4
    xs = np.geomspace(1.0, 100.0, 20)
    ys = c * xs ** e * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, xs.size))
    slope, _, resid = exponent_fit(zip(xs, ys))
    assert slope == pytest.approx(e, abs=0.02)
    assert resid < 0.02


def test_exponent_fit_preconditions():
    with pytest.raises(ValueError):
        exponent_fit([(1.0, 1.0)])
    with pytest.raises(ValueError):
        exponent_fit([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        exponent_fit([(1.0, 1.0), (2.0, -2.0), (4.0, 3.0)])


def test_default_grids():
    betas = default_beta_grid()
    assert betas[0] == 0.875 and betas[-1] == 1.0 - 2.0 ** -8
    assert default_r(3.0) == pytest.approx((1.0 / 3.0 + 0.5) / 2.0)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_scaling_lerner_exponent(p):
    rep = scaling_experiment("lerner", p)
    assert rep.fits["snorm"].slope == pytest.approx(1.0 + 1.0 / p, abs=0.05)
    assert rep.fits["ratio"].slope == pytest.approx(1.0 / p, abs=0.05)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_scaling_alternating_exponent(p):
    rep = scaling_experiment("alternating", p)
    assert rep.fits["snorm"].slope == pytest.approx(0.5 + 1.0 / p, abs=0.05)
    assert rep.fits["ratio"].slope == pytest.approx(0.5 - 1.0 / p, abs=0.05)


def test_scaling_validation_and_determinism():
    with pytest.raises(ValueError):
        scaling_experiment("lai_treil", 3.0)
    with pytest.raises(ValueError):
        scaling_experiment("lerner", 3.0, betas=[0.5, 0.75])
    a = scaling_experiment("lerner", 3.0)
    b = scaling_experiment("lerner", 3.0)
    for k in a.columns:
        np.testing.assert_array_equal(a.columns[k], b.columns[k])


def test_ainfty_growth():
    rep = ainfty_growth_experiment(3.0)
    assert rep.fits["ainfty_w"].slope == pytest.approx(1.0, abs=0.1)
    sig = rep.columns["ainfty_sigma"]
    assert sig.max() / sig.min() <= 1.25


def test_direct_sum_block_identity():
    # the closed-form block contribution equals the rescaled within-block
    # spine series of the alternating problem it pulls back
    for p in (3.0, 4.0):
        for k in (1, 3, 5, 9):
            beta_k = 1.0 - 1.0 / k
            c_k = k ** (-0.5 - 1.0 / p) * 2.0 ** (k / p)
            inner = weighted_snorm(SignModulate(Constant(1.0)), Power(1.0, -beta_k),
                                   p, n_max=max(64 * k, 256), tail_rel_tol=1e-6)
            want = 2.0 ** -k * c_k ** p * (1.0 - beta_k if k > 1 else 1.0) * inner ** p
            got = float(direct_sum_block_snorm_p(k, p)[0])
            assert got == pytest.approx(want, rel=1e-4)


def test_zeta_is_the_multiprecision_zeta():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z in np.concatenate([np.linspace(2.0, 40.0, 381), [2.05, 2.25, 3.05, 3.75, 4.5]]):
            assert _zeta(float(z)) == pytest.approx(float(mpmath.zeta(float(z))), rel=1e-15, abs=0)


@pytest.mark.parametrize("a", [0.6, 0.8, 0.99, 1.0 - 1e-6])
def test_the_power_sum_is_the_multiprecision_sum(a):
    # sum_{n=2}^m n^-a = zeta(a, 2) - zeta(a, m + 1), both sides of the switch
    # from the running sum to Euler-Maclaurin at m = 20
    mpmath = pytest.importorskip("mpmath")
    ms = [2, 19, 20, 21, 10 ** 3, 10 ** 6 + 1]
    got = _power_sum(a, np.array(ms))
    with mpmath.workdps(40):
        for m, g in zip(ms, got.tolist()):
            want = float(mpmath.zeta(a, 2) - mpmath.zeta(a, m + 1))
            assert g == pytest.approx(want, rel=1e-15, abs=0), m


def test_the_lai_treil_paper_bound_is_the_multiprecision_bound():
    # C1 C2' (sum_{n=2}^{k+1} n^-2r)^(p/2-1) at k = 10^6, the last row
    mpmath = pytest.importorskip("mpmath")
    from dyadicsq.families import lai_treil_family

    p, r, k = 3.0, 0.4, 10 ** 6
    got = divergence_experiment("lai_treil", p, r, k_max=k).columns["paper_bound"][-1]
    pred = lai_treil_family(p, r).predicted
    with mpmath.workdps(40):
        zsum = mpmath.zeta(2 * r, 2) - mpmath.zeta(2 * r, k + 2)
        want = float(pred["partial_mass_c1"] * pred["partial_mass_c2"] * zsum ** (p / 2 - 1))
    assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("s", [1.05, 1.25, 1.5, 2.0, 2.75, 3.5])
def test_the_small_a_expansion_is_the_direct_series(s):
    # below a = ln2/64 the series is Gamma(s+1) a^-(s+1) + zeta(-s) - a zeta(-s-1),
    # whose first dropped term zeta(-s-2) a^2/2 is below 1e-10 of it
    for a in (LN2 / 65.0, LN2 / 200.0, LN2 / 1000.0):
        n = np.arange(1.0, math.ceil((40.0 * s + 60.0) / a) + 1.0)
        assert _exp_series(s, np.array([a]))[0] == pytest.approx(np.sum(n ** s * np.exp(-a * n)),
                                                                 rel=1e-10)


def test_direct_sum_divergence_report():
    rep = divergence_experiment("direct_sum", 4.0, k_max=2000)
    f = rep.columns["fnorm_p_partial"]
    s = rep.columns["snorm_p_partial"]
    assert np.all(np.diff(f) > 0) and np.all(np.diff(s) > 0)
    assert rep.columns["fnorm_p_tail_bound"][-1] < 1e-3
    fit = rep.fits["snorm_p_partial"]
    assert fit.slope > 0 and fit.max_residual < 0.1


def test_a_non_finite_direct_sum_series_raises_at_its_first_block():
    # past p = 100 the series' Gamma(s+1) a^-(s+1) and n^s overflow where
    # their factors underflow: every term is NaN, which raises, not a table
    # of NaN cells; at p = 100 every term is finite
    with pytest.raises(NonFiniteTermError, match=r"^non-finite snorm term nan of block 1, p 150"):
        divergence_experiment("direct_sum", 150.0, k_max=1000)
    rep = divergence_experiment("direct_sum", 100.0, k_max=1000)
    assert np.isfinite(rep.columns["snorm_p_partial"]).all()


def test_lai_treil_divergence_report():
    p = 3.0
    r = 0.4
    rep = divergence_experiment("lai_treil", p, r, k_max=20000)
    assert np.all(rep.columns["partial_mass"] >= rep.columns["paper_bound"])
    assert np.all(np.diff(rep.columns["partial_mass"]) > 0)
    target = (1.0 - 2.0 * r) * (p / 2.0 - 1.0)
    assert rep.fits["partial_mass"].slope > 0.5 * target


def test_divergence_windows_of_fewer_than_3_points_give_nan_fits():
    # the direct_sum window starts at K = 3, so k_max 3 and 4 leave 1 and 2
    # points in it, and lai_treil at k_max 2 leaves 2: no line through them,
    # and no RankWarning from one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = [divergence_experiment("direct_sum", 3.0, k_max=k).fits["snorm_p_partial"]
                for k in (3, 4)]
        fits.append(divergence_experiment("lai_treil", 3.0, 0.4, k_max=2).fits["partial_mass"])
        three = divergence_experiment("direct_sum", 3.0, k_max=5).fits["snorm_p_partial"]
    for fit in fits:
        assert all(math.isnan(v) for v in (fit.slope, fit.intercept, fit.max_residual, *fit.window))
    assert three.window == (3.0, 5.0) and math.isfinite(three.slope)


def test_divergence_validation():
    with pytest.raises(ValueError):
        divergence_experiment("lerner", 3.0, k_max=1000)
    with pytest.raises(ValueError):
        divergence_experiment("lai_treil", 3.0, 0.4, k_max=10 ** 7)
    # as for direct_sum_family: the fnorm series diverges at p <= 2, and the
    # tail bound came out negative (p < 2) or inf (p = 2)
    for p in (1.5, 2.0):
        with pytest.raises(ValueError, match="p must be > 2"):
            divergence_experiment("direct_sum", p, k_max=100)


def test_extension_constant_pair():
    res = extension_experiment("constant", 2.0, span=2, grid_step=2.0 ** -8)
    assert res["scan_max"] == pytest.approx(1.0, rel=1e-12)
    assert res["span_doubling_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_extension_power_pair_stability():
    res = extension_experiment("power_pair_i", 2.0, beta=0.5, span=2,
                               grid_step=2.0 ** -10)
    assert math.isfinite(res["scan_max"])
    assert 1.0 - 1e-12 <= res["span_doubling_ratio"] <= 1.01
    assert res["unit_cell_dyadic"] <= res["scan_max"] + 1e-12


def test_extension_lai_treil_case_a_floor():
    res = extension_experiment("lai_treil", 3.0, r=0.4, span=2, grid_step=2.0 ** -10)
    floor = 5.0 * math.log(2.0) * (4.0 / 9.0)
    assert res["scan_max"] >= floor - 1e-9


def test_extension_unknown_family():
    with pytest.raises(ValueError):
        extension_experiment("lerner", 3.0, span=1, grid_step=2.0 ** -6)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_the_table_declares_what_each_instance_carries(name):
    fam = FAMILIES[name]
    inst = fam.make(3.0, **fam.resolve(3.0, beta=0.5 if "beta" in fam.params else None))
    assert inst.name == name
    assert inst.sigma_f is not None or not fam.finite_snorm  # a snorm needs a test function
    assert (inst.sigma_f is not None) == (name not in ("power_pair_i", "power_pair_ii", "constant"))
    assert fam.finite_snorm == (name in ("lerner", "alternating"))  # S(sigma f) in L^p(w)
    assert set(fam.params) <= {"beta", "r"}  # the CLI's --beta and --r


def test_the_experiments_check_parameters_against_the_table():
    with pytest.raises(ValueError, match="power_pair_i requires --beta"):
        extension_experiment("power_pair_i", 3.0, span=1, grid_step=2.0 ** -6)
    with pytest.raises(ValueError, match="direct_sum takes no --beta"):
        extension_experiment("direct_sum", 3.0, span=1, grid_step=2.0 ** -6, beta=0.9)
    with pytest.raises(ValueError, match="direct_sum takes no --r"):
        divergence_experiment("direct_sum", 3.0, r=0.4, k_max=1000)
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        divergence_experiment("nope", 3.0, k_max=1000)
    assert divergence_experiment("lai_treil", 3.0, k_max=100).meta["r"] == default_r(3.0)


