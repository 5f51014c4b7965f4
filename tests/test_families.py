import math

import numpy as np
import pytest

from dyadicsq.density import LN2, Power, SignModulate, Constant
from dyadicsq.dyadic import spine
from dyadicsq.families import (
    CoefficientOverflowError,
    ExtensionHypothesisError,
    FamilyInstance,
    alternating_family,
    check_extension_hypotheses,
    direct_sum_coefficient,
    direct_sum_family,
    extend_to_line,
    lai_treil_family,
    lerner_family,
    power_pair,
)
from dyadicsq.density import average
from dyadicsq.squarefn import martingale_difference, spine_profile


def test_lerner_closed_forms():
    inst = lerner_family(3.0, 0.75)
    assert inst.predicted["fnorm_p"] == pytest.approx(4.0, rel=1e-14)
    assert inst.fnorm_p_density.integrate(0.0, 1.0) == pytest.approx(4.0, rel=1e-12)
    left, _ = martingale_difference(
        lerner_family(3.0, 0.5).sigma_f, spine(0))
    assert left == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-12)


def test_lerner_small_beta_limit():
    inst = lerner_family(3.0, 1e-9)
    assert inst.predicted["fnorm_p"] == pytest.approx(1.0, rel=1e-8)
    assert float(np.asarray(inst.w.value(0.5))) == pytest.approx(1.0, rel=1e-8)


def test_alternating_closed_forms():
    inst = alternating_family(4.0, 0.5)
    assert inst.predicted["fnorm_p"] == pytest.approx(2.0, rel=1e-14)
    for k in range(0, 25):
        assert average(inst.sigma_f, spine(k)) == pytest.approx((-1.0) ** k / 3.0, rel=1e-12)
    prof = spine_profile(inst.sigma_f, 40)
    for n in (1, 7, 40):
        assert float(prof.s[n]) == pytest.approx((2.0 / 3.0) * math.sqrt(n), rel=1e-12)


def test_alternating_magnitude_matches_lerner():
    # |f|^p sigma collapses to x^-beta, the lerner integrand, for the
    # alternating f = (-1)^floor(-log2 x) x^(-beta/(p-1))
    p, beta = 3.0, 0.7
    alt = alternating_family(p, beta)
    ler = lerner_family(p, beta)
    f = SignModulate(Power(1.0, -beta / (p - 1.0)))
    xs = np.linspace(0.01, 0.99, 199)
    got = np.abs(np.asarray(f.value(xs))) ** p * np.asarray(alt.sigma.value(xs))
    np.testing.assert_allclose(got, np.asarray(ler.fnorm_p_density.value(xs)), rtol=1e-11)


def test_power_pair_variants():
    p, beta = 2.0, 0.5
    i1 = power_pair(p, beta, "i")
    assert i1.predicted["spine_product"] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert i1.predicted["joint_ap_slope"] == 1.0
    i2 = power_pair(p, beta, "ii")
    assert i2.predicted["joint_ap_slope"] == p - 1.0
    assert isinstance(i2.sigma, Power) and i2.sigma.gamma == -beta
    with pytest.raises(ValueError):
        power_pair(p, beta, "iii")


def test_parameter_validation():
    for bad in (-0.1, 0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            lerner_family(3.0, bad)
    with pytest.raises(ValueError):
        lerner_family(1.0, 0.5)
    with pytest.raises(ValueError):
        lai_treil_family(2.0, 0.4)
    with pytest.raises(ValueError):
        lai_treil_family(3.0, 0.3)  # below 1/p
    with pytest.raises(ValueError):
        lai_treil_family(3.0, 0.55)
    with pytest.raises(ValueError):
        direct_sum_family(2.0)


def test_lai_treil_closed_forms():
    inst = lai_treil_family(3.0, 0.4)
    assert inst.predicted["fnorm_p"] == pytest.approx(5.0 * LN2, rel=1e-14)
    assert inst.fnorm_p_density.integrate(0.0, 1.0) == pytest.approx(5.0 * LN2, rel=1e-11)
    assert inst.predicted["w_spine_mass"](0) == pytest.approx(5.0 * LN2, rel=1e-13)
    assert inst.w.spine_mass(0) == pytest.approx(5.0 * LN2, rel=1e-12)
    # sigma*f is sigma times the pointwise f = (-1)^(n-1) x^(-1/(p-1)) (1 - log2 x)^-r
    # on J_n = [2^-n, 2^(1-n)), whose left end 2^-n (here 0.5) has the shell's sign
    xs = np.linspace(0.01, 0.99, 199)
    f = (-1.0) ** -np.frexp(xs)[1] * xs ** -0.5 * (1.0 - np.log2(xs)) ** -0.4
    assert f[np.searchsorted(xs, 0.3)] < 0.0  # J_2 has sign -1
    np.testing.assert_allclose(np.asarray(inst.sigma_f.value(xs)),
                               np.asarray(inst.sigma.value(xs)) * f, rtol=1e-12)


def test_lai_treil_case_a_product():
    inst = lai_treil_family(3.0, 0.4)
    val = inst.predicted["case_a_product"](1.0)
    assert val == pytest.approx(5.0 * LN2 * (4.0 / 9.0), rel=1e-13)


def test_direct_sum_coefficient_and_blocks():
    p = 4.0
    inst = direct_sum_family(p)
    for k in (1, 3, 7, 15):
        assert inst.fnorm_p_density.piece_mass(k) == pytest.approx(k ** (-p / 2.0), rel=1e-10)
        assert direct_sum_coefficient(k, p) == pytest.approx(
            k ** (-0.5 - 1.0 / p) * 2.0 ** (k / p), rel=1e-14)
    for k in (2, 4, 10):
        assert inst.fnorm_p_density.piece_mass(k) == 0.0


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_direct_sum_weights_at_the_left_end_of_a_mirrored_shell(p):
    # 2^-k, k even, is where a mirrored block's u reaches 1, just outside its
    # support: the weights take the block's limit there, not 0
    inst = direct_sum_family(p)
    for g in (inst.w, inst.sigma):
        for k in range(2, 21, 2):
            x = 2.0 ** -k
            want = float(g.value(np.nextafter(x, 1.0)))
            assert want > 0.0 and float(g.value(x)) == pytest.approx(want, rel=1e-15), k
            assert g.value(np.array([x]))[0] == g.value(x)


@pytest.mark.parametrize("p, shell", [(2.5, 1037), (3.0, 1041), (4.0, 1045)])
def test_direct_sum_fnorm_density_past_the_largest_double_names_its_shell(p, shell):
    # c_k^p / (1 - beta_k) overflows on deep odd shells though the shell
    # mass k^(-p/2) does not: a ValueError (CLI exit 3) naming the shell
    g = direct_sum_family(p).fnorm_p_density
    assert g.piece_mass(shell - 2) == pytest.approx((shell - 2) ** (-p / 2.0), rel=1e-10)
    assert issubclass(CoefficientOverflowError, ValueError)
    with pytest.raises(CoefficientOverflowError, match=rf"shell J_{shell} overflows"):
        g.primitive(2.0 ** -1060)
    with pytest.raises(CoefficientOverflowError, match=rf"shell J_{shell} "):
        g.value(2.0 ** -shell * 1.5)


def test_direct_sum_weight_shell_masses():
    inst = direct_sum_family(3.0)
    for k in range(1, 20):
        assert inst.w.piece_mass(k) == pytest.approx(2.0 ** -k, rel=1e-12)
    assert inst.w.primitive(1.0) == pytest.approx(1.0, rel=1e-11)


def test_direct_sum_additivity_across_shell_boundaries():
    inst = direct_sum_family(3.0)
    for g in (inst.w, inst.sigma):
        for b in (2.0 ** -2, 2.0 ** -5):
            whole = g.integrate(b / 4.0, 4.0 * b)
            parts = sum(g.integrate(a, 2 * a) for a in (b / 4.0, b / 2.0, b, 2.0 * b))
            assert parts == pytest.approx(whole, rel=1e-11)


def test_direct_sum_shell3_block():
    # J_3 carries the pullback of (1/3) x^(-2/3)
    inst = direct_sum_family(3.0)
    h = 1e-4
    x = 2.0 ** -3 + h
    u = (x - 2.0 ** -3) / 2.0 ** -3
    assert float(np.asarray(inst.w.value(x))) == pytest.approx(u ** (-2.0 / 3.0) / 3.0, rel=1e-12)


def test_direct_sum_matched_singularity_exponents():
    # approaching 2^-3 from either side, the weight blows up with the same
    # exponent beta_3 = 2/3 (the even shell carries a mirrored block 3 copy)
    inst = direct_sum_family(3.0)

    def local_exponent(side):
        hs = np.array([1e-5, 2e-5])
        vals = np.asarray(inst.w.value(2.0 ** -3 + side * hs))
        return math.log(vals[0] / vals[1]) / math.log(2.0)

    assert local_exponent(+1.0) == pytest.approx(2.0 / 3.0, rel=1e-3)
    assert local_exponent(-1.0) == pytest.approx(2.0 / 3.0, rel=1e-3)


def test_extend_to_line_reflects():
    inst = power_pair(2.0, 0.5, "ii")  # w = x^(1/2)
    ext = extend_to_line(inst)
    assert ext.name == "extended(power_pair_ii)"
    assert float(np.asarray(ext.w.value(1.75))) == pytest.approx(0.5, rel=1e-12)
    ts = np.arange(1, 1000) / 1024.0
    for k in (0, 1, 2):
        np.testing.assert_array_equal(np.asarray(ext.w.value(k - ts)),
                                      np.asarray(ext.w.value(k + ts)))
    checks = ext.predicted["extension_checks"]
    assert checks["hyp2_max_ratio"] < math.inf
    assert checks["x0"] == 0.5


def test_extend_to_line_x0_defaults():
    from dyadicsq.experiments import FAMILIES

    assert extend_to_line(lai_treil_family(3.0, 0.4)).predicted["extension_checks"]["x0"] == 0.5
    x0 = FAMILIES["direct_sum"].extension_x0
    assert extend_to_line(direct_sum_family(3.0), x0).predicted["extension_checks"]["x0"] == 0.75
    with pytest.raises(ValueError):
        extend_to_line(power_pair(2.0, 0.5, "i"), x0=0.25)


def test_extension_hypothesis_failure_detected():
    # a deliberately unmatched pair: both weights singular, ratio grows in k
    bad = FamilyInstance("bad", 2.0, Power(1.0, -0.9), Power(1.0, -0.9), None, None, {})
    with pytest.raises(ExtensionHypothesisError):
        check_extension_hypotheses(bad, 0.5)
