import collections
import functools
import math
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyadicsq.characteristics as ch
from dyadicsq.characteristics import (
    CharacteristicEstimate,
    NonFiniteCandidateError,
    _checked_max,
    _cumulative_on_grid,
    _pair_scan_max,
    _singular_pair_maxima,
    dyadic_ainfty,
    dyadic_joint_ap,
    interval_scans_joint_ap,
    spine_joint_ap,
    spine_joint_ap_values,
)
from dyadicsq.density import Constant, Density, PeriodicReflect, PiecewiseDyadic, Power


def _one_span_scan(w, sigma, p, span, grid_step):
    """The interval scan of one span."""
    return interval_scans_joint_ap(w, sigma, p, (span,), grid_step)[0]


def test_estimate_rejects_negative():
    with pytest.raises(ValueError):
        CharacteristicEstimate(-0.5)


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


@pytest.mark.parametrize("family", ["lerner", "alternating"])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("j", [8, 9])
def test_spine_product_at_the_sweep_depth_is_the_closed_form(family, p, j):
    # at n_max = 32/(1 - beta), the scaling sweep's depth, the deep spine
    # averages of one weight are subnormal in extended precision; before they
    # were dropped, lerner p = 4 at j = 8 came out 7.5% above this supremum
    from dyadicsq.experiments import _sweep_n_max
    from dyadicsq.families import alternating_family, lerner_family

    beta = 1.0 - 2.0 ** -j
    if family == "lerner":  # sigma = x^-beta, w = x^(beta(p-1))
        inst = lerner_family(p, beta)
        want = (1.0 + beta * (p - 1.0)) ** -1.0 * (1.0 - beta) ** (1.0 - p)
    else:  # w = x^-beta, sigma = x^(beta/(p-1))
        inst = alternating_family(p, beta)
        want = (1.0 - beta) ** -1.0 * (1.0 + beta / (p - 1.0)) ** (1.0 - p)
    got = spine_joint_ap(inst.w, inst.sigma, p, _sweep_n_max(beta)).value
    assert got == pytest.approx(want, rel=1e-12)


def test_an_overflowed_spine_product_is_a_precondition_error():
    # near I_16384 the extended-precision spine averages of w = x^-beta overflow
    from dyadicsq.families import alternating_family

    inst = alternating_family(3.0, 1.0 - 2.0 ** -10)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteCandidateError, match="n_max 32768"):
        spine_joint_ap(inst.w, inst.sigma, 3.0, 32768)


def test_muckenhoupt_constant():
    # [w]_{A_p} is the joint characteristic of w and its dual weight w^(-1/(p-1))
    assert dyadic_joint_ap(Constant(1.0), Constant(1.0), 2.0, 8).value == \
        pytest.approx(1.0, rel=1e-12)


def test_muckenhoupt_power_bracket():
    est = dyadic_joint_ap(Power(1.0, -0.5), Power(1.0, 0.5), 2.0, 16)
    assert 2.0 / math.e - 1e-12 <= est.value <= 2.0 + 1e-12
    assert est.value >= 1.0 - 1e-10


def test_muckenhoupt_duality():
    # [w]_{A_p} = [sigma]_{A_p'}^(p-1) for w and its dual weight sigma = w^(-1/(p-1))
    p, beta = 3.0, 0.6
    w = Power(1.0, beta * (p - 1.0))
    sigma = Power(1.0, -beta)
    pp = p / (p - 1.0)
    direct = dyadic_joint_ap(w, sigma, p, 14).value
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
    est = _one_span_scan(w, w, 2.0, span=2, grid_step=2.0 ** -6)
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_scan_monotone_in_span_and_grid():
    p, beta = 2.0, 0.5
    w = PeriodicReflect(Power(1.0, -beta))
    sigma = PeriodicReflect(Power(1.0, beta))
    coarse = _one_span_scan(w, sigma, p, span=2, grid_step=2.0 ** -6).value
    fine = _one_span_scan(w, sigma, p, span=2, grid_step=2.0 ** -8).value
    wide = _one_span_scan(w, sigma, p, span=4, grid_step=2.0 ** -8).value
    assert coarse <= fine + 1e-12
    assert fine <= wide + 1e-12


def test_scan_dominates_dyadic():
    # the scan grid contains every dyadic endpoint up to its resolution
    p, beta = 2.0, 0.5
    w, sigma = Power(1.0, -beta), Power(1.0, beta)
    dy = dyadic_joint_ap(w, sigma, p, 8).value
    sc = _one_span_scan(PeriodicReflect(w), PeriodicReflect(sigma), p,
                        span=2, grid_step=2.0 ** -8).value
    assert sc >= dy - 1e-12


def test_scan_rejects_bad_grid():
    w = PeriodicReflect(Constant(1.0))
    with pytest.raises(ValueError):
        _one_span_scan(w, w, 2.0, span=2, grid_step=0.3)


def test_nan_candidates_raise_instead_of_vanishing():
    from dyadicsq.characteristics import NonFiniteCandidateError

    with pytest.raises(NonFiniteCandidateError, match="depth 3"):
        dyadic_joint_ap(Constant(float("nan")), Constant(1.0), 3.0, 3)
    with np.errstate(invalid="ignore"):  # the zero weight makes every ratio 0/0
        with pytest.raises(NonFiniteCandidateError, match="depth 3"):
            dyadic_ainfty(Constant(0.0), depth=3)
        with pytest.raises(NonFiniteCandidateError, match="root I_0, n_max 8"):
            dyadic_ainfty(Constant(0.0), mode="radial", n_max=8)


# ---------------------------------------------------------------------------
# the interval scan against a brute-force oracle


def _brute_force_scan(xs, cw, cs, p, n_rows=None):
    """Every grid pair, one pass per lag: the reference the branch-and-bound
    must reproduce bit for bit (it drops a lag whose maximum is NaN)."""
    n = xs.size
    h = float(xs[1] - xs[0])
    rows = n - 1 if n_rows is None else min(n_rows, n - 1)
    q = p - 1.0
    int_q = int(round(q)) if abs(q - round(q)) < 1e-12 and 1 <= round(q) <= 4 else 0
    best = 0.0
    for lag in range(1, n):
        m = min(rows, n - lag)
        dw = cw[lag : lag + m] - cw[:m]
        ds = cs[lag : lag + m] - cs[:m]
        if int_q:
            v = ds.copy()
            for _ in range(int_q - 1):
                v *= ds
        else:
            v = np.power(ds, q)
        v *= dw
        top = float(v.max()) / (h * lag) ** p
        if top > best:
            best = top
    return best


class _Steps(Density):
    """Piecewise constant on equal cells of [0, 1)."""

    def __init__(self, heights):
        self.heights = np.asarray(heights, dtype=float)
        self.edges = np.linspace(0.0, 1.0, self.heights.size + 1)
        self.mass = np.concatenate([[0.0], np.cumsum(self.heights / self.heights.size)])

    def primitive(self, t):
        return np.interp(t, self.edges, self.mass)


_SCAN_PS = st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0])
_HEIGHTS = st.lists(st.floats(0.01, 100.0), min_size=1, max_size=16)


def _two_point_mass(g, a, b):
    """A periodized mass as one two-point cumulative from floor(a)."""
    lo, hi = g.cumulative(np.array([a, b]), math.floor(a))
    return float(hi - lo)


def _avg_product(w, sigma, p, a, b):
    length = b - a
    return (_two_point_mass(w, a, b) / length) * (_two_point_mass(sigma, a, b) / length) ** (p - 1.0)


def _singular_pair_max(w, sigma, p, span):
    """The singular probes one scalar mass pair at a time: the reference the
    vectorized probe set must reproduce bit for bit."""
    best = 0.0
    for c in range(-span, span + 1):
        if c % 2:
            continue
        for j in range(0, 44):
            h = 2.0 ** (-j)
            for a, b in ((c, c + h), (c - h, c), (c - h, c + h)):
                if -span <= a and b <= span:
                    best = max(best, _avg_product(w, sigma, p, a, b))
    return best


def _scan_parts(w, sigma, p, span, step):
    xs, cw, cs = _cumulative_on_grid(w, sigma, span, step)
    return xs, cw, cs, int(round(2.0 / step)), _singular_pair_max(w, sigma, p, span)


@settings(max_examples=25, deadline=None)
@given(_HEIGHTS, _HEIGHTS, _SCAN_PS, st.integers(1, 3), st.integers(4, 9))
def test_scan_is_the_brute_force_maximum_periodic(hw, hs, p, span, k):
    w, sigma = PeriodicReflect(_Steps(hw)), PeriodicReflect(_Steps(hs))
    xs, cw, cs, n_rows, singular = _scan_parts(w, sigma, p, span, 2.0 ** -k)
    got = _one_span_scan(w, sigma, p, span, 2.0 ** -k).value
    assert got == max(_brute_force_scan(xs, cw, cs, p, n_rows), singular)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_scan_constant_pair_every_candidate_ties(p):
    w = PeriodicReflect(Constant(1.0))
    xs, cw, cs, n_rows, singular = _scan_parts(w, w, p, 2, 2.0 ** -9)
    got = _one_span_scan(w, w, p, 2, 2.0 ** -9).value
    assert got == max(_brute_force_scan(xs, cw, cs, p, n_rows), singular)
    assert got == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(_HEIGHTS, _HEIGHTS, st.sampled_from([2.0, 3.0, 4.0]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1024, 256, 700]))  # 1024: every row
def test_scan_with_rounding_level_steps_down(hw, hs, p, seed, n_rows):
    # zero cells make runs of equal cumulative values, which a few ulps of
    # noise turn into steps down; at integer p - 1 a negative increment
    # still has a finite power (at fractional p - 1 it is NaN, and the brute
    # force drops its whole lag)
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, 1025)
    cw = _Steps(hw + [0.0]).primitive(xs) + 3.0
    cs = _Steps([0.0] + hs).primitive(xs) + 3.0
    for c in (cw, cs):
        c += rng.integers(-3, 4, c.size) * np.spacing(c)
    assert (np.diff(cw) < 0).any() or (np.diff(cs) < 0).any()
    assert _pair_scan_max(xs, cw, cs, p, n_rows) == _brute_force_scan(xs, cw, cs, p, n_rows)


@pytest.mark.parametrize("k", [1, 31, 600, 1023])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_scan_of_a_single_rounding_bump(k, p):
    # sigma has no mass: its cumulative is flat but for one value an ulp
    # high, so only the pairs ending or starting at k have a nonzero value,
    # and a bound that trusted the cumulative to be monotone would be 0
    xs = np.linspace(0.0, 1.0, 1025)
    cw = xs + 1.0
    cs = np.full(xs.size, 3.0)
    cs[k] = np.nextafter(3.0, 4.0)
    assert _pair_scan_max(xs, cw, cs, p, xs.size - 1) == _brute_force_scan(xs, cw, cs, p) > 0.0


def test_scan_floor_above_every_grid_value():
    xs = np.linspace(0.0, 1.0, 2049)
    cw, cs = Power(1.0, -0.5).primitive(xs), Power(1.0, 0.5).primitive(xs)
    brute = _brute_force_scan(xs, cw, cs, 2.5)
    rows = xs.size - 1
    assert _pair_scan_max(xs, cw, cs, 2.5, rows, floor=0.5 * brute) == brute
    assert _pair_scan_max(xs, cw, cs, 2.5, rows, floor=brute) == brute
    assert _pair_scan_max(xs, cw, cs, 2.5, rows, floor=2.0 * brute) == 2.0 * brute


@settings(max_examples=25, deadline=None)
@given(_HEIGHTS, _HEIGHTS, _SCAN_PS, st.integers(1, 256))
def test_scan_with_settled_pairs_below_the_floor(hw, hs, p, settled):
    # the pairs with right end <= settled are those of the prefix grid; with
    # their maximum as floor, skipping them leaves the brute-force maximum
    xs = np.linspace(0.0, 1.0, 257)
    cw, cs = _Steps(hw).primitive(xs), _Steps(hs).primitive(xs)
    end = settled + 1
    floor = _brute_force_scan(xs[:end], cw[:end], cs[:end], p)
    assert _pair_scan_max(xs, cw, cs, p, xs.size - 1, floor=floor, settled=settled) == \
        max(_brute_force_scan(xs, cw, cs, p), floor)


def test_scan_prunes_most_pairs(monkeypatch):
    # a silent fall back to evaluating every pair must fail here, not only
    # in the benchmark: 0.22 of the grid pairs are evaluated at this size
    import dyadicsq.characteristics as ch
    from dyadicsq.families import extend_to_line, power_pair

    evaluated = []
    exact_max = ch._PairScan.exact_max

    def counting(self, row_range, lag_range, best):
        evaluated.append((row_range[1] - row_range[0]) * (lag_range[1] - lag_range[0]))
        return exact_max(self, row_range, lag_range, best)

    monkeypatch.setattr(ch._PairScan, "exact_max", counting)
    ext = extend_to_line(power_pair(3.0, 0.5, "i"))
    step = 2.0 ** -10
    _one_span_scan(ext.w, ext.sigma, 3.0, 2, step)
    n, rows = 4 * 2 ** 10 + 1, 2 ** 11
    grid_pairs = sum(min(rows, n - lag) for lag in range(1, n))
    assert 0 < sum(evaluated) <= grid_pairs / 4


def test_scan_nan_cumulative_raises():
    from dyadicsq.characteristics import NonFiniteCandidateError

    class Holed(_Steps):
        """Unit density whose mass below ``hole`` is NaN."""

        def __init__(self, hole):
            super().__init__([1.0])
            self.hole = hole

        def primitive(self, t):
            return np.where(np.asarray(t) == self.hole, np.nan, super().primitive(t))

    w = PeriodicReflect(Constant(1.0))
    # 3/4 is a grid point that no singular probe reaches
    with pytest.raises(NonFiniteCandidateError, match=r"\[-2, 2\], step 2\^-4"):
        _one_span_scan(w, PeriodicReflect(Holed(0.75)), 3.0, span=2, grid_step=2.0 ** -4)
    # 1/8 is also a probe point, and the probes at the singular points come first
    with pytest.raises(NonFiniteCandidateError, match="singular probe"):
        _one_span_scan(w, PeriodicReflect(Holed(0.125)), 3.0, span=2, grid_step=2.0 ** -4)


# ---------------------------------------------------------------------------
# the span and 2*span scans of extension-check from one pass, and the
# vectorized singular probes


_ALL_PS = (1.5, 2.0, 2.5, 3.0, 4.0)
_FAMILY_PS = {"lai_treil": (2.5, 3.0, 4.0), "power_pair_i": _ALL_PS, "power_pair_ii": _ALL_PS,
              "direct_sum": (2.5, 3.0, 4.0), "constant": _ALL_PS}


@functools.cache
def _extended(family, p):
    from dyadicsq.experiments import FAMILIES
    from dyadicsq.families import extend_to_line

    fam = FAMILIES[family]
    params = {"beta": 0.5} if "beta" in fam.params else {}
    return extend_to_line(fam.make(p, **fam.resolve(p, **params)), fam.extension_x0)


# the constant pair cannot be pruned (every candidate ties), so one grid only
_SHARED_CASES = [(f, p, span, k) for f, ps in _FAMILY_PS.items() for p in ps
                 for span in (1, 2, 3, 4) for k in ((8,) if f == "constant" else (8, 10))]


@pytest.mark.parametrize("family, p, span, k", _SHARED_CASES)
def test_shared_scans_are_two_independent_scans(family, p, span, k):
    ext = _extended(family, p)
    got = interval_scans_joint_ap(ext.w, ext.sigma, p, (span, 2 * span), 2.0 ** -k)
    want = [_one_span_scan(ext.w, ext.sigma, p, s, 2.0 ** -k) for s in (span, 2 * span)]
    assert [e.value for e in got] == [e.value for e in want]
    assert got == want


@settings(max_examples=25, deadline=None)
@given(_HEIGHTS, _HEIGHTS, _SCAN_PS, st.sets(st.integers(1, 4), min_size=1), st.integers(4, 7))
def test_shared_scans_of_any_spans_are_the_single_scans(hw, hs, p, spans, k):
    w, sigma = PeriodicReflect(_Steps(hw)), PeriodicReflect(_Steps(hs))
    spans = sorted(spans)
    got = interval_scans_joint_ap(w, sigma, p, spans, 2.0 ** -k)
    assert got == [_one_span_scan(w, sigma, p, s, 2.0 ** -k) for s in spans]


@pytest.mark.parametrize("span", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["lai_treil", "power_pair_i", "power_pair_ii", "direct_sum"])
def test_even_span_pass_is_a_prefix_of_the_doubled_pass(family, span):
    # the grids -2s + h i and -s + h i differ by s: whole periods for even s,
    # a reflection for odd s
    ext = _extended(family, 3.0)
    small = _cumulative_on_grid(ext.w, ext.sigma, span, 2.0 ** -8)
    big = _cumulative_on_grid(ext.w, ext.sigma, 2 * span, 2.0 ** -8)
    end = small[0].size
    same = [np.array_equal(c, d[:end]) for c, d in zip(small[1:], big[1:])]
    assert same == [span % 2 == 0] * 2


_POINTS = st.one_of(st.floats(-8.0, 8.0), st.integers(-8, 8).map(float))
_INTERVALS = st.one_of(
    st.tuples(_POINTS, _POINTS),
    # short intervals next to or straddling an integer
    st.builds(lambda n, j, u, v: (n - u * 2.0 ** -j, n + v * 2.0 ** -j),
              st.integers(-7, 7), st.integers(0, 43), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
).filter(lambda ab: ab[0] < ab[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["lai_treil", "power_pair_i", "direct_sum"]),
       st.lists(_INTERVALS, min_size=1, max_size=24))
# the least double 2^-1074 lies in the shell J_1075, past every glued piece
@example(family="direct_sum", intervals=[(0.0, 5e-324)])
def test_masses_are_integrate_to_the_bit(family, intervals):
    # the scalar integral of a periodized density is one two-point cumulative
    ext = _extended(family, 3.0)
    a, b = (np.array(x) for x in zip(*intervals))
    for g in (ext.w, ext.sigma):
        assert g.masses(a, b).tolist() == [_two_point_mass(g, x, y) for x, y in intervals]


def test_masses_reject_empty_intervals():
    g = PeriodicReflect(Constant(1.0))
    with pytest.raises(ValueError, match="empty interval"):
        g.masses([0.0, 1.0], [0.5, 1.0])
    with pytest.raises(ValueError, match="empty interval"):
        g.masses(2.0, -1.0)


@pytest.mark.parametrize("family, p", [(f, p) for f, ps in _FAMILY_PS.items() for p in ps])
def test_vectorized_probes_are_the_scalar_probes(family, p):
    ext = _extended(family, p)
    for span in (1, 3, 4):
        assert _singular_pair_maxima(ext.w, ext.sigma, p, (span, 2 * span)) == \
            [_singular_pair_max(ext.w, ext.sigma, p, s) for s in (span, 2 * span)]


@pytest.mark.parametrize("c, p", [(7.0, 2.5), (10.0, 3.5), (2.5, 3.5), (3.0, 3.0)])
def test_probe_product_is_the_float_power(c, p):
    # every probe of this pair averages 1 and c exactly, so each maximum is
    # the Python float c ** (p - 1); numpy's power can differ from it in the
    # last bit at some of these (c, p)
    w, sigma = PeriodicReflect(Constant(1.0)), PeriodicReflect(Constant(c))
    assert _singular_pair_maxima(w, sigma, p, (1, 2, 4)) == [c ** (p - 1.0)] * 3


class _Spiked(PeriodicReflect):
    """A periodized density plus unit mass on [at - 2^-30, at + 2^-30): not
    periodic, so only the probes of a span reaching ``at`` see the spike."""

    def __init__(self, inner, at):
        super().__init__(inner)
        self.at = at

    def cumulative(self, xs, x0):
        def ramp(x):
            return np.clip((np.asarray(x, dtype=float) - self.at) * 2.0 ** 29 + 0.5, 0.0, 1.0)

        return super().cumulative(xs, x0) + ramp(xs) - ramp(x0)


def test_doubled_scan_starts_from_the_doubled_probes():
    # the probes at 6 average about 2^29, grid intervals at most 2^8
    w, sigma, step = _Spiked(Constant(1.0), 6.0), PeriodicReflect(Constant(1.0)), 2.0 ** -8
    single, doubled = interval_scans_joint_ap(w, sigma, 2.0, (4, 8), step)
    assert single.value < 2.0 ** 9
    assert doubled.value == _one_span_scan(w, sigma, 2.0, 8, step).value >= 2.0 ** 28


@pytest.mark.parametrize("family", ["lai_treil", "power_pair_i"])
def test_doubled_scan_skips_the_settled_pairs(monkeypatch, family):
    import dyadicsq.characteristics as ch

    evaluated = collections.Counter()  # exact pairs by grid size
    exact_max = ch._PairScan.exact_max

    def counting(self, row_range, lag_range, best):
        evaluated[self.cw.size] += (row_range[1] - row_range[0]) * (lag_range[1] - lag_range[0])
        return exact_max(self, row_range, lag_range, best)

    monkeypatch.setattr(ch._PairScan, "exact_max", counting)
    ext = _extended(family, 3.0)
    interval_scans_joint_ap(ext.w, ext.sigma, 3.0, (4, 8), 2.0 ** -10)
    single, doubled = evaluated[8 * 2 ** 10 + 1], evaluated[16 * 2 ** 10 + 1]
    assert single > 0 and doubled <= single / 10


def test_extension_experiment_makes_no_scalar_integrate_call(monkeypatch):
    from dyadicsq.experiments import extension_experiment

    calls = []
    integrate = Density.integrate

    def counting(self, a, b):
        if isinstance(self, PeriodicReflect):
            calls.append((a, b))
        return integrate(self, a, b)

    monkeypatch.setattr(Density, "integrate", counting)
    out = extension_experiment("lai_treil", 3.0, span=2, grid_step=2.0 ** -8)
    assert calls == []
    assert out["scan_max_doubled"] >= out["scan_max"] > 0.0


# ---------------------------------------------------------------------------
# the radial A_infty against a per-root reference and the x^-beta closed form


def _per_root_candidates(i_avg, j_avg, n_max, root_max):
    """(m, candidate of root I_m) with the weights 2^(m-n) raised afresh for
    every root and every root's terms summed on their own: the reference the
    suffix pass must reproduce within rounding, and raise where it raises."""
    for m in range(min(root_max, n_max - 2) + 1):
        cm = np.maximum.accumulate(i_avg[m:n_max])
        mvals = np.maximum(cm, j_avg[m + 1 : n_max + 1])
        n = np.arange(m + 1, n_max + 1)
        weights = np.exp2(np.longdouble(m) - np.asarray(n, dtype=np.longdouble))
        yield m, float(np.sum(mvals * weights) / i_avg[m])


def _rounding(n_max, top):
    """Relative distance of a radial candidate, as a double, from the exact one.

    Both the reference and the suffix pass sum nonnegative terms
    max(C, J) 2^-(k+1) in extended precision (unit roundoff u = 2^-64), the
    products by a power of two being exact.  Every term passes through at
    most n_max + top + 2 roundings on its way to the sum divided by I_m: in
    the reference at most n_max - 1 additions and the division; in the
    suffix pass at most n_max - top - 1 additions of the reversed cumsum (or
    of a stretch summed one by one), two to join a root's own term, led
    terms and the sum it takes over, one per root up the chain (at most
    top), two for a closed-form led sum and one for the division.  A sum of
    nonnegative terms so rounded is within (n_max + top + 2) u / (1 - (n_max
    + top + 2) u) of the exact one, and the rounding to double adds 2^-53:
    this returns that bound, with 2^-40 of slack for the quadratic terms.
    Terms that underflow, or lie past the first weight that is 0, are
    dropped by either side; on the spines tested here (averages within 2^60
    of each other, or powers x^gamma with |gamma| <= 1/2) they are less than
    2^-9000 of the sum, which the 2^-1000 added covers.
    """
    return (n_max + top + 2) * 2.0 ** -64 * (1 + 2.0 ** -40) + 2.0 ** -53 + 2.0 ** -1000


def _assert_within_rounding(got, want, n_max, top):
    """got and want each within eps = _rounding(n_max, top) of the exact x,
    so |got - want| <= 2 eps |x| <= 2 eps / (1 - eps) |want|.  The bound is
    for finite values only: an inf or NaN on either side must be matched
    exactly (NaN by NaN)."""
    if not (math.isfinite(got) and math.isfinite(want)):
        assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)
        return
    eps = _rounding(n_max, top)
    assert got == want or abs(got - want) <= 2 * eps / (1 - eps) * abs(want), (got, want)


def _root_max(root_max):
    """The radial A_infty with roots I_0..I_root_max, within the block."""
    return unittest.mock.patch.object(ch, "RADIAL_ROOT_MAX", root_max)


def _closed_form_shells(sigma, n_max):
    """The averages over J_1..J_(n_max) at 1..n_max, NaN at 0, each from its
    own formula, never from the spine: c (2^(gamma+1) - 1)/(gamma+1) 2^(-gamma n)
    for a Power (with expm1, exact to a few extended ulps), c for a Constant,
    and the shell masses of a gluing."""
    out = np.full(n_max + 1, np.nan, dtype=np.longdouble)
    if isinstance(sigma, Power):
        g = np.longdouble(sigma.gamma)
        coef = np.longdouble(sigma.c) * np.expm1((g + 1) * np.log(np.longdouble(2))) / (g + 1)
        with np.errstate(over="ignore"):
            out[1:] = coef * np.exp2(-g * np.arange(1, n_max + 1, dtype=np.longdouble))
    elif isinstance(sigma, Constant):
        out[1:] = sigma.c
    else:
        assert isinstance(sigma, PiecewiseDyadic)
        out[1:] = sigma._shell_avgs(1, n_max)
    return out


def _per_root_radial(sigma, n_max, root_max):
    """The per-root radial A_infty with the shells of their closed forms,
    with max() (which drops a NaN candidate)."""
    best = 0.0
    spine = sigma.spine_averages(n_max), _closed_form_shells(sigma, n_max)
    for _, value in _per_root_candidates(*spine, n_max, root_max):
        best = max(best, value)
    return best


@functools.cache
def _family_weights():
    from dyadicsq.families import alternating_family, direct_sum_family

    out = {}
    for name, inst in (("alternating", alternating_family(3.0, 0.875)),
                       ("direct_sum", direct_sum_family(3.0))):
        out[f"{name}_w"], out[f"{name}_sigma"] = inst.w, inst.sigma
    return out


_RADIAL_SIGMAS = st.one_of(
    st.builds(Power, st.floats(0.1, 10.0), st.floats(-0.95, 2.0)),
    st.builds(Constant, st.floats(0.1, 10.0)),
    st.sampled_from(["alternating_w", "alternating_sigma", "direct_sum_w", "direct_sum_sigma"]),
)


@settings(max_examples=40, deadline=None)
@given(_RADIAL_SIGMAS, st.integers(1, 900), st.integers(0, 40))
def test_radial_ainfty_is_the_per_root_reference(sigma, n_max, root_max):
    # the radial derives its shells from the spine, the reference takes them
    # from their closed forms: see test_the_derived_shells_give_the_per_root_outcome
    if isinstance(sigma, str):
        sigma = _family_weights()[sigma]
    with _root_max(root_max):
        got = dyadic_ainfty(sigma, mode="radial", n_max=n_max).value
    _assert_within_rounding(got, _per_root_radial(sigma, n_max, root_max), n_max, root_max)


class _SpineStub:
    """A density that is nothing but the spine averages it was given."""

    def __init__(self, i_avg):
        self.i_avg = i_avg

    def spine_averages(self, n_max):
        return self.i_avg


def _outcome(f):
    """("value", f()) or ("raise", the NonFiniteCandidateError message)."""
    try:
        return "value", f()
    except NonFiniteCandidateError as exc:
        return "raise", str(exc)


def _assert_same_outcome(got, want, n_max, top):
    """The same raise and message, or values within rounding."""
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
    else:
        _assert_within_rounding(got[1], want[1], n_max, top)


def _checked_reference(i_avg, j_avg, n_max, root_max):
    """The radial A_infty of the per-root candidates, raising at the first NaN."""
    best = 0.0
    for m, value in _per_root_candidates(i_avg, j_avg, n_max, root_max):
        best = _checked_max(best, value, f"root I_{m}, n_max {n_max}")
    return best


def _radial_outcomes(i_avg, j_avg, n_max, root_max):
    """(suffix pass, per-root reference) outcomes of one spine whose shell
    averages j_avg stand in for those the radial derives from i_avg."""
    stub = _SpineStub(i_avg)
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _checked_reference(i_avg, j_avg, n_max, root_max))
        with _root_max(root_max), unittest.mock.patch.object(ch, "_shell_averages",
                                                             lambda _: j_avg):
            got = _outcome(lambda: dyadic_ainfty(stub, mode="radial", n_max=n_max).value)
    return got, want


def _random_spine(rng, n_max, shape):
    """n_max + 1 positive extended-precision averages in [2^-60, 2^60]: small
    enough that no weighted term of a spine of depth 3000 is subnormal."""
    if shape == "walk":  # long monotone runs both ways
        logs = np.clip(np.cumsum(rng.normal(0.0, 2.0, n_max + 1)), -60.0, 60.0)
    else:
        logs = rng.uniform(-60.0, 60.0, n_max + 1)
        logs = {"random": logs, "rising": np.sort(logs), "falling": -np.sort(-logs)}[shape]
    return np.exp2(logs.astype(np.longdouble))


_HOLES = st.lists(st.tuples(st.sampled_from(["i", "j"]), st.floats(0.0, 1.0),
                            st.sampled_from([0.0, math.inf, math.nan, -math.inf])), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["random", "walk", "rising", "falling"]), _HOLES)
def test_radial_ainfty_is_the_checked_per_root_reference_on_any_spine(n_max, root_max, seed,
                                                                      shape, holes):
    # non-monotone spines with zeros, infinities and NaNs: the same value
    # within rounding, or the same first NaN root in ascending order, as
    # every root on its own
    rng = np.random.default_rng(seed)
    spine = {"i": _random_spine(rng, n_max, shape), "j": _random_spine(rng, n_max, shape)}
    spine["j"][0] = np.nan
    for which, where, value in holes:
        spine[which][round(where * n_max)] = value
    got, want = _radial_outcomes(spine["i"], spine["j"], n_max, root_max)
    _assert_same_outcome(got, want, n_max, min(root_max, n_max - 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3000), st.integers(0, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["random", "walk", "rising", "falling"]))
def test_radial_candidates_are_the_per_root_candidates(n_max, root_max, seed, shape):
    # one suffix pass from the deepest root up gives every root the candidate
    # of its own fresh maximum.accumulate and sum, within rounding
    rng = np.random.default_rng(seed)
    i_avg, j_avg = _random_spine(rng, n_max, shape), _random_spine(rng, n_max, shape)
    j_avg[0] = np.nan
    top = min(root_max, n_max - 2)
    got = ch._radial_candidates(i_avg, j_avg, n_max, top)
    want = [value for _, value in _per_root_candidates(i_avg, j_avg, n_max, root_max)]
    assert len(got) == len(want) == top + 1
    for g, w in zip(got.tolist(), want):
        _assert_within_rounding(g, w, n_max, top)


def _exact_candidates(i_avg, j_avg, n_max, top):
    """The candidate of each root I_m, m = 0..top, as a Fraction: the averages
    are dyadic rationals, summed as integers over the common denominator."""
    values = [*i_avg[:n_max].tolist(), *j_avg[1 : n_max + 1].tolist()]
    ratios = [x.as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    ints = [num * (den // d) for num, d in ratios]
    i_int, j_int = ints[:n_max], [None, *ints[n_max:]]
    out = []
    for m in range(top + 1):
        total, best = 0, i_int[m]
        for k in range(m, n_max):
            best = max(best, i_int[k])
            total += max(best, j_int[k + 1]) << (n_max + m - k - 1)
        out.append(Fraction(total, i_int[m] << n_max))
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 200), st.integers(0, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["random", "walk", "rising", "falling"]))
def test_the_rounding_bound_holds_against_the_exact_candidates(n_max, root_max, seed, shape):
    # both the suffix pass and the per-root reference lie within _rounding of
    # the exact candidate of every root, on positive spines
    rng = np.random.default_rng(seed)
    i_avg, j_avg = _random_spine(rng, n_max, shape), _random_spine(rng, n_max, shape)
    j_avg[0] = np.nan
    top = min(root_max, n_max - 2)
    eps = Fraction(_rounding(n_max, top))
    exact = _exact_candidates(i_avg, j_avg, n_max, top)
    got = ch._radial_candidates(i_avg, j_avg, n_max, top).tolist()
    want = [value for _, value in _per_root_candidates(i_avg, j_avg, n_max, root_max)]
    for x, g, w in zip(exact, got, want):
        assert abs(Fraction(g) - x) <= eps * x and abs(Fraction(w) - x) <= eps * x


# the first k whose weight 2^-(k+1) is 0 in extended precision
_CUT = int(np.count_nonzero(np.cumprod(np.broadcast_to(np.longdouble(0.5), 20000))))


# (n_max, which, index): the hole sits in the term of k = cut - 1, cut or
# cut + 1, as I_k or as J_(k+1), wherever the spine reaches it; or in the
# average of root I_3, or in J_4, which the led prefixes of roots I_0..I_2 read
_HOLES_AT_THE_CUT = [(n_max, which, k + (which == "j"))
                     for n_max in (16445, 16446, 20000, 32768) for which in "ij"
                     for k in (_CUT - 1, _CUT, _CUT + 1, 3) if k + (which == "j") <= n_max]


@pytest.mark.parametrize("n_max, which, index", _HOLES_AT_THE_CUT)
@pytest.mark.parametrize("value", [0.0, math.inf, -math.inf, math.nan])
def test_radial_ainfty_with_a_hole_next_to_the_cut_is_the_per_root_outcome(n_max, which, index,
                                                                          value):
    # on a falling spine every root leads to n_max, so its led prefix (closed
    # form or summed one by one) crosses the cut; roots I_0..I_8 keep the
    # per-root reference quick
    rng = np.random.default_rng(n_max)
    spine = {"i": _random_spine(rng, n_max, "falling"), "j": _random_spine(rng, n_max, "falling")}
    spine["j"][0] = np.nan
    spine[which][index] = value
    got, want = _radial_outcomes(spine["i"], spine["j"], n_max, 8)
    _assert_same_outcome(got, want, n_max, 8)


@pytest.mark.parametrize("which, index, root", [("j", _CUT, 0), ("j", 4, 0), ("i", 3, 3)])
def test_radial_ainfty_raises_where_the_per_root_reference_is_inf(which, index, root):
    # +inf in the last shell before the cut, or in J_4 which the led
    # prefixes of roots I_0..I_2 read, makes every candidate up to there
    # inf; a 0 root average I_3 makes root I_3's candidate x/0 = inf.  An
    # inf candidate is no supremum: both sides raise at its root
    n_max = 20000
    rng = np.random.default_rng(n_max)
    spine = {"i": _random_spine(rng, n_max, "falling"), "j": _random_spine(rng, n_max, "falling")}
    spine["j"][0] = np.nan
    spine[which][index] = 0.0 if which == "i" else math.inf
    got, want = _radial_outcomes(spine["i"], spine["j"], n_max, 8)
    assert want == ("raise", f"inf candidate at root I_{root}, n_max {n_max}")
    assert got == want


@pytest.mark.parametrize("n_max", [16446, 20000, 32768])
@pytest.mark.parametrize("gamma", [-0.4, 0.5])
def test_radial_ainfty_of_a_power_past_the_cut_is_the_per_root_reference(n_max, gamma):
    # x^-0.4 rises, x^0.5 falls; both spines stay finite to n_max 32768
    sigma = Power(1.0, gamma)
    got = dyadic_ainfty(sigma, mode="radial", n_max=n_max).value
    want = _checked_reference(sigma.spine_averages(n_max), _closed_form_shells(sigma, n_max),
                              n_max, ch.RADIAL_ROOT_MAX)
    _assert_within_rounding(got, want, n_max, ch.RADIAL_ROOT_MAX)


def test_radial_nan_in_the_deepest_shell_raises_at_root_0():
    # a NaN deepest average I_64 is copied into J_64, the deepest shell, which
    # every root's table holds, root I_0's too
    i_avg = np.full(65, np.longdouble(1.0))
    i_avg[64] = np.nan
    assert np.isnan(ch._shell_averages(i_avg)[[0, 64]]).all()
    with pytest.raises(NonFiniteCandidateError, match="root I_0, n_max 64$"):
        dyadic_ainfty(_SpineStub(i_avg), mode="radial", n_max=64)


def test_radial_nan_lifted_by_a_shallower_root_stays_with_its_root():
    # -inf at I_6 (copied into J_6, and 2 I_6 - I_7 = -inf at J_7) and +inf at
    # I_8 (copied into J_8) make root 6's sum NaN; I_5 = 1 lifts the -inf, so
    # roots 0..5 are inf and the NaN is root 6's alone; the A_infty raises at
    # the first of them, root I_0
    i_avg = np.full(9, np.longdouble(1.0))
    i_avg[6], i_avg[8] = -np.inf, np.inf
    j_avg = ch._shell_averages(i_avg)
    assert j_avg[6:].tolist() == [-math.inf, -math.inf, math.inf]
    with np.errstate(invalid="ignore"):
        got = ch._radial_candidates(i_avg, j_avg, 8, 6).tolist()
        assert got[:6] == [math.inf] * 6 and math.isnan(got[6]) and len(got) == 7
        with pytest.raises(NonFiniteCandidateError, match="^inf candidate at root I_0, n_max 8$"):
            dyadic_ainfty(_SpineStub(i_avg), mode="radial", n_max=8)


def test_radial_ainfty_of_a_power_raises_where_its_spine_overflows_before_the_cut():
    # the spine of x^-beta, beta = 1 - 2^-11, passes the extended-precision
    # range before the weights vanish (the cut at 16445): I_16381 is the
    # first inf, which the radial reads as J_16381 (a non-finite I_(k+1) is
    # copied into J_(k+1)), so from n_max 16381 its terms sum to inf, which
    # raises, where 1/(2 - 2^beta) ~ 1477.6; below, the value is the closed
    # form cut at n_max, about 1471.79
    beta = 1.0 - 2.0 ** -11
    sigma = Power(1.0, -beta)
    want = (1.0 - 2.0 ** (-(1.0 - beta) * 16380)) / (2.0 - 2.0 ** beta)
    assert dyadic_ainfty(sigma, mode="radial", n_max=16380).value == pytest.approx(want, rel=1e-12)
    for n_max in (16381, 16382, 16400, 16445):
        with pytest.raises(NonFiniteCandidateError,
                           match=f"^inf candidate at root I_0, n_max {n_max}$"):
            dyadic_ainfty(sigma, mode="radial", n_max=n_max)


def _growth_spines():
    """(weight, n_max) of the ainfty-growth sweep j = 3..10 at p = 3 (x^-beta
    and x^(beta/2), beta = 1 - 2^-j, n_max = 16 * 2^j), and x^-beta at
    beta = 1 - 2^-11 at the depths where its spine overflows: before the
    cut (16400, 16445) and past it (32768)."""
    for j in range(3, 11):
        beta = 1.0 - 2.0 ** -j
        yield from ((Power(1.0, -beta), 16 * 2 ** j), (Power(1.0, beta / 2.0), 16 * 2 ** j))
    yield from ((Power(1.0, 2.0 ** -11 - 1.0), n_max) for n_max in (16400, 16445, 32768))


@pytest.mark.parametrize("sigma, n_max", list(_growth_spines()), ids=repr)
def test_the_derived_shells_give_the_per_root_outcome(sigma, n_max):
    # The radial derives J_(k+1) = 2 I_k - I_(k+1); the reference is fed the
    # closed-form shells.  Where a term max(C_m[k], J_(k+1)) takes J, J >= C
    # >= I_k and I_(k+1) = 2 I_k - J <= 2 J, so the derived J, from averages
    # within 4 extended ulps u each, is within (8 + 8 + 1) u of J; where it
    # takes C, a derived J above C differs from C by no more.  With the
    # closed form's own few ulps that is below 2^-59 of each term, inside the
    # 2^-53 per side that _rounding allows for the final rounding to double.
    # On the growing x^-beta the derived J cancels (about j bits are lost at
    # beta = 1 - 2^-j), but there J_(k+1) = (2 - 2^beta) I_k < I_k is never
    # taken.  The overflowed spines raise the same message on both sides.
    with np.errstate(all="ignore"):
        got = _outcome(lambda: dyadic_ainfty(sigma, mode="radial", n_max=n_max).value)
        want = _outcome(lambda: _checked_reference(
            sigma.spine_averages(n_max), _closed_form_shells(sigma, n_max), n_max,
            ch.RADIAL_ROOT_MAX))
    _assert_same_outcome(got, want, n_max, ch.RADIAL_ROOT_MAX)


def test_the_derived_shells_raise_one_shell_before_the_closed_form_ones():
    # at n_max 16381 only the deepest average I_16381 of x^-beta, beta =
    # 1 - 2^-11, has overflowed: the closed-form J_16381 is finite, and the
    # derived one is that inf copied, so the radial raises where the
    # reference fed the closed form gives its value cut at n_max
    sigma, n_max = Power(1.0, 2.0 ** -11 - 1.0), 16381
    i_avg = sigma.spine_averages(n_max)
    assert np.isfinite(i_avg[:-1]).all() and i_avg[-1] == np.inf
    assert ch._shell_averages(i_avg)[-1] == np.inf
    want = _checked_reference(i_avg, _closed_form_shells(sigma, n_max), n_max, ch.RADIAL_ROOT_MAX)
    assert want == pytest.approx(1471.79, rel=1e-5)
    with pytest.raises(NonFiniteCandidateError, match=f"^inf candidate at root I_0, n_max 16381$"):
        dyadic_ainfty(sigma, mode="radial", n_max=n_max)


def test_radial_zero_over_zero_reports_the_smallest_root():
    # the roots from I_5 down see only zero averages (and zero shells
    # J_6.., 2 * 0 - 0): 0/0 there, finite above
    i_avg = np.full(33, np.longdouble(1.0))
    i_avg[5:] = 0.0
    assert not ch._shell_averages(i_avg)[6:].any()
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteCandidateError, match="root I_5, n_max 32$"):
            dyadic_ainfty(_SpineStub(i_avg), mode="radial", n_max=32)


def _power_sweep(j):
    # x^-beta, beta = 1 - 2^-j, swept to n_max = 16 * 2^j: the dropped tail
    # is 2^-((1 - beta) n_max) = 2^-16 of the scale-invariant 1/(2 - 2^beta)
    beta = 1.0 - 2.0 ** -j
    got = dyadic_ainfty(Power(1.0, -beta), mode="radial", n_max=16 * 2 ** j).value
    assert got == pytest.approx((1.0 - 2.0 ** -16) / (2.0 - 2.0 ** beta), rel=1e-12)


@pytest.mark.parametrize("j", range(3, 11))
def test_radial_ainfty_of_a_power_is_the_closed_form(j):
    _power_sweep(j)


@pytest.mark.xfail(strict=True, raises=NonFiniteCandidateError,
                   reason="Power.spine_averages overflows longdouble from j = 11")
@pytest.mark.parametrize("j", range(11, 15))
def test_radial_ainfty_of_a_power_past_the_overflow(j):
    with np.errstate(over="ignore", invalid="ignore"):
        _power_sweep(j)


def test_the_spine_readers_take_their_number_format_from_the_spine(monkeypatch):
    # the spine's number format is chosen in density.py alone: with double
    # spines every reader computes in double, against closed forms in double
    import dyadicsq.density as density
    from dyadicsq.density import SignModulate
    from dyadicsq.squarefn import partial_mass_profile, spine_profile

    monkeypatch.setattr(density, "_LD", np.float64)
    # alternating sigma*f: <g>_{I_k} = (-1)^k / 3, so each squared spine
    # difference is 4/9
    g, n_max = SignModulate(Constant(1.0)), 300
    left_squares = spine_profile(g, n_max).left_squares
    assert left_squares.dtype == np.float64
    np.testing.assert_allclose(left_squares, 4.0 * np.arange(n_max + 1) / 9.0, rtol=1e-14)
    # against x^-1/2, whose mass of I_k is 2^(1 - k/2)
    ks, p = np.array([1, 7, 64, n_max]), 3.0
    np.testing.assert_allclose(partial_mass_profile(g, Power(1.0, -0.5), p, ks),
                               (4.0 * ks / 9.0) ** (p / 2.0) * 2.0 ** (1.0 - ks / 2.0), rtol=1e-13)
    # <x^-1/2>_{I_k} = 2^(1 + k/2) and <x^1/2>_{I_k} = 2^-(k/2) / 1.5
    k, n_max = np.arange(257), 256
    np.testing.assert_allclose(spine_joint_ap_values(Power(1.0, -0.5), Power(1.0, 0.5), p, n_max),
                               2.0 ** (1.0 + k / 2.0) * (2.0 ** (-k / 2.0) / 1.5) ** (p - 1.0),
                               rtol=1e-13)
    for sigma in (Power(1.0, -0.5), Power(1.0, 0.5)):
        assert sigma.spine_averages(n_max).dtype == np.float64
        assert dyadic_ainfty(sigma, mode="radial", n_max=n_max).value == \
            pytest.approx(_per_root_radial(sigma, n_max, ch.RADIAL_ROOT_MAX), rel=1e-13)
