import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyadicsq.density import (
    Constant,
    Density,
    LogPowerPlain,
    NonIntegrableError,
    Power,
    ShellwiseDensity,
    SignModulate,
)
from dyadicsq.dyadic import DyadicInterval, spine
from dyadicsq.squarefn import (
    NonFiniteTermError,
    TailNotCertifiedError,
    full_square_function,
    level_averages,
    martingale_difference,
    partial_mass_profile,
    spine_profile,
    weighted_snorm,
)

ALT_SF = SignModulate(Constant(1.0))  # sigma*f of the alternating family


def test_martingale_difference_alternating_spine():
    for k in range(0, 20):
        left, _ = martingale_difference(ALT_SF, spine(k))
        assert left == pytest.approx(2.0 * (-1.0) ** (k + 1) / 3.0, rel=1e-12)


def test_martingale_difference_constant():
    assert martingale_difference(Constant(5.0), DyadicInterval(3, 2)) == \
        pytest.approx((0.0, 0.0), abs=1e-13)


def test_martingale_difference_power_root():
    left, _ = martingale_difference(Power(1.0, -0.5), spine(0))
    assert left == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-12)


@settings(max_examples=30)
@given(st.integers(0, 10), st.integers(0, 2 ** 10 - 1),
       st.sampled_from([Power(1.0, -0.5), ALT_SF, Power(2.0, 0.25)]))
def test_mean_zero(level, index, g):
    q = DyadicInterval(level, index % 2 ** level if level else 0)
    dl, dr = martingale_difference(g, q)
    # the difference integrates to zero over its node
    scale = max(1.0, abs(dl), abs(dr))
    assert dl + dr == pytest.approx(0.0, abs=1e-11 * scale)


def test_spine_profile_alternating_closed_forms():
    prof = spine_profile(ALT_SF, 64)
    for n in range(1, 65):
        assert float(prof.s[n]) == pytest.approx((2.0 / 3.0) * math.sqrt(n), rel=1e-13)
    np.testing.assert_allclose(np.abs(np.asarray(prof.d_left, float)), 2.0 / 3.0, rtol=1e-13)


def test_spine_profile_constant_is_zero():
    prof = spine_profile(Constant(3.0), 32)
    np.testing.assert_allclose(np.asarray(prof.s[1:], float), 0.0, atol=1e-14)


def test_spine_profile_log_power_lower_bound():
    # |Delta_{I_k}| >= 1/(4 (k+2)^r), checked on I_{k+1} and measured on J_{k+1}
    r = 0.4
    prof = spine_profile(SignModulate(LogPowerPlain(r)), 2000)
    k = np.arange(prof.n_max)
    floor = 1.0 / (4.0 * (k + 2.0) ** r)
    assert np.all(np.abs(np.asarray(prof.d_left, float)) >= floor)
    assert np.all(np.abs(np.asarray(prof.d_right, float)) >= floor)


def test_full_square_function_constant_zero():
    leaf = full_square_function(Constant(2.0), 8)
    np.testing.assert_allclose(leaf.values, 0.0, atol=1e-13)


def test_full_square_function_alternating_equals_spine():
    depth = 10
    leaf = full_square_function(ALT_SF, depth)
    prof = spine_profile(ALT_SF, depth)
    for n in range(1, depth + 1):
        # leaves covering J_n = [2^-n, 2^(1-n))
        lo, hi = 2 ** (depth - n), 2 ** (depth - n + 1)
        np.testing.assert_allclose(leaf.values[lo:hi], float(prof.s[n]), rtol=1e-12)


def test_full_square_function_monotone_in_depth():
    for g in (Power(1.0, -0.5), ALT_SF):
        coarse = full_square_function(g, 8)
        fine = full_square_function(g, 10)
        assert np.all(np.repeat(coarse.values, 4) <= fine.values + 1e-13)


def test_spine_below_full_everywhere():
    depth = 10
    for g in (Power(1.0, -0.5), SignModulate(LogPowerPlain(0.4))):
        leaf = full_square_function(g, depth)
        prof = spine_profile(g, depth)
        for n in range(1, depth + 1):
            lo, hi = 2 ** (depth - n), 2 ** (depth - n + 1)
            assert np.all(leaf.values[lo:hi] >= float(prof.s[n]) - 1e-12)


@pytest.mark.parametrize("g", [Power(1.0, -0.5), ALT_SF, Constant(2.0),
                               Power(0.5, 0.25)])
def test_finite_depth_parseval(g):
    depth = 12
    avgs = level_averages(g, depth)
    total = 0.0
    for lev in range(depth):
        parent = avgs[lev]
        child = avgs[lev + 1].reshape(-1, 2)
        d = child - parent[:, None]
        total += float(np.sum(d * d)) * 2.0 ** -(lev + 1)
    e_n = float(np.sum(avgs[depth] ** 2)) * 2.0 ** -depth
    want = e_n - float(avgs[0][0]) ** 2
    assert total == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_weighted_snorm_closed_form_oracle():
    # alternating family, p = 4, beta = 1/2: shell series sums in closed form
    p, beta = 4.0, 0.5
    w = Power(1.0, -beta)
    x = 2.0 ** (beta - 1.0)
    series = x * (1.0 + x) / (1.0 - x) ** 3
    want = ((2.0 / 3.0) ** 4 * (2.0 ** (1.0 - beta) - 1.0) / (1.0 - beta) * series) ** 0.25
    got = weighted_snorm(ALT_SF, w, p, n_max=400)
    assert got == pytest.approx(want, rel=1e-10)


def test_weighted_snorm_zero_function():
    assert weighted_snorm(Constant(0.0), Power(1.0, -0.5), 3.0, n_max=64) == 0.0


def _full_tree_snorm(fsigma, w, p, depth):
    """(sum over the level-depth leaves of S(f sigma)^p w(leaf))^(1/p)."""
    leaf = full_square_function(fsigma, depth)
    edges = np.arange(2 ** depth + 1, dtype=float) / 2 ** depth
    w_masses = np.diff(np.asarray(w.primitive(edges), dtype=float))
    return float(np.sum(leaf.values ** p * w_masses) ** (1.0 / p))


def test_weighted_snorm_full_vs_spine_alternating():
    p = 3.0
    w = Power(1.0, -0.5)
    full = _full_tree_snorm(ALT_SF, w, p, 14)
    sp = weighted_snorm(ALT_SF, w, p, n_max=2000)
    # the truncations differ but both approach the same series from below
    assert full == pytest.approx(sp, rel=2e-2)
    assert full <= sp * (1.0 + 1e-12)


class _Spine(Density):
    """A density that is nothing but the spine averages it was given."""

    def __init__(self, i_avg, j_avg):
        self.avgs = i_avg, j_avg

    def _spine_averages(self, n_max):
        return tuple(a[: n_max + 1].copy() for a in self.avgs)


def _alternating_spine(n_max):
    return tuple(a.copy() for a in ALT_SF.spine_averages(n_max))


@pytest.mark.parametrize("shell, value", [(5, np.nan), (7, np.inf), (400, np.nan)])
def test_weighted_snorm_raises_on_a_non_finite_term(shell, value):
    i_avg, j_avg = _alternating_spine(400)
    j_avg[shell] = value
    with pytest.raises(NonFiniteTermError, match=f"shell J_{shell}, n_max 400$"):
        weighted_snorm(_Spine(i_avg, j_avg), Power(1.0, -0.5), 4.0, n_max=400)


def test_weighted_snorm_drops_a_zero_term():
    # J_1 averaging what I_0 does makes s_1 = 0, a term of -inf in log
    p, w = 4.0, Power(1.0, -0.5)
    i_avg, j_avg = _alternating_spine(400)
    j_avg[1] = i_avg[0]
    g = _Spine(i_avg, j_avg)
    s = spine_profile(g, 400).s
    assert s[1] == 0.0
    terms = np.asarray(s[2:], dtype=float) ** p * np.exp(w.log_shell_masses(400)[2:])
    assert weighted_snorm(g, w, p, n_max=400) == pytest.approx(terms.sum() ** (1.0 / p), rel=1e-12)


def test_weighted_snorm_monotone_in_n_max():
    vals = [weighted_snorm(ALT_SF, Power(1.0, -0.5), 3.0, n_max=n, tail_rel_tol=1e-6)
            for n in (64, 128, 256)]
    assert vals[0] <= vals[1] <= vals[2]


def test_weighted_snorm_refuses_a_weight_without_closed_form_shell_masses():
    # a ValueError (exit 3 through the CLI) that names the weight's class,
    # not an AttributeError that no exit code maps
    from dyadicsq.families import lai_treil_family

    inst = lai_treil_family(3, 0.4)
    with pytest.raises(ValueError, match="LogPowerOverX"):
        weighted_snorm(inst.sigma_f, inst.w, 3, n_max=2048, tail_rel_tol=0.5)


def test_tail_not_certified():
    with pytest.raises(TailNotCertifiedError):
        weighted_snorm(Power(1.0, -0.99), Power(1.0, 0.5), 3.0, n_max=48)


def test_partial_mass_constant_zero():
    assert partial_mass_profile(Constant(1.0), Power(1.0, -0.5), 3.0, [5])[0] == 0.0


def test_partial_mass_monotone_and_positive():
    p, r = 3.0, 0.4
    from dyadicsq.density import LogPowerOverX
    sf = SignModulate(LogPowerPlain(r))
    w = LogPowerOverX(1.0, 2.0 - 2.0 * r)
    ks = np.arange(1, 600, 7)
    m = partial_mass_profile(sf, w, p, ks)
    assert np.all(m > 0)
    assert np.all(np.diff(m) > 0)  # grows like k^((1-2r)(p/2-1))


def test_partial_mass_profile_uses_the_left_squares_of_the_profile():
    # the prefix sums spine_profile keeps are the ones partial_mass_profile
    # reduces over the spine blocks, so its output is unchanged to the bit
    from dyadicsq.density import LogPowerOverX
    p, r = 3.0, 0.4
    w = LogPowerOverX(1.0, 2.0 - 2.0 * r)
    g = SignModulate(LogPowerPlain(r))
    prof = spine_profile(g, 5000)
    rebuilt = np.zeros(prof.n_max + 1, dtype=np.longdouble)
    np.cumsum(prof.d_left * prof.d_left, out=rebuilt[1:])
    assert np.array_equal(prof.left_squares, rebuilt)
    ks = np.unique(np.geomspace(1, 5000, 60).astype(int))
    ks = np.concatenate([[0], ks])
    want = [0.0 if k == 0 else float(rebuilt[k] ** (p / 2.0)) * w.spine_mass(int(k)) for k in ks]
    assert partial_mass_profile(g, w, p, ks).tolist() == want


_SEAMS = [1, 127, 128, 8191, 8192, 8193, 2 * 8192 + 5]  # around the fold blocks of 8192


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_SEAMS), st.floats(2.0, 6.0, exclude_min=True), st.data())
def test_the_streamed_partial_masses_are_the_eager_ones(k_max, p, data):
    # one pass over the spine blocks gives, float for float, the left squares
    # of the whole profile, across each block seam
    from dyadicsq.density import LogPowerOverX
    r = data.draw(st.floats(1.0 / p, 0.5, exclude_min=True, exclude_max=True), label="r")
    g, w = SignModulate(LogPowerPlain(r)), LogPowerOverX(1.0, 2.0 - 2.0 * r)
    assume(w.s > 1.0)  # 2 - 2r rounds to 1 for r within an ulp of 1/2
    left_squares = spine_profile(g, k_max).left_squares
    ks = np.arange(k_max + 1)
    want = [float(left_squares[k] ** (p / 2.0)) * w.spine_mass(int(k)) for k in ks]
    assert partial_mass_profile(g, w, p, ks).tolist() == want
    assert partial_mass_profile(g, w, p, ks[::-1]).tolist() == want[::-1]


class _BlockedSpine(Density):
    """Given spine averages, streamed in given block sizes."""

    def __init__(self, i_avg, sizes):
        self.i_avg, self.sizes = i_avg, sizes

    def spine_averages(self, n_max):
        return self.i_avg, np.full(self.i_avg.size, np.nan, dtype=np.longdouble)

    def spine_blocks(self, n_max):
        lo = 0
        for size in self.sizes:
            yield self.i_avg[lo : lo + size]
            lo += size


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([math.nan, math.inf, -math.inf,
                                                                0.0, -0.0, 1e300])), max_size=4))
def test_the_streamed_left_squares_keep_every_special_of_the_eager_ones(sizes, seed, holes):
    # a NaN or an infinity at a block seam, or in the first average, reaches
    # the same left squares as in one np.cumsum over the whole spine
    assume(sum(sizes) >= 2)  # a profile needs n_max >= 1
    i_avg = np.random.default_rng(seed).normal(0.0, 1.0, sum(sizes)).astype(np.longdouble)
    for where, value in holes:
        i_avg[round(where * (i_avg.size - 1))] = value
    g = _BlockedSpine(i_avg, sizes)
    k_max = i_avg.size - 1
    with np.errstate(all="ignore"):
        left_squares = spine_profile(g, k_max).left_squares
        want = np.array([float(left_squares[k] ** 2.0) * 2.0 ** -k for k in range(k_max + 1)])
        got = partial_mass_profile(g, Constant(1.0), 4.0, np.arange(k_max + 1))
    assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# spine profiles: d_right and s are computed on first read


def _family_densities():
    from dyadicsq.families import (alternating_family, direct_sum_family, lai_treil_family,
                                   lerner_family, power_pair)

    for name, inst in (("lerner", lerner_family(3.0, 0.875)),
                       ("alternating", alternating_family(3.0, 0.875)),
                       ("power_pair_i", power_pair(3.0, 0.5, "i")),
                       ("power_pair_ii", power_pair(3.0, 0.5, "ii")),
                       ("lai_treil", lai_treil_family(3.0, 0.4)),
                       ("direct_sum", direct_sum_family(3.0))):
        for part in ("w", "sigma", "sigma_f"):
            if getattr(inst, part) is not None:
                yield f"{name}.{part}", getattr(inst, part)


_FAMILY_DENSITIES = dict(_family_densities())


@pytest.mark.parametrize("n_max", [4, 257, 4096])
@pytest.mark.parametrize("name", sorted(_FAMILY_DENSITIES))
def test_lazy_spine_profile_fields_are_the_eager_formulas(name, n_max):
    g = _FAMILY_DENSITIES[name]
    try:
        i_avg, j_avg = g.spine_averages(n_max)
    except NonIntegrableError:  # beyond the density's spine depth: the profile fails alike
        with pytest.raises(NonIntegrableError):
            spine_profile(g, n_max)
        return
    prof = spine_profile(g, n_max)
    d_left = i_avg[1:] - i_avg[:-1]
    d_right = j_avg[1:] - i_avg[:-1]
    cum = np.zeros(n_max + 1, dtype=np.longdouble)
    np.cumsum(d_left * d_left, out=cum[1:])
    s = np.empty(n_max + 1, dtype=np.longdouble)
    s[0] = np.nan
    s[1:] = np.sqrt(cum[:-1] + d_right * d_right)
    assert "s" not in vars(prof) and "d_right" not in vars(prof)
    assert np.array_equal(prof.d_left, d_left) and np.array_equal(prof.left_squares, cum)
    assert np.array_equal(prof.d_right, d_right)
    assert np.array_equal(prof.s, s, equal_nan=True)
    assert prof.s is prof.s and prof.d_right is prof.d_right  # built once


@pytest.mark.parametrize("k_max", _SEAMS)
@pytest.mark.parametrize("name", sorted(n for n, g in _FAMILY_DENSITIES.items()
                                        if isinstance(g, ShellwiseDensity)))
def test_the_spine_blocks_are_the_spine_averages(name, k_max):
    g = _FAMILY_DENSITIES[name]
    try:
        i_avg, _ = g.spine_averages(k_max)
    except NonIntegrableError:  # beyond the density's spine depth: the blocks fail alike
        with pytest.raises(NonIntegrableError):
            next(g.spine_blocks(k_max))
        return
    got = np.concatenate(list(g.spine_blocks(k_max)))
    assert got.dtype == i_avg.dtype and np.array_equal(got, i_avg, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(i_avg))


def test_lai_treil_divergence_streams_its_spine(monkeypatch):
    # neither a whole spine nor a profile: the divergence holds one fold block
    # at a time, where the eager spine held 76 MB at k_max = 10^6
    import tracemalloc

    from dyadicsq import experiments, squarefn
    from dyadicsq.density import Density

    def refuse(*args, **kwargs):
        raise AssertionError("built a whole spine")

    monkeypatch.setattr(Density, "spine_averages", refuse)
    monkeypatch.setattr(squarefn, "spine_profile", refuse)
    tracemalloc.start()
    try:
        experiments.lai_treil_divergence(3.0, 0.4, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("family, p, want", [
    ("lerner", 2.5, 13.844863060369418),
    ("lerner", 3.0, 12.144174683294372),
    ("lerner", 4.0, 10.361079006275883),
    ("alternating", 2.5, 5.565685738854603),
    ("alternating", 3.0, 5.053514276246683),
    ("alternating", 4.0, 4.579399442564133),
])
def test_weighted_snorm_values_are_unchanged(family, p, want):
    # the values of the eagerly built profile, to the bit (beta 0.875, n_max 2048)
    from dyadicsq.families import alternating_family, lerner_family

    inst = {"lerner": lerner_family, "alternating": alternating_family}[family](p, 0.875)
    assert weighted_snorm(inst.sigma_f, inst.w, p, n_max=2048) == want
