import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dyadicsq.density import (
    LN2,
    Constant,
    Density,
    LogPowerOverX,
    LogPowerPlain,
    NonIntegrableError,
    PeriodicReflect,
    PiecewiseDyadic,
    Power,
    ShellwiseDensity,
    SignModulate,
    average,
)
from dyadicsq.dyadic import spine


def quadrature_integrate(g: Density, a: float, b: float, rel: float = 1e-11) -> float:
    """Adaptive-quadrature oracle for integrals with 0 < a, independent of the
    antiderivative path."""
    if a <= 0.0:
        raise ValueError("quadrature oracle requires a > 0 (singularity at 0)")
    from scipy.integrate import quad

    val, _ = quad(lambda x: float(np.asarray(g.value(x))), a, b,
                  epsabs=0.0, epsrel=rel, limit=400)
    return val


CLOSED_FORM_DENSITIES = [
    Constant(0.7),
    Power(1.0, -0.5),
    Power(2.0, 0.25),
    LogPowerOverX(1.0, 1.2),
    Power(0.5, -0.25),
    LogPowerOverX(2.0, 1.8),
]


def test_power_full_mass():
    # integral of x^-beta over (0,1) is (1-beta)^-1
    assert Power(1.0, -0.5).integrate(0.0, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_constant_mass():
    assert Constant(3.0).integrate(0.25, 0.75) == pytest.approx(1.5, rel=1e-14)


def test_log_power_over_x_full_mass():
    # c/(x (1-log2 x)^s), s = p*r with p=3, r=0.4: mass ln2/(pr-1)
    assert LogPowerOverX(1.0, 1.2).integrate(0.0, 1.0) == pytest.approx(5.0 * LN2, rel=1e-12)


def test_average_sign_modulated_constant_on_spine():
    g = SignModulate(Constant(1.0))
    for k in range(0, 30):
        assert average(g, spine(k)) == pytest.approx((-1.0) ** k / 3.0, rel=1e-13)


@pytest.mark.parametrize("inner", [Constant(1.0), LogPowerPlain(0.4)])
def test_sign_modulate_has_the_sign_of_its_shell_from_the_left_end(inner):
    # J_n = [2^-n, 2^(1-n)) carries the sign (-1)^(n-1), from its left end
    # 2^-n on: the value there and just above is the primitive's slope
    g = SignModulate(inner)
    for n in range(1, 40):
        for x in (2.0 ** -n, np.nextafter(2.0 ** -n, 1.0)):
            h = 2.0 ** (-n - 12)
            slope = (g.primitive(x + h) - g.primitive(x)) / h
            assert np.sign(g.value(x)) == (-1.0) ** (n - 1), (n, x)
            assert g.value(x) == pytest.approx(slope, rel=1e-2), (n, x)


def test_average_power_on_spine():
    assert average(Power(1.0, -0.5), spine(1)) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)


def test_shell_mass_power_closed_form():
    beta = 0.5
    want = 2.0 ** -0.5 * (2.0 ** 0.5 - 1.0) / 0.5
    assert Power(1.0, -beta).integrate(0.5, 1.0) == pytest.approx(want, rel=1e-13)
    for n in range(1, 20):
        assert Constant(1.0).integrate(0.5 ** n, 0.5 ** (n - 1)) == pytest.approx(2.0 ** -n, rel=1e-14)


def test_log_power_plain_shell_mass_bracket():
    r = 0.4
    g = LogPowerPlain(r)
    for l in range(0, 25):
        m = g.integrate(0.5 ** (l + 1), 0.5 ** l)
        assert 2.0 ** -(l + 1) * (l + 2.0) ** -r <= m <= 2.0 ** -(l + 1) * (l + 1.0) ** -r


@given(st.integers(0, 400))
def test_log_power_plain_vectorized_shells_match_integrate(n0):
    g = LogPowerPlain(0.4)
    got = float(g._shell_avgs(n0 + 1, n0 + 1)[0]) * 2.0 ** -(n0 + 1)
    if n0 < 40:  # quad path only resolves shells above underflow
        assert got == pytest.approx(g.integrate(0.5 ** (n0 + 1), 0.5 ** n0), rel=1e-10)
    assert got > 0.0 or n0 > 1070


@settings(max_examples=40)
@given(
    st.sampled_from(CLOSED_FORM_DENSITIES),
    st.floats(1e-6, 0.99, allow_nan=False),
    st.floats(1e-6, 0.99),
    st.floats(1e-6, 0.99),
)
def test_integrate_additivity(g, x1, x2, x3):
    a, b, c = sorted((x1, x2, x3))
    if a == b or b == c:
        return
    whole = g.integrate(a, c)
    parts = g.integrate(a, b) + g.integrate(b, c)
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("g", CLOSED_FORM_DENSITIES)
def test_closed_form_matches_quadrature(g):
    got = g.integrate(0.125, 0.9)
    assert got == pytest.approx(quadrature_integrate(g, 0.125, 0.9), rel=1e-10)


def test_sign_modulate_magnitude_preserves_shell_mass():
    inner = LogPowerPlain(0.3)
    g = SignModulate(inner)
    for n in range(1, 15):
        signed = g.integrate(0.5 ** n, 0.5 ** (n - 1))
        assert abs(signed) == pytest.approx(inner.integrate(0.5 ** n, 0.5 ** (n - 1)), rel=1e-11)
        assert math.copysign(1.0, signed) == (-1.0) ** (n - 1)


def test_sign_modulate_pointwise_sign():
    g = SignModulate(Constant(1.0))
    assert g.value(0.6) == 1.0    # J_1
    assert g.value(0.3) == -1.0   # J_2
    assert g.value(0.2) == 1.0    # J_3


def _one_block(block, n, mirrored=False):
    """The density that is ``block`` carried onto the shell J_n alone."""
    return PiecewiseDyadic(lambda k: (block, mirrored) if k == n else None)


def test_affine_pullback_mass_scaling():
    inner = Power(1.0, -0.5)
    k = 5
    g = _one_block(inner, k)
    assert g.integrate(2.0 ** -k, 2.0 ** (1 - k)) == pytest.approx(
        2.0 ** -k * inner.integrate(0.0, 1.0), rel=1e-12)
    assert g.integrate(0.0, 2.0 ** -k) == 0.0


def test_affine_pullback_reflected_orientation():
    inner = Power(1.0, -0.5)
    g = _one_block(inner, 2, mirrored=True)
    # the singularity of the source sits at the right end of the image
    assert g.value(0.499) > g.value(0.26)
    assert g.integrate(0.25, 0.5) == pytest.approx(0.25 * 2.0, rel=1e-12)


def test_non_integrable_rejected():
    with pytest.raises(NonIntegrableError):
        Power(1.0, -1.0)
    with pytest.raises(NonIntegrableError):
        LogPowerOverX(1.0, 0.8).primitive(1.0)
    # its mass is taken from 0, so no interval of it integrates
    with pytest.raises(NonIntegrableError):
        LogPowerOverX(1.0, 0.8).integrate(0.25, 0.5)


def test_point_zero_convention():
    for g in (Power(1.0, -0.5), LogPowerOverX(1.0, 1.2), LogPowerPlain(0.4), Constant(2.0)):
        v = float(np.asarray(g.value(0.0)))
        if isinstance(g, Constant):
            continue
        assert v == 1.0


def _generic_spine_averages(g, n_max):
    """Spine averages through ``primitive`` at 2^-k, with no closed form."""
    k = np.arange(n_max + 1)
    return np.asarray(g.primitive(np.ldexp(1.0, -k)), dtype=np.longdouble) * np.exp2(
        np.asarray(k, dtype=np.longdouble))


def test_spine_averages_generic_vs_closed_form():
    g = Power(1.0, -0.5)
    i_cf, i_gen = g.spine_averages(40), _generic_spine_averages(g, 40)
    np.testing.assert_allclose(np.asarray(i_cf[1:], float), np.asarray(i_gen[1:], float), rtol=1e-12)


def test_log_shell_masses_match_shell_mass():
    for g in (Power(1.0, -0.7), Power(2.0, 0.0), Power(0.5, 1.5)):
        logs = g.log_shell_masses(12)
        for n in range(1, 13):
            assert logs[n] == pytest.approx(math.log(g.integrate(0.5 ** n, 0.5 ** (n - 1))), rel=1e-11)


_BLOCKS = {"power": Power(1.5, -0.75), "log_power_plain": LogPowerPlain(0.4),
           "sign_constant": SignModulate(Constant(3.0))}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_BLOCKS)), st.integers(1, 1074), st.booleans(),
       st.floats(0.0, 1.0, exclude_min=True))
@example("log_power_plain", 1074, True, 1.0)  # the deepest shell, one subnormal wide
@example("power", 1, False, 2.0 ** -52)
def test_a_block_lands_on_its_shell_exactly(name, n, mirrored, frac):
    block = _BLOCKS[name]
    g = _one_block(block, n, mirrored)
    assert g.piece_mass(n) == np.ldexp(block.integrate(0.0, 1.0), -n)
    t = float(np.ldexp(1.0 + frac, -n))  # rounds on the subnormal shells
    assume(2.0 ** -n < t)
    # the image of [2^-n, t) is [0, u) forward and (u, 1] mirrored, u exact
    if mirrored:
        u = 2.0 - float(np.ldexp(t, n))
        assert np.ldexp(2.0 - u, -n) == t
        want = np.ldexp(block.primitive(1.0) - block.primitive(u), -n)
    else:
        u = float(np.ldexp(t, n)) - 1.0
        assert np.ldexp(u + 1.0, -n) == t
        want = np.ldexp(block.primitive(u) - block.primitive(0.0), -n)
    assert g._partial(np.array([n]), np.array([t]))[0] == want
    # nothing lies below the block, so its primitive is the partial mass
    assert g.primitive(t) == want


def test_piecewise_dyadic_constant_blocks():
    g = PiecewiseDyadic(lambda n: (Constant(1.0), False))
    for n in range(1, 10):
        assert g.piece_mass(n) == pytest.approx(2.0 ** -n, rel=1e-12)
    assert g.primitive(2.0 ** -3) == pytest.approx(2.0 ** -3, rel=1e-12)
    assert g.integrate(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_piecewise_dyadic_suffix_mass_skips_empty_shells():
    # gluings with empty shells must not stop the tail summation early
    g = PiecewiseDyadic(
        lambda n: None if n % 2 == 0 else (Constant(1.0), n % 4 == 3))
    want = sum(2.0 ** -n for n in range(1, 120, 2))
    assert g.primitive(1.0) == pytest.approx(want, rel=1e-13)
    assert g.integrate(0.0, 1.0) == pytest.approx(want, rel=1e-13)


def test_periodic_reflect_symmetry_and_period():
    g = PeriodicReflect(Power(1.0, 0.5))
    # the Lemma-style even branch: value at 1.75 is inner(2 - 1.75) = 0.25^0.5
    assert float(np.asarray(g.value(1.75))) == pytest.approx(0.5, rel=1e-13)
    ts = (np.arange(1, 1000) / 1024.0)
    for k in (-2, -1, 0, 1, 3):
        left = np.asarray(g.value(k - ts))
        right = np.asarray(g.value(k + ts))
        np.testing.assert_array_equal(left, right)
    xs = -3.0 + np.arange(1001) / 167.0
    np.testing.assert_array_equal(np.asarray(g.value(xs)), np.asarray(g.value(xs + 2.0)))


def test_periodic_reflect_integrals():
    g = PeriodicReflect(Power(1.0, -0.5))
    unit = 2.0
    whole, first, second, below, above = g.masses([-3.0, 0.0, 1.0, -0.25, 0.0],
                                                   [5.0, 1.0, 2.0, 0.0, 0.25])
    # 8 unit cells, each carrying one (forward or reflected) copy of the mass
    assert whole == pytest.approx(8.0 * unit, rel=1e-12)
    assert first == pytest.approx(unit, rel=1e-12)
    assert second == pytest.approx(unit, rel=1e-12)
    # reflection: mass near an even integer is symmetric
    assert below == pytest.approx(above, rel=1e-12)


# ---------------------------------------------------------------------------
# the shell-indexed primitive


def _direct_sum():
    from dyadicsq.families import direct_sum_family
    return direct_sum_family(3.0)


# densities integrated through the shell-indexed path, built for shell n; the
# quadrature oracle is trusted only where the integrand is smooth, so every
# one breaks at powers of two at most
SHELLWISE = {
    "log_power_plain": lambda n: LogPowerPlain(0.4),
    "sign_constant": lambda n: SignModulate(Constant(1.0)),
    "sign_log_power_plain": lambda n: SignModulate(LogPowerPlain(0.4)),
    "pullback_forward": lambda n: _one_block(LogPowerPlain(0.4), n),
    "pullback_reflected": lambda n: _one_block(LogPowerPlain(0.4), n, mirrored=True),
    "direct_sum_sigma": lambda n: _direct_sum().sigma,
}

# points in shells 1..30: a power of two, an interior point, and the shell top
_SHELL_POINTS = np.array([x for n in range(1, 31)
                          for x in (2.0 ** -n, 1.37 * 2.0 ** -n, 2.0 ** (1 - n))])


@pytest.mark.parametrize("name", sorted(SHELLWISE))
def test_primitive_array_matches_scalar_calls(name):
    g = SHELLWISE[name](3)
    ts = np.concatenate([[0.0, 1.0], _SHELL_POINTS, np.arange(1, 64) / 64.0])
    whole = g.primitive(ts)
    fresh = SHELLWISE[name](3)
    for t, got in zip(ts, whole):
        assert fresh.primitive(float(t)) == got


@pytest.mark.parametrize("name", sorted(SHELLWISE))
def test_primitive_matches_quadrature(name):
    for n in range(1, 31):
        g = SHELLWISE[name](n)
        lo, mid, hi = 2.0 ** -n, 1.37 * 2.0 ** -n, 2.0 ** (1 - n)
        for a, b in ((lo, mid), (mid, hi), (lo, hi)):
            got = float(g.primitive(b) - g.primitive(a))
            want = quadrature_integrate(g, a, b)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300), (n, a, b)


def test_primitive_caches_are_per_instance():
    ts = _SHELL_POINTS
    for make in (lambda s: LogPowerPlain(s), lambda s: SignModulate(Constant(s))):
        a, b = make(0.3), make(0.6)
        first = a.primitive(ts)
        assert np.array_equal(b.primitive(ts), make(0.6).primitive(ts))
        assert np.array_equal(a.primitive(ts), first)
        assert a._below is not b._below and a._below != b._below


def _count_calls(monkeypatch, method, classes=(SignModulate, LogPowerPlain)):
    """Calls of ``method`` per instance, counted on the given classes."""
    from collections import Counter

    calls = Counter()
    for cls in classes:
        original = getattr(cls, method)

        def counted(self, *args, _original=original):
            calls[id(self)] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, method, counted)
    return calls


def test_primitive_builds_shell_averages_once_per_call(monkeypatch):
    calls = _count_calls(monkeypatch, "_shell_avgs")
    g = SignModulate(LogPowerPlain(0.4))
    g.primitive(np.arange(4097) / 4096.0)
    assert set(calls) == {id(g), id(g.inner)} and max(calls.values()) <= 1


def test_sign_modulate_spine_folds_once(monkeypatch):
    # the signed shells come straight from the inner shells, not from an
    # inner spine whose fold would be dropped
    calls = _count_calls(monkeypatch, "spine_averages", (LogPowerPlain,))
    SignModulate(LogPowerPlain(0.4)).spine_averages(1000)
    assert not calls


def test_sign_modulate_primitive_at_deep_points():
    g = SignModulate(Constant(1.0))
    # mass of I_k is (-1)^k 2^-k / 3
    assert g.primitive(2.0 ** -1000) == pytest.approx(2.0 ** -1000 / 3.0, rel=1e-14)
    assert g.primitive(2.0 ** -1001) == pytest.approx(-(2.0 ** -1001) / 3.0, rel=1e-14)
    # the least double 2^-1074 ends the shell J_1075: its mass 2^-1074 / 3
    # to within one subnormal step
    assert abs(g.primitive(5e-324) - 2.0 ** -1074 / 3.0) <= 2.0 ** -1074


def test_the_least_double_ends_the_last_shell():
    # 2^-1074 lies in J_1075, below every shell with a nonzero double left
    # end: primitive returns its mass (0 as a double), dividing by no zero
    with np.errstate(divide="raise", invalid="raise"):
        for g in (LogPowerPlain(0.4), SignModulate(LogPowerPlain(0.4)), _direct_sum().w):
            assert g.primitive(5e-324) == 0.0


def test_piecewise_dyadic_value_array_matches_scalar_calls():
    g = _direct_sum().w
    xs = np.concatenate([[0.0, 1.0, 1.5], _SHELL_POINTS, np.arange(1, 64) / 64.0])
    vals = g.value(xs)
    for x, v in zip(xs, vals):
        assert g.value(float(x)) == v


def test_piecewise_dyadic_shells_past_the_last_double_are_empty():
    from dyadicsq.families import direct_sum_family

    inst = direct_sum_family(2.5)
    assert inst.sigma_f.piece(1075) is None and inst.sigma_f.piece_mass(1075) == 0.0
    # the mass below 2^-1000 sums shells up to 1128, past the last double 2^-1074
    assert math.isfinite(inst.sigma_f.primitive(2.0 ** -1000))
    assert inst.w.primitive(2.0 ** -1000) == pytest.approx(9.332636185032189e-302, rel=1e-12)
    with pytest.raises(NonIntegrableError, match="depth limited to 900"):
        inst.w.spine_averages(901)


# ---------------------------------------------------------------------------
# the suffix fold against per-tap and tail-summed references

_TAPS = 128


def _ref_shell_avgs(g, n_hi):
    """Averages over J_1..J_{n_hi}, shell by shell, in the dtype that
    ``_shell_avgs`` hands out: double for LogPowerPlain (and its
    SignModulate), extended precision for the rest."""
    n = np.arange(1, n_hi + 1)
    if isinstance(g, PiecewiseDyadic):
        return np.ldexp(np.array([g.piece_mass(k) for k in n.tolist()], dtype=np.longdouble), n)
    if isinstance(g, LogPowerPlain):
        return g._shell_avgs(1, n_hi)
    if isinstance(g, SignModulate):
        return np.where(n % 2 == 1, 1, -1) * _ref_shell_avgs(g.inner, n_hi)
    assert isinstance(g, Constant)
    return np.full(n_hi, g.c, dtype=np.longdouble)


def _per_tap_fold(shells, n_max):
    """<g>_{I_k} = sum_{m=1}^{128} 2^-m <g>_{J_{k+m}}, k = 0..n_max, tap by tap."""
    i_avg = np.zeros(n_max + 1, dtype=np.longdouble)
    for m in range(1, _TAPS + 1):
        i_avg += shells[m - 1 : m + n_max] * np.longdouble(0.5) ** m
    return i_avg


def _tail_summed_mass(g, k):
    """(mass of [0, 2^-k), sum of |shell masses| summed), shell by shell down
    from J_(k+1); empty shells in a gluing must not stop the sum early, so it
    stops only after several consecutive negligible terms."""
    masses = np.ldexp(_ref_shell_avgs(g, k + 4 * _TAPS), -np.arange(1, k + 4 * _TAPS + 1))
    masses = masses.astype(float)[k:]
    total = size = 0.0
    small_run = 0
    for i, m in enumerate(masses.tolist()):
        total += m
        size += abs(m)
        if total != 0.0 and abs(m) < 1e-18 * abs(total) and i > 3:
            small_run += 1
            if small_run >= 4:
                break
        else:
            small_run = 0
    return total, size


@functools.cache
def _folding_densities():
    from dyadicsq.families import direct_sum_family

    # the SHELLWISE densities, the pullbacks one block on J_3, plus sigma*f,
    # whose averages grow
    out = {name: make(3) for name, make in SHELLWISE.items()}
    for p in (2.5, 4.0):
        out[f"direct_sum_sigma_f_{p}"] = direct_sum_family(p).sigma_f
    return out


_FOLDING = sorted(_folding_densities())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_FOLDING), st.integers(0, 900))
def test_spine_averages_match_the_per_tap_fold(name, n_max):
    g = _folding_densities()[name]
    i_avg = g.spine_averages(n_max)
    shells = _ref_shell_avgs(g, n_max + _TAPS)
    want = _per_tap_fold(shells, n_max)
    tol = 1e-17 * np.max(np.abs(want))
    assert np.max(np.abs(i_avg - want)) <= tol


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FOLDING), st.integers(1, 900), st.integers(0, 300))
def test_shell_averages_are_independent_of_the_range(name, n_lo, width):
    # the fold asks for its shells block by block; SignModulate takes its
    # sign from n_lo, odd or even, and its Constant inner fills the range
    g = _folding_densities()[name]
    n_hi = min(n_lo + width, 1000)
    got = g._shell_avgs(n_lo, n_hi)
    assert _same_floats(got, _ref_shell_avgs(g, n_hi)[n_lo - 1 :])


@pytest.mark.parametrize("name", _FOLDING)
def test_primitive_at_powers_of_two_matches_the_tail_sum(name):
    # both sides are double sums of up to 128 shell masses, each rounding at
    # most 2^-53 of the sum of |shell masses| (the signed families cancel)
    g = _folding_densities()[name]
    for k in [*range(61), 1000]:
        want, size = _tail_summed_mass(g, k)
        assert abs(g.primitive(2.0 ** -k) - want) <= _TAPS * 2.0 ** -53 * size, k


# ---------------------------------------------------------------------------
# the mass-form fold against the exact suffix sums of the taps it reads

_BLOCK = 8192  # density._FOLD_BLOCK
_U = 2 ** 64  # 1/u, the unit roundoff of the 64-bit extended significand


def _same_floats(a, b):
    """Equal float for float: NaN where NaN, and the sign of each zero."""
    return (a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_SPECIALS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                      2.0 ** -1022, 1.7976931348623157e308, -1.7976931348623157e308])


def _fold_input(size, seed, signs, specials):
    """Doubles over the whole exponent range, subnormals included, with the
    given signs and a share of specials, as extended-precision shells."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 1024, size))
    if signs == "alternating":
        x[1::2] *= -1
    elif signs == "random":
        x *= rng.choice([-1.0, 1.0], size)
    at = rng.random(size) < specials
    x[at] = rng.choice(_SPECIALS, int(at.sum()))
    return x.astype(np.longdouble)


class _GivenShells(ShellwiseDensity):
    """The fold, block by block, over given shells; ``_shell_avgs`` hands out
    views, so a write of the fold to its input shows in them."""

    def __init__(self, shells):
        self.shells = shells

    def _shell_avgs(self, n_lo, n_hi):
        return self.shells[n_lo - 1 : n_hi]


def _fold_blocks_read(n_max):
    """(first output, outputs, end of the shells read) of each fold block:
    output k reads the shells k..end-1 (0-based) of its block."""
    for b in range(0, n_max + 1, _BLOCK):
        m = min(_BLOCK, n_max + 1 - b)
        yield b, m, b + m + _TAPS - 1


def _exact_fold_check(got, shells, b, ks, end):
    """Each got[k], k in ks (finite taps shells[k:end] only), against the exact
    sum of its taps 2^-(j-k+1) shells[j], j = k..end-1: within u = 2^-64 times
    the sum of the |partial sums| the fold forms, deepest tap first.

    The taps are integers at the scale 2^(1138 + end - b) (each finite shell
    is an integer multiple of 2^-1137), so the suffix sums are exact; rounding
    each addition at most u of its result bounds the error to first order,
    and the factor 1 + 2^-40 covers the second-order terms."""
    ks = set(ks)
    if not ks:
        return
    shift = 1138 + end - b
    suffix = abs_sum = 0
    want = {}
    for j in range(end - 1, min(ks) - 1, -1):
        num, den = shells[j].as_integer_ratio()
        suffix += num * (1 << (shift - (j - b + 1))) // den  # 2^-(j+1-b) shells[j], exact
        abs_sum += abs(suffix)
        if j in ks:
            want[j] = (suffix, abs_sum)
    for k, (exact, bound) in want.items():
        num, den = got[k].as_integer_ratio()
        # got[k] = 2^(k-b) * (the partial sum from k), both sides at 2^shift
        err = abs(num * (1 << shift) - exact * den * (1 << (k - b)))
        assert err * _U * (1 << 40) <= bound * den * (1 << (k - b)) * ((1 << 40) + 1), k


_FOLD_SIZES = (st.integers(_TAPS, 3 * _BLOCK + 2 * _TAPS), st.integers(0, 2 ** 32 - 1),
               st.sampled_from(["positive", "alternating", "random"]))


@settings(max_examples=30, deadline=None)
@given(*_FOLD_SIZES, st.sampled_from([0.0, 1e-3, 0.3]))
@example(_TAPS, 0, "alternating", 0.0)  # one output
@example(_BLOCK + _TAPS - 1, 1, "random", 0.0)  # one whole block
@example(_BLOCK + _TAPS, 2, "alternating", 0.0)  # and one output in the next
@example(3 * _BLOCK + _TAPS + 1, 3, "positive", 1e-3)
def test_the_mass_form_fold_is_the_exact_suffix_sum_within_its_rounding_bound(size, seed, signs,
                                                                               specials):
    # every output whose taps are all finite, in every block
    shells = _fold_input(size, seed, signs, specials)
    kept = shells.copy()
    with np.errstate(invalid="ignore"):  # inf - inf
        got = _GivenShells(shells).spine_averages(size - _TAPS)
    assert got.size == size - _TAPS + 1 and _same_floats(shells, kept)
    finite = np.isfinite(shells)
    for b, m, end in _fold_blocks_read(size - _TAPS):
        bad = np.flatnonzero(~finite[b:end])
        first = b if bad.size == 0 else b + int(bad[-1]) + 1  # taps past the last special
        _exact_fold_check(got, shells, b, range(first, b + m), end)


@settings(max_examples=30, deadline=None)
@given(*_FOLD_SIZES, st.sampled_from([1e-3, 0.03, 0.3]))
@example(_BLOCK + _TAPS, 2, "alternating", 0.3)
def test_a_fold_output_over_a_nan_or_both_infinities_is_nan(size, seed, signs, specials):
    # a NaN tap is never swallowed; an infinite tap keeps its sign unless the
    # other infinity is read too; finite taps never overflow the scaled sums
    shells = _fold_input(size, seed, signs, specials)
    with np.errstate(invalid="ignore"):
        got = _GivenShells(shells).spine_averages(size - _TAPS)
    for b, m, end in _fold_blocks_read(size - _TAPS):
        # the specials among taps k..end-1, by suffix counts
        nan, pos, neg = (np.cumsum(f(shells[b:end])[::-1])[::-1][:m] > 0
                         for f in (np.isnan, np.isposinf, np.isneginf))
        out = got[b : b + m]
        assert np.array_equal(np.isnan(out), nan | (pos & neg))
        assert np.array_equal(np.isposinf(out), pos & ~nan & ~neg)
        assert np.array_equal(np.isneginf(out), neg & ~nan & ~pos)


def test_a_deep_signed_log_power_spine_is_the_exact_suffix_sum_at_sampled_outputs():
    # the first and last output, the last of the first block, and 40 more
    n_max = 10 ** 6
    g = SignModulate(LogPowerPlain(0.4))
    i_avg = g.spine_averages(n_max)
    shells = _ref_shell_avgs(g, n_max + _TAPS).astype(np.longdouble)  # double shells, exactly
    sampled = {0, _BLOCK - 1, n_max, *np.random.default_rng(16).integers(0, n_max + 1, 40).tolist()}
    for b, m, end in _fold_blocks_read(n_max):
        _exact_fold_check(i_avg, shells, b, [k for k in sampled if b <= k < b + m], end)


@pytest.mark.parametrize("inner", [Constant(2.0), LogPowerPlain(0.4)], ids=repr)
def test_sign_modulate_leaves_its_inner_arrays_unchanged(inner):
    # SignModulate negates its inner's shell averages in place, so the inner
    # must hand out a fresh array, never its kept spine
    n_hi = 300 + _TAPS
    spine = inner.spine_averages(n_hi)
    kept = spine.copy()
    shells = inner._shell_avgs(1, n_hi).copy()
    SignModulate(inner).spine_averages(300)
    assert inner.spine_averages(n_hi) is spine
    assert _same_floats(spine, kept)
    assert _same_floats(inner._shell_avgs(1, n_hi), shells)


def test_spine_averages_are_read_only_and_built_once_per_n_max(monkeypatch):
    calls = _count_calls(monkeypatch, "_spine_averages", (Power,))
    g = Power(1.0, -0.5)
    first = g.spine_averages(64)
    assert g.spine_averages(64) is first and calls[id(g)] == 1
    with pytest.raises(ValueError, match="read-only"):
        first[1] = 0.0
    g.spine_averages(65)
    assert g.spine_averages(64) is not first and calls[id(g)] == 3
    assert _same_floats(g.spine_averages(64), first)


# ---------------------------------------------------------------------------
# Gauss-Legendre shells, node by node below 1024 and as a series from there

_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)


def _gl_shell_avg(s, n):
    """<(1 - log2 x)^-s>_{J_n} = ln2 int_0^1 2^(1-tau) (n + tau)^-s dtau by the
    16-node Gauss-Legendre rule, one shell at a time, summed exactly."""
    return math.fsum(LN2 * 2.0 ** (1.0 - x) * w * (n + x) ** -s
                     for x, w in zip((_GL16_X + 1.0) / 2.0, _GL16_W / 2.0))


_SERIES_SHELLS = [1, 2, 3, 10, 30, 100, 300, 1023, 1024, 1025, *(2 ** k for k in range(11, 21)),
                  10 ** 6 + 128]


@functools.cache
def _shells_to_2_20(s):
    return LogPowerPlain(s)._shell_avgs(1, 2 ** 20).astype(float)


def _ulps_off(got, want):
    return abs(got - want) / np.spacing(want)


@pytest.mark.parametrize("s", [0.26, 0.4, 0.49, 2.0])
def test_shell_averages_match_the_node_by_node_rule(s):
    g = LogPowerPlain(s)
    for n in _SERIES_SHELLS:
        want = _gl_shell_avg(s, n)
        assert _ulps_off(_shells_to_2_20(s)[n - 1], want) <= 4, n
        assert _ulps_off(float(g._shell_avgs(n, n)[0]), want) <= 4, n
    # a range that straddles the split
    for n, got in enumerate(g._shell_avgs(1000, 1100).astype(float).tolist(), 1000):
        assert _ulps_off(got, _gl_shell_avg(s, n)) <= 4, n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.26, 0.4, 0.49, 2.0]), st.integers(1024, 10 ** 6 + 128))
def test_series_shells_match_the_node_by_node_rule(s, n):
    assert _ulps_off(_shells_to_2_20(s)[n - 1], _gl_shell_avg(s, n)) <= 4


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.26, 0.4, 0.49, 2.0]), st.integers(1, 1023),
       st.integers(1024, 2 ** 16), st.integers(0, 2 ** 16))
@example(0.4, 1, 2 ** 20, 0)  # a BLAS matmul moved shell 1022 by 1 ulp with the row count
def test_each_shell_average_is_independent_of_the_range(s, a, b, k):
    g = LogPowerPlain(s)
    got = g._shell_avgs(a, b)
    for n in [*range(a, min(b, 1100) + 1), a + k % (b - a + 1)]:
        assert got[n - a] == g._shell_avgs(n, n)[0], n
