"""The Gauss-Legendre shells of LogPowerPlain against 40-digit mpmath
quadrature, and the closed-form spine averages of Power (and the shell
averages derived from them) against 40-digit powers of two.

mpmath has no exponent range to leave and integrates to any precision, so it
is a reference independent of the double-precision rule, its series past
shell 1024, the table of powers of two and the extended-precision sums.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dyadicsq.characteristics import _shell_averages
from dyadicsq.density import LogPowerPlain, Power

_S = [0.26, 0.4, 0.5, 2.0]
# both sides of the switch from node-by-node sums to the series in 1/n at 1024
_SHELLS = [1, 2, 4, 100, 1023, 1024, 1025, 5000, 10 ** 6]


@pytest.fixture(autouse=True)
def _forty_digits():
    with mp.workdps(40):
        yield


def _mp_shell_avg(s, n):
    """<(1 - log2 x)^-s>_{J_n} = ln2 int_0^1 2^(1-tau) (n + tau)^-s dtau."""
    return mp.log(2) * mp.quad(lambda t: mp.power(2, 1 - t) * mp.power(n + t, -s), [0, 1])


def _mp_mass(s, a, b):
    """int_a^b (1 - log2 x)^-s dx, split at the powers of two inside."""
    a, b = mp.mpf(a), mp.mpf(b)
    cuts = [mp.mpf(2) ** -k for k in range(60) if a < mp.mpf(2) ** -k < b]
    return mp.quad(lambda x: mp.power(1 - mp.log(x, 2), -s), [a, *cuts, b])


@pytest.mark.parametrize("s", _S)
def test_shell_averages_match_mpmath(s):
    g = LogPowerPlain(s)
    for n in _SHELLS:
        want = _mp_shell_avg(s, n)
        assert abs(float(g._shell_avgs(n, n)[0]) - want) <= 1e-15 * want, n


@pytest.mark.parametrize("s", _S)
def test_the_substituted_shell_integral_is_the_shell_average(s):
    # the tau form against the shell average taken in x, 2^n times the mass of J_n
    for n in (1, 2, 3, 4):
        want = 2 ** n * _mp_mass(s, 2.0 ** -n, 2.0 ** (1 - n))
        assert abs(_mp_shell_avg(s, n) - want) <= mp.mpf(10) ** -30 * want, n
        assert abs(float(LogPowerPlain(s)._shell_avgs(n, n)[0]) - want) <= 1e-15 * want, n


@pytest.mark.parametrize("s", _S)
def test_off_zero_integrals_are_primitive_differences_within_their_stated_limit(s):
    # a difference of two primitives: within 3e-14 of the mass for b - a >= 0.01
    g = LogPowerPlain(s)
    for a, b in ((0.001, 0.011), (0.245, 0.255), (0.49, 0.5), (0.7, 0.71), (0.84, 0.85),
                 (0.99, 1.0), (0.125, 0.9), (1e-6, 1.0)):
        want = _mp_mass(s, a, b)
        assert abs(g.integrate(a, b) - want) <= 3e-14 * want, (a, b)


# ---------------------------------------------------------------------------
# Power's spine averages c/(gamma+1) 2^(-gamma k), and the shell averages the
# radial A_infty derives from them, c (2^(gamma+1) - 1)/(gamma+1) 2^(-gamma k)

_N_MAX = 2 ** 15
# growing and falling, near -1 and near +1
_GAMMAS = [-0.5, -0.875, -(1.0 - 2.0 ** -11), -0.999, 0.3, 0.999, 1.0 - 2.0 ** -11, 2.0]
_MAX_LOG2 = 16384  # extended precision: the largest value is just below 2^16384
_MIN_LOG2 = -16382  # and the smallest normal one 2^-16382


def _ld_to_mp(x):
    num, den = x.as_integer_ratio()
    return mp.mpf(num) / den


def _sampled_ks(n_max):
    b = 1 << (n_max.bit_length() + 1) // 2  # the table width
    rng = np.random.default_rng(n_max)
    return sorted({0, 1, b - 1, b, b + 1, n_max - 1, n_max,
                   *(2 ** np.arange(15)).tolist(), *rng.integers(0, n_max + 1, 150).tolist()})


def _ulp(x):
    """The extended-precision ulp at the exact value x."""
    return mp.mpf(2) ** (mp.floor(mp.log(abs(x), 2)) - 63)


def _normal(x):
    return _MIN_LOG2 + 1 < mp.log(abs(x), 2) < _MAX_LOG2 - 1


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_power_spine_averages_are_within_four_ulps_of_mpmath(gamma):
    """The I_k averages against the exact c/(gamma+1) 2^(-gamma k), within 4
    ulps, and the derived shell averages J_k = 2 I_(k-1) - I_k against the
    exact c (2^(gamma+1) - 1)/(gamma+1) 2^(-gamma k), at every sampled k whose
    values are normal in extended precision.

    Bound for J.  2 I_(k-1) is exact and the subtraction rounds once, within
    2^-64 |J_k + its input error|, below one ulp of J_k; with I_(k-1) and I_k
    each within 4 ulps of exact, the derived J_k is within
    8 ulp(I_(k-1)) + 4 ulp(I_k) + ulp(J_k) of exact.  Near gamma = -1, where
    J_k = (2 - 2^-gamma) I_(k-1) is much smaller than I_(k-1), that is many
    ulps of J_k: the cancellation the radial A_infty never reads, since there
    J_k < I_(k-1).
    """
    c = 1.5
    g = Power(c, gamma)
    i_avg = g.spine_averages(_N_MAX)
    j_avg = _shell_averages(i_avg)
    g1 = mp.mpf(gamma) + 1

    def exact_i(k):
        return c / g1 * mp.power(2, -mp.mpf(gamma) * k)

    def exact_j(k):
        return c * (mp.power(2, g1) - 1) / g1 * mp.power(2, -mp.mpf(gamma) * k)

    checked = 0
    for k in _sampled_ks(_N_MAX):
        if _normal(want := exact_i(k)):
            err = _ld_to_mp(i_avg[k]) - want
            assert abs(err) <= 4 * _ulp(want), (k, float(err / _ulp(want)))
            checked += 1
        want = exact_j(k)
        if k > 0 and all(_normal(x) for x in (exact_i(k - 1), exact_i(k), want)):
            err = _ld_to_mp(j_avg[k]) - want
            assert abs(err) <= 8 * _ulp(exact_i(k - 1)) + 4 * _ulp(exact_i(k)) + _ulp(want), (
                k, float(err / _ulp(want)))
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("c", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("gamma", [-(1.0 - 2.0 ** -11), -0.75, 1.0 - 2.0 ** -11])
def test_power_spine_averages_overflow_and_underflow_where_the_exact_ones_do(c, gamma):
    # beta = 1 - 2^-11 is the A_infty growth sweep's j = 11 weight x^-beta at
    # n_max 32768.  An average is +-inf where 2^(-gamma k) or the average
    # passes the largest extended-precision number, and +-0 where either falls
    # below half the least subnormal 2^-16445; k within 2 in log2 of a
    # threshold are left out.  The sign is c's.  For c = 0 an average is +0,
    # or NaN (0 * inf) in a table row whose factor 2^(-gamma q b), which
    # multiplies c/(gamma+1) first, overflows, past the scale's overflow.  The
    # derived shell averages copy a non-finite I_k, and are 2 I_(k-1) - I_k,
    # with c's sign or 0, where I_k and 2 I_(k-1) are finite
    g = Power(c, gamma)
    with np.errstate(invalid="ignore"):  # 0 * inf
        i_avg = g.spine_averages(_N_MAX)
    coef = np.longdouble(c) / (np.longdouble(gamma) + 1)
    log2_scale = -gamma * np.arange(1, _N_MAX + 1, dtype=float)
    avg = i_avg[1:]
    if c == 0.0:
        zero = avg[~np.isnan(avg)]
        assert np.all(zero == 0) and not np.any(np.signbit(zero))
        assert not np.any(np.isnan(avg[log2_scale < _MAX_LOG2 - 2]))
    else:
        log2_avg = log2_scale + math.log2(abs(float(coef)))
        over = np.maximum(log2_scale, log2_avg)
        under = np.minimum(log2_scale, log2_avg)
        huge, tiny = over > _MAX_LOG2 + 2, under < -16446 - 2
        fine = (over < _MAX_LOG2 - 2) & (under > -16445 + 2)
        assert np.all(np.isinf(avg[huge])) and np.all(avg[tiny] == 0)
        assert np.all(np.isfinite(avg[fine]) & (avg[fine] != 0))
        assert np.all(np.signbit(avg[huge | tiny | fine]) == (c < 0))
    with np.errstate(over="ignore", invalid="ignore"):
        j_avg, twice = _shell_averages(i_avg)[1:], 2 * i_avg[:-1]
    copied = ~np.isfinite(avg)
    assert np.array_equal(j_avg[copied], avg[copied], equal_nan=True)
    derived = j_avg[~copied & np.isfinite(twice)]
    assert np.all(np.isfinite(derived))
    assert np.all(np.signbit(derived[derived != 0]) == (c < 0))
