"""The Gauss-Legendre shells of LogPowerPlain against 40-digit mpmath
quadrature, and the closed-form spine averages of Power against 40-digit
powers of two.

mpmath has no exponent range to leave and integrates to any precision, so it
is a reference independent of the double-precision rule, its series past
shell 1024, the table of powers of two and the extended-precision sums.
"""

import math

import mpmath as mp
import numpy as np
import pytest

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
# Power's spine averages c/(gamma+1) 2^(-gamma k), J-shells times 2^(gamma+1) - 1

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


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_power_spine_averages_are_within_four_ulps_of_mpmath(gamma):
    # the I_k averages against the exact c/(gamma+1) 2^(-gamma k); the J
    # averages against the coefficient c (2^(gamma+1) - 1)/(gamma+1) as
    # rounded (near gamma = -1 it cancels), times the exact 2^(-gamma k):
    # every normal extended-precision entry, at sampled k
    c = 1.5
    g = Power(c, gamma)
    i_avg, j_avg = g._spine_averages(_N_MAX)
    ld = np.longdouble
    coef_j = _ld_to_mp(ld(c) * (np.exp2(ld(gamma) + 1) - 1) / (ld(gamma) + 1))
    checked = 0
    for k in _sampled_ks(_N_MAX):
        scale = mp.power(2, -mp.mpf(gamma) * k)
        pairs = [(i_avg[k], c / (mp.mpf(gamma) + 1) * scale), (j_avg[k], coef_j * scale)]
        for got, want in pairs[: 1 if k == 0 else 2]:  # J_0 is NaN
            if not _MIN_LOG2 + 1 < mp.log(abs(want), 2) < _MAX_LOG2 - 1:
                continue
            ulp = mp.mpf(2) ** (mp.floor(mp.log(abs(want), 2)) - 63)
            assert abs(_ld_to_mp(got) - want) <= 4 * ulp, (k, float((_ld_to_mp(got) - want) / ulp))
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("c", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("gamma", [-(1.0 - 2.0 ** -11), -0.75, 1.0 - 2.0 ** -11])
def test_power_spine_averages_overflow_and_underflow_where_the_exact_ones_do(c, gamma):
    # beta = 1 - 2^-11 is the A_infty growth sweep's j = 11 weight x^-beta at
    # n_max 32768.  An average is +-inf (NaN for c = 0) where 2^(-gamma k) or
    # the average passes the largest extended-precision number, and +-0 where
    # either falls below half the least subnormal 2^-16445; k within 2 in log2
    # of a threshold are left out.  The sign is c's, and +0 for c = 0.
    g = Power(c, gamma)
    with np.errstate(invalid="ignore"):  # 0 * inf
        avgs = g._spine_averages(_N_MAX)
    ld = np.longdouble
    coefs = [ld(c) / (ld(gamma) + 1), ld(c) * (np.exp2(ld(gamma) + 1) - 1) / (ld(gamma) + 1)]
    log2_scale = -gamma * np.arange(1, _N_MAX + 1, dtype=float)  # k >= 1: J_0 is NaN
    for avg, coef in zip(avgs, coefs):
        avg = avg[1:]
        if c == 0.0:
            # 0 * 2^(-gamma k): NaN where the scale overflows, else +0
            assert np.all(np.isnan(avg[log2_scale > _MAX_LOG2 + 2]))
            zero = avg[log2_scale < _MAX_LOG2 - 2]
            assert np.all(zero == 0) and not np.any(np.signbit(zero))
            continue
        log2_avg = log2_scale + math.log2(abs(float(coef)))
        over = np.maximum(log2_scale, log2_avg)
        under = np.minimum(log2_scale, log2_avg)
        huge, tiny = over > _MAX_LOG2 + 2, under < -16446 - 2
        fine = (over < _MAX_LOG2 - 2) & (under > -16445 + 2)
        assert np.all(np.isinf(avg[huge])) and np.all(avg[tiny] == 0)
        assert np.all(np.isfinite(avg[fine]) & (avg[fine] != 0))
        assert np.all(np.signbit(avg[huge | tiny | fine]) == (c < 0))
