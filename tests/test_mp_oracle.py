"""The Gauss-Legendre shells of LogPowerPlain against 40-digit mpmath quadrature.

mpmath has no exponent range to leave and integrates to any precision, so it
is a reference independent of the double-precision rule, its series past
shell 1024 and the extended-precision sums.
"""

import mpmath as mp
import pytest

from dyadicsq.density import LogPowerPlain

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
        assert abs(g.shell_avgs_vec(n, n)[0] - want) <= 1e-15 * want, n


@pytest.mark.parametrize("s", _S)
def test_the_substituted_shell_integral_is_the_shell_average(s):
    # the tau form against the shell average taken in x, 2^n times the mass of J_n
    for n in (1, 2, 3, 4):
        want = 2 ** n * _mp_mass(s, 2.0 ** -n, 2.0 ** (1 - n))
        assert abs(_mp_shell_avg(s, n) - want) <= mp.mpf(10) ** -30 * want, n
        assert abs(LogPowerPlain(s).shell_avgs_vec(n, n)[0] - want) <= 1e-15 * want, n


@pytest.mark.parametrize("s", _S)
def test_off_zero_integrals_are_primitive_differences_within_their_stated_limit(s):
    # a difference of two primitives: within 3e-14 of the mass for b - a >= 0.01
    g = LogPowerPlain(s)
    for a, b in ((0.001, 0.011), (0.245, 0.255), (0.49, 0.5), (0.7, 0.71), (0.84, 0.85),
                 (0.99, 1.0), (0.125, 0.9), (1e-6, 1.0)):
        want = _mp_mass(s, a, b)
        assert abs(g.integrate(a, b) - want) <= 3e-14 * want, (a, b)
