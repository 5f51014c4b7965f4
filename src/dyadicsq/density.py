"""Closed-form-integrable densities on (0, 1) and their reflective extension to R.

Every weight and test function used by the constructions is assembled from the
leaves below.  Integration is exact (antiderivative differences) wherever a
leaf admits one, and certified shell-wise quadrature otherwise; quadrature is
never attempted across the singular point 0.

Conventions:

* all densities except :class:`PeriodicReflect` are supported in [0, 1);
* ``primitive(t)`` is the mass of [0, t), vectorized over numpy arrays; without
  an antiderivative (:class:`ShellwiseDensity`) it is the mass below the point's
  shell, cached per instance and shell, plus a vectorized partial shell;
* ``spine_averages(n_max)`` returns the averages over I_k = [0, 2^-k) and over
  the shells J_n = [2^-n, 2^-(n-1)) as extended-precision arrays, which is the
  workhorse for all deep spine computations; without a closed form
  (:class:`ShellwiseDensity`) the I_k averages are the geometric suffix sums
  <g>_{I_k} = sum_{m>=1} 2^-m <g>_{J_{k+m}} of the shell averages, cut after
  ``_SUFFIX_TAPS`` = 128 shells; the dropped tail is about 2^-128 of the sum
  for bounded shell averages and at most about 2^-64 for averages growing like
  2^(n/p), p > 2, as those of the direct-sum sigma*f do;
* the shell averages of :class:`LogPowerPlain` are a 16-node Gauss-Legendre
  rule, summed node by node below shell 1024 and from there as its series in
  1/n, cut after 8 terms: the dropped terms are at most |binom(-s, 8)| n^-8
  <= |binom(-s, 8)| 2^-80 of the average for s >= -8, below 2^-80 for
  0 <= s <= 1 and below 2^-53 up to s = 30;
* pointwise evaluation at exactly 0 returns the convention value 1 (it is
  irrelevant to every integral and exists for plotting only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dyadic import DyadicInterval

LN2 = math.log(2.0)

#: Shells kept by the suffix fold (a power of two).  A shell average growing
#: like 2^(n/p) weighs 2^(-m(1 - 1/p)) at tap m, so 128 taps leave at most
#: 2^-64 for every p > 2, below extended-precision resolution; bounded or
#: decaying averages leave 2^-128.
_SUFFIX_TAPS = 128

_LD = np.longdouble

#: Deepest shell J_n whose left end 2^-n is a nonzero double.
_MAX_SHELL = 1074


class NonIntegrableError(ValueError):
    """The requested integral diverges (e.g. x^gamma with gamma <= -1 down to 0)."""


def _as_longdouble(x):
    return np.asarray(x, dtype=_LD)


def _shell_index(t):
    """n with t in (2^-n, 2^(1-n)] for 0 < t <= 1, exactly: a power of two
    2^-k falls in J_(k+1), whose partial shell is then whole."""
    m, e = np.frexp(t)
    return (1 - e + (m == 0.5)).astype(np.int64)


class Density:
    """Immutable expression tree; every operation is pure."""

    def value(self, x):
        raise NotImplementedError

    def primitive(self, t):
        """Mass of [0, t) for t in [0, 1], vectorized."""
        raise NotImplementedError

    def _partial(self, n, t):
        """Mass of [2^-n, t) for t in (2^-n, 2^(1-n)], vectorized over n and t."""
        return self.primitive(t) - self.primitive(np.ldexp(1.0, -n))

    def integrate(self, a: float, b: float) -> float:
        """Exact or certified integral over [a, b), 0 <= a < b <= 1."""
        if not 0.0 <= a < b <= 1.0 + 1e-15:
            raise ValueError(f"bad interval [{a}, {b}) for a [0,1)-supported density")
        return float(self.primitive(min(b, 1.0)) - self.primitive(a))

    def spine_averages(self, n_max: int):
        """Averages (I_avg[0..n_max], J_avg[0..n_max]); J_avg[0] is nan.

        Generic fallback goes through ``primitive`` and is limited to depths
        where 2^-k is representable; leaves override with stable closed forms.
        """
        if n_max > 1000:
            raise NonIntegrableError(
                f"{type(self).__name__}: generic spine averages limited to depth 1000"
            )
        k = np.arange(n_max + 1)
        i_avg = _as_longdouble(self.primitive(np.ldexp(1.0, -k))) * np.exp2(_as_longdouble(k))
        j_avg = np.empty(n_max + 1, dtype=_LD)
        j_avg[0] = np.nan
        j_avg[1:] = 2.0 * i_avg[:-1] - i_avg[1:]
        return i_avg, j_avg

    def _shell_avgs(self, n_hi: int):
        """Extended-precision averages over J_1..J_{n_hi}."""
        return self.spine_averages(n_hi)[1][1:]

    def log_shell_masses(self, n_max: int):
        """log of the shell masses |J_n|*<g>_{J_n}, n = 0..n_max (entry 0 is nan)."""
        _, j_avg = self.spine_averages(n_max)
        with np.errstate(divide="ignore"):
            out = np.log(j_avg).astype(np.float64)
        out -= np.arange(n_max + 1) * LN2
        return out

    def spine_mass(self, k: int) -> float:
        """Mass of I_k = [0, 2^-k); overridden where 2^-k would underflow."""
        if k > 1070:
            raise NonIntegrableError(
                f"{type(self).__name__}: spine mass not available at depth {k}"
            )
        return float(self.primitive(0.5 ** k))


def _suffix_fold(shells):
    """i[k] = sum_{m=1}^{T} 2^-m shells[k+m-1] for k = 0..len(shells) - T.

    With shells[n-1] = <g>_{J_n} this is <g>_{I_k} cut after T = _SUFFIX_TAPS
    shells.  log2(T) doubling passes: after the pass of stride s every entry
    holds the first 2s taps.
    """
    i = shells / 2
    s = 1
    while s < _SUFFIX_TAPS:
        i = i[:-s] + i[s:] * _LD(0.5) ** s
        s *= 2
    return i


class ShellwiseDensity(Density):
    """A density integrated shell by shell, for want of an antiderivative.

    Subclasses supply ``_shell_avgs(n_hi)``, the extended-precision averages
    over J_1..J_{n_hi}, and ``_partial``.  Spine averages are the suffix fold
    of the shell averages, and the masses of [0, 2^-n) suffix sums of the
    shell masses.  For t in J_n, ``primitive(t)`` is the mass below 2^-n plus
    ``_partial``; those masses are cached on the instance, so each shell is
    summed once however many points it holds.
    """

    #: Deepest spine served.
    _MAX_SPINE: float = math.inf

    @cached_property
    def _below(self) -> dict[int, float]:
        return {}

    def spine_averages(self, n_max: int):
        if n_max > self._MAX_SPINE:
            raise NonIntegrableError(
                f"{type(self).__name__}: spine depth limited to {self._MAX_SPINE}")
        shells = self._shell_avgs(n_max + _SUFFIX_TAPS)
        j_avg = np.empty(n_max + 1, dtype=_LD)
        j_avg[0] = np.nan
        j_avg[1:] = shells[:n_max]
        return _suffix_fold(shells), j_avg

    def _masses_below(self, ns):
        """Masses of [0, 2^-n) for the shells ns: the _SUFFIX_TAPS shell masses
        below each, summed in double, largest first.

        Not the fold: depth-14 dyadic characteristics difference these masses
        over intervals of length 2^-14, so one ulp here moves their values by
        about 1e-12, and the values reported for the glued densities rest on
        this summation order.
        """
        hi = int(ns.max()) + _SUFFIX_TAPS
        masses = np.ldexp(self._shell_avgs(hi), -np.arange(1, hi + 1)).astype(float)
        windows = np.lib.stride_tricks.sliding_window_view(masses, _SUFFIX_TAPS)[ns]
        return np.cumsum(windows, axis=1)[:, -1]

    def primitive(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape)
        pos = t_arr > 0.0
        tp = np.minimum(t_arr[pos], 1.0)
        n = _shell_index(tp)
        if n.size and n.max() > _MAX_SHELL:
            raise NonIntegrableError(f"{type(self).__name__}: primitive limited to "
                                     f"depth {_MAX_SHELL}, got t = {tp.min()!r}")
        shells, at = np.unique(n, return_inverse=True)
        if new := [k for k in shells.tolist() if k not in self._below]:
            self._below.update(zip(new, self._masses_below(np.array(new)).tolist()))
        below = np.array([self._below[k] for k in shells.tolist()])
        out[pos] = below[at] + self._partial(n, tp)
        return out[()]


# ---------------------------------------------------------------------------
# leaves


@dataclass(frozen=True)
class Constant(Density):
    c: float = 1.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x < 1), self.c, 0.0)

    def primitive(self, t):
        return self.c * np.asarray(t, dtype=float)

    def spine_averages(self, n_max: int):
        i_avg = np.full(n_max + 1, _LD(self.c))
        j_avg = np.full(n_max + 1, _LD(self.c))
        j_avg[0] = np.nan
        return i_avg, j_avg

    def spine_mass(self, k: int) -> float:
        return self.c * 0.5 ** k if k <= 1070 else 0.0


@dataclass(frozen=True)
class Power(Density):
    """c * x^gamma on (0, 1); integrable near 0 iff gamma > -1."""

    c: float
    gamma: float

    def __post_init__(self):
        if self.gamma <= -1.0:
            raise NonIntegrableError(f"x^{self.gamma} is not integrable near 0")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0) & (x < 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(inside, self.c * np.power(np.where(inside, x, 1.0), self.gamma), 0.0)
        return np.where(x == 0, 1.0, v)

    def primitive(self, t):
        t = np.asarray(t, dtype=float)
        g1 = self.gamma + 1.0
        return self.c * np.power(t, g1) / g1

    def spine_averages(self, n_max: int):
        k = _as_longdouble(np.arange(n_max + 1))
        g = _LD(self.gamma)
        scale = np.exp2(-g * k)  # 2^(-gamma*k)
        i_avg = _LD(self.c) / (g + 1) * scale
        j_avg = _LD(self.c) * (np.exp2(g + 1) - 1) / (g + 1) * scale
        j_avg[0] = np.nan
        return i_avg, j_avg

    def log_shell_masses(self, n_max: int):
        n = np.arange(n_max + 1, dtype=float)
        g1 = self.gamma + 1.0
        out = math.log(self.c * (2.0 ** g1 - 1.0) / g1) - n * g1 * LN2
        out[0] = np.nan
        return out

    def spine_mass(self, k: int) -> float:
        g1 = self.gamma + 1.0
        return self.c / g1 * 2.0 ** (-k * g1) if k * g1 < 1070 else 0.0


def _u(x):
    """1 - log2(x), the slowly varying factor of the log-power leaves."""
    return 1.0 - np.log2(x)


@dataclass(frozen=True)
class LogPowerOverX(Density):
    """c / (x * (1 - log2 x)^s) on (0, 1).

    Antiderivative of the mass from 0: (c*ln2/(s-1)) * (1 - log2 t)^(1-s),
    finite at 0 exactly when s > 1.
    """

    c: float
    s: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0) & (x < 1)
        xs = np.where(inside, x, 0.5)
        v = np.where(inside, self.c / (xs * _u(xs) ** self.s), 0.0)
        return np.where(x == 0, 1.0, v)

    def primitive(self, t):
        if self.s <= 1.0:
            raise NonIntegrableError(f"1/(x (1-log2 x)^{self.s}) is not integrable near 0")
        t = np.asarray(t, dtype=float)
        pos = t > 0
        return np.where(pos, self.c * LN2 / (self.s - 1.0) * np.where(pos, _u(np.where(pos, t, 0.5)), 1.0) ** (1.0 - self.s), 0.0)

    def integrate(self, a: float, b: float) -> float:
        # valid for every s as long as a > 0
        if a == 0.0:
            return float(self.primitive(b))
        alpha = 1.0 - self.s
        if alpha == 0.0:
            return self.c * LN2 * math.log(_u(a) / _u(b))
        f = lambda t: -self.c * LN2 / alpha * _u(t) ** alpha
        return f(min(b, 1.0)) - f(a)

    def spine_averages(self, n_max: int):
        k = np.arange(n_max + 1)
        masses = _as_longdouble(self.c * LN2 / (self.s - 1.0) * (1.0 + k) ** (1.0 - self.s))
        i_avg = masses * np.exp2(_as_longdouble(k))
        j_avg = np.empty(n_max + 1, dtype=_LD)
        j_avg[0] = np.nan
        j_avg[1:] = 2.0 * i_avg[:-1] - i_avg[1:]
        return i_avg, j_avg

    def log_shell_masses(self, n_max: int):
        n = np.arange(n_max + 1, dtype=float)
        alpha = 1.0 - self.s
        with np.errstate(divide="ignore"):
            if alpha == 0.0:
                masses = self.c * LN2 * np.log((1.0 + n) / n)
            else:
                # u = 1 - log2 x equals n at the right end of J_n, n+1 at the left
                masses = -self.c * LN2 / alpha * (n ** alpha - (1.0 + n) ** alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(masses)
        out[0] = np.nan
        return out

    def spine_mass(self, k: int) -> float:
        if self.s <= 1.0:
            raise NonIntegrableError("divergent spine mass")
        return self.c * LN2 / (self.s - 1.0) * (1.0 + k) ** (1.0 - self.s)


# 16-point Gauss-Legendre nodes/weights on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0

#: The shell rule: <g>_{J_n} = sum_i _GL_KERNEL[i] (n + _GL_X[i])^-s.
_GL_KERNEL = LN2 * np.exp2(1.0 - _GL_X) * _GL_W

#: Shells n >= _SERIES_FROM expand the rule in tau/n <= 2^-10,
#: (n + tau)^-s = n^-s sum_k binom(-s, k) (tau/n)^k, cut after _SERIES_TERMS
#: terms, whose node sums are the moments sum_i _GL_KERNEL[i] _GL_X[i]^k.  The
#: kernel sums to about 1, so the dropped terms are at most |binom(-s, 8)| n^-8
#: <= |binom(-s, 8)| 2^-80 of the average for s >= -8: below 2^-80 for
#: 0 <= s <= 1, 7.4e-24 at s = 2, and below 2^-53 up to s = 30 (3.2e-17).
_SERIES_FROM = 1024
_SERIES_TERMS = 8
_GL_MOMENTS = _GL_KERNEL @ (_GL_X[:, None] ** np.arange(_SERIES_TERMS))


@dataclass(frozen=True)
class LogPowerPlain(ShellwiseDensity):
    """(1 - log2 x)^(-s) on (0, 1); no elementary antiderivative.

    Shell masses are computed by fixed-order Gauss-Legendre on the substituted
    integrand ln2 * 2^(1-tau) (n + tau)^(-s), tau in [0, 1], which is smooth
    (on deep shells through the rule's series in 1/n), and partial shells by
    the same rule in x; other [a, b) by adaptive quadrature.
    """

    s: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0) & (x < 1)
        xs = np.where(inside, x, 0.5)
        v = np.where(inside, _u(xs) ** (-self.s), 0.0)
        return np.where(x == 0, 1.0, v)

    def shell_avgs_vec(self, n_lo: int, n_hi: int):
        """Averages over J_n for n in [n_lo, n_hi], vectorized.

        <g>_{J_n} = ln2 * int_0^1 2^(1-tau) (n + tau)^(-s) dtau, a smooth
        integrand handled to machine precision by fixed-order Gauss-Legendre:
        node by node below _SERIES_FROM, and from there as the rule's series
        n^-s sum_k c_k n^-k, one power per shell and Horner in 1/n.  Each
        shell's value is independent of the range [n_lo, n_hi] asked for.
        """
        mid = min(max(n_lo, _SERIES_FROM), n_hi + 1)
        n = np.arange(n_lo, mid, dtype=float)[:, None]
        head = ((n + _GL_X) ** (-self.s) * _GL_KERNEL).sum(axis=-1)  # rowwise: no BLAS blocking
        n = np.arange(mid, n_hi + 1, dtype=float)
        binom = np.cumprod([1.0] + [(-self.s - k) / (k + 1) for k in range(_SERIES_TERMS - 1)])
        coef = binom * _GL_MOMENTS
        u = 1.0 / n
        tail = coef[-1] * u
        for c in coef[-2:0:-1]:
            tail += c
            tail *= u
        tail += coef[0]
        tail *= n ** (-self.s)
        return np.concatenate([head, tail])

    def _shell_avgs(self, n_hi: int):
        return _as_longdouble(self.shell_avgs_vec(1, n_hi))

    def _partial(self, n, t):
        # analytic within three half-lengths of [2^-n, t): 16 nodes reach rounding
        lo = np.ldexp(1.0, -n)
        h = t - lo
        x = lo[..., None] + h[..., None] * _GL_X
        return h * (_u(x) ** (-self.s) * _GL_W).sum(axis=-1)  # rowwise: no BLAS blocking

    def integrate(self, a: float, b: float) -> float:
        if not 0.0 <= a < b <= 1.0 + 1e-15:
            raise ValueError(f"bad interval [{a}, {b})")
        if a == 0.0:
            return float(self.primitive(b))
        from scipy.integrate import quad  # imported where called: scipy is most of the CLI start-up

        return quad(lambda x: _u(x) ** (-self.s), a, min(b, 1.0),
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]


# ---------------------------------------------------------------------------
# combinators


@dataclass(frozen=True)
class Scale(Density):
    c: float
    inner: Density

    def value(self, x):
        return self.c * self.inner.value(x)

    def primitive(self, t):
        return self.c * self.inner.primitive(t)

    def integrate(self, a, b):
        return self.c * self.inner.integrate(a, b)

    def spine_averages(self, n_max):
        i_avg, j_avg = self.inner.spine_averages(n_max)
        return self.c * i_avg, self.c * j_avg

    def log_shell_masses(self, n_max):
        return math.log(self.c) + self.inner.log_shell_masses(n_max)

    def spine_mass(self, k):
        return self.c * self.inner.spine_mass(k)


@dataclass(frozen=True)
class Sum(Density):
    parts: tuple[Density, ...]

    def value(self, x):
        return sum(p.value(x) for p in self.parts)

    def primitive(self, t):
        return sum(p.primitive(t) for p in self.parts)

    def integrate(self, a, b):
        return sum(p.integrate(a, b) for p in self.parts)

    def spine_averages(self, n_max):
        acc_i = np.zeros(n_max + 1, dtype=_LD)
        acc_j = np.zeros(n_max + 1, dtype=_LD)
        for p in self.parts:
            i_avg, j_avg = p.spine_averages(n_max)
            acc_i += i_avg
            acc_j += j_avg
        return acc_i, acc_j

    def spine_mass(self, k):
        return sum(p.spine_mass(k) for p in self.parts)


@dataclass(frozen=True)
class SignModulate(ShellwiseDensity):
    """Multiply by (-1)^floor(-log2 x): sign (-1)^(n-1) on the shell J_n."""

    inner: Density

    def value(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0
        n = np.where(pos, np.floor(-np.log2(np.where(pos, x, 0.5))), 0.0)
        sign = np.where(pos, (-1.0) ** n, 1.0)
        return sign * self.inner.value(x)

    def _shell_avgs(self, n_hi: int):
        j = self.inner._shell_avgs(n_hi).copy()
        j[1::2] *= -1
        return j

    def _partial(self, n, t):
        return np.where(n % 2 == 1, 1.0, -1.0) * self.inner._partial(n, t)


@dataclass(frozen=True)
class AffinePullback(Density):
    """x -> inner((x - offset)/scale), or inner((offset - x)/scale) if reflected.

    The image of the inner support (0, 1) is [offset, offset + scale) in the
    forward case and (offset - scale, offset] reflected; masses over the image
    are exactly scale times the inner masses (no Jacobian compensation).
    Reflected, ``primitive`` resolves small masses near the far end of the
    image (inner u near 1) only to the rounding of the inner's total mass:
    LogPowerPlain reflected onto (0, 1] gives [1.37 2^-30, 2^-29) 1.8e-7
    relative off.  No family reflects a density without a closed form.
    """

    inner: Density
    offset: float
    scale: float
    reflected: bool = False

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("degenerate pullback scale")

    @property
    def support(self) -> tuple[float, float]:
        if self.reflected:
            return self.offset - self.scale, self.offset
        return self.offset, self.offset + self.scale

    def value(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x < hi)
        if self.reflected:
            u = (self.offset - x) / self.scale
        else:
            u = (x - self.offset) / self.scale
        u = np.clip(u, 0.0, 1.0)
        return np.where(inside, self.inner.value(u), 0.0)

    def _inner_range(self, a, b):
        """[a, b) cut to the support, in inner coordinates cut to [0, 1]."""
        lo, hi = self.support
        a2, b2 = np.maximum(a, lo), np.minimum(b, hi)
        if self.reflected:
            ua, ub = (self.offset - b2) / self.scale, (self.offset - a2) / self.scale
        else:
            ua, ub = (a2 - self.offset) / self.scale, (b2 - self.offset) / self.scale
        return np.maximum(ua, 0.0), np.minimum(ub, 1.0)

    def integrate(self, a, b):
        ua, ub = self._inner_range(a, b)
        if ua >= ub:
            return 0.0
        return self.scale * self.inner.integrate(float(ua), float(ub))

    def primitive(self, t):
        ua, ub = self._inner_range(0.0, np.asarray(t, dtype=float))
        ua = np.minimum(ua, 1.0)
        ub = np.maximum(ub, ua)  # an empty range gives inner mass 0 exactly
        return (self.scale * (self.inner.primitive(ub) - self.inner.primitive(ua)))[()]


class PiecewiseDyadic(ShellwiseDensity):
    """A density glued shell by shell: piece(n) is supported on J_n, n >= 1."""

    # a spine fold then reads only shells n <= 900 + _SUFFIX_TAPS < _MAX_SHELL,
    # where the pieces exist
    _MAX_SPINE = 900

    def __init__(self, piece_fn, name: str = "piecewise"):
        self._piece_fn = piece_fn
        self._name = name
        self._pieces: dict[int, Density] = {}
        self._masses: dict[int, float] = {}

    def piece(self, n: int) -> Density | None:
        """The piece on J_n; shells past _MAX_SHELL (left end 2^-n = 0 as a
        double) are empty, their mass being below the smallest double."""
        if n > _MAX_SHELL:
            return None
        if n not in self._pieces:
            self._pieces[n] = self._piece_fn(n)
        return self._pieces[n]

    def piece_mass(self, n: int) -> float:
        if n not in self._masses:
            p = self.piece(n)
            self._masses[n] = 0.0 if p is None else p.integrate(0.5 ** n, 0.5 ** (n - 1))
        return self._masses[n]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0) & (x < 1)
        n = 1 - np.frexp(np.where(inside, x, 0.5))[1]  # x in [2^-n, 2^(1-n))
        out = np.where(x == 0.0, 1.0, 0.0)
        for k in np.unique(n[inside]).tolist():
            if (p := self.piece(k)) is not None:
                out[inside & (n == k)] = p.value(x[inside & (n == k)])
        return out[()]

    def _partial(self, n, t):
        # a piece lives on its shell, so its primitive is its partial mass
        out = np.zeros_like(t)
        for k in np.unique(n).tolist():
            if (p := self.piece(k)) is not None:
                out[n == k] = p.primitive(t[n == k])
        return out

    def _shell_avgs(self, n_hi: int):
        n = np.arange(1, n_hi + 1)
        return np.ldexp(_as_longdouble([self.piece_mass(k) for k in n.tolist()]), n)

    def __repr__(self):
        return f"PiecewiseDyadic({self._name})"


class PeriodicReflect(Density):
    """Reflective periodization of a [0,1)-supported density to all of R.

    Agrees with the inner density on [0, 1), is reflected on [1, 2), and has
    period 2; consequently it is symmetric about every integer.  Integer
    points take the convention value 1.
    """

    def __init__(self, inner: Density):
        self.inner = inner

    def value(self, x):
        x = np.asarray(x, dtype=float)
        m = np.floor(x)
        frac = x - m
        fwd = np.mod(m, 2) == 0
        u = np.where(fwd, frac, 1.0 - frac)
        at_int = frac == 0.0
        u = np.where(at_int, 0.5, u)  # placeholder, overwritten below
        v = self.inner.value(u)
        return np.where(at_int, 1.0, v)

    @cached_property
    def unit_mass(self) -> float:
        return float(self.inner.primitive(1.0))

    def cumulative(self, xs, x0):
        """Vectorized mass of [x0, x) for an integer anchor x0 <= min(xs), or one per point."""
        if np.any(np.floor(x0) != x0):
            raise ValueError("anchor must be an integer")
        xs = np.asarray(xs, dtype=float)
        m = np.floor(xs)
        frac = xs - m
        fwd = np.mod(m, 2) == 0
        f01 = self.inner.primitive(np.where(fwd, frac, 1.0 - frac))
        partial = np.where(fwd, f01, self.unit_mass - f01)
        return (m - x0) * self.unit_mass + partial

    def masses(self, a, b):
        """Masses of the intervals [a_i, b_i), each taken from the anchor
        floor(a_i): one ``cumulative`` call on the points a followed by b."""
        a, b = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (a, b))
        if (a >= b).any():
            raise ValueError("empty interval")
        c = self.cumulative(np.concatenate([a, b]), np.floor(np.concatenate([a, a])))
        return c[a.size :] - c[: a.size]

    def integrate(self, a, b):
        return float(self.masses(a, b)[0])


# ---------------------------------------------------------------------------
# module-level operations


def integrate(g: Density, a: float, b: float) -> float:
    return g.integrate(a, b)


def average(g: Density, q: DyadicInterval) -> float:
    return g.integrate(float(q.left), float(q.right)) * 2.0 ** q.level


def shell_mass(g: Density, n: int) -> float:
    if n < 1:
        raise ValueError("shell index must be >= 1")
    return g.integrate(0.5 ** n, 0.5 ** (n - 1))


def affine_pullback(g: Density, offset: float, scale: float, reflected: bool = False) -> Density:
    return AffinePullback(g, offset, scale, reflected)


def dual_power(g: Density, p: float) -> Density:
    """The dual weight g^(-1/(p-1)); closed form for pure powers only."""
    if p <= 1.0:
        raise ValueError("dual weight requires p > 1")
    if isinstance(g, Constant):
        return Constant(g.c ** (-1.0 / (p - 1.0)))
    if isinstance(g, Power):
        return Power(g.c ** (-1.0 / (p - 1.0)), -g.gamma / (p - 1.0))
    raise TypeError(f"dual weight has no closed form for {type(g).__name__}")


def quadrature_integrate(g: Density, a: float, b: float, rel: float = 1e-11) -> float:
    """Adaptive-quadrature oracle for integrals with 0 < a; independent of the
    antiderivative path and used for cross-validation."""
    if a <= 0.0:
        raise ValueError("quadrature oracle requires a > 0 (singularity at 0)")
    from scipy.integrate import quad

    val, _ = quad(lambda x: float(np.asarray(g.value(x))), a, b,
                  epsabs=0.0, epsrel=rel, limit=400)
    return val
