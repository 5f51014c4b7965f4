"""Closed-form-integrable densities on (0, 1) and their reflective extension to R.

Every weight and test function used by the constructions is assembled from the
leaves below.  Integration is exact (antiderivative differences) wherever a
leaf admits one, and a fixed shell-wise Gauss-Legendre rule otherwise (no
adaptive quadrature); no rule is ever applied across the singular point 0.

Conventions:

* all densities except :class:`PeriodicReflect` are supported in [0, 1);
* ``primitive(t)`` is the mass of [0, t), vectorized over numpy arrays; without
  an antiderivative (:class:`ShellwiseDensity`) it is the mass below the point's
  shell, cached per instance and shell, plus a vectorized partial shell;
* a spine is its I_k averages: ``spine_averages(n_max)`` returns those over
  I_k = [0, 2^-k), k = 0..n_max, as one read-only extended-precision array
  (kept on the instance for the last n_max), the workhorse for all deep spine
  computations; a shell average is 2 <g>_{I_(n-1)} - <g>_{I_n} over
  J_n = [2^-n, 2^(1-n)).  Without a closed form (:class:`ShellwiseDensity`)
  the I_k averages are the suffix sums <g>_{I_k} = sum_{m>=1} 2^-m
  <g>_{J_{k+m}}, summed in mass form, from the deepest shell up, by one
  ``np.cumsum`` per block (``_suffix_fold``); each I_k sums every shell its
  block reads, at least ``_SUFFIX_TAPS`` = 128, so the dropped tail is about
  2^-128 of the sum for bounded shell averages and at most about 2^-64 for
  averages growing like 2^(n/p), p > 2 (the direct-sum sigma*f); the shell
  averages the fold reads (``_shell_avgs``) may be doubles, which it scales
  into extended precision exactly;
* ``spine_blocks(n_max)`` yields the same I_k averages in consecutive blocks.
  A :class:`ShellwiseDensity` folds them ``_FOLD_BLOCK`` = 8192 at a time from
  that block's own 8192 + 127 shells and holds one block at a time, so a
  reduction over the blocks (``squarefn.partial_mass_profile``) runs in memory
  independent of n_max; its ``spine_averages`` is the same blocks joined into
  one array, so the eager and the streamed spine are one fold, float for float;
* a :class:`PiecewiseDyadic` places a block density on (0, 1) on each shell
  J_n through the maps u = 2^n x - 1 or, mirrored, u = 2 - 2^n x, both exact
  in double, and takes its masses as 2^-n times the block's;
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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DyadicInterval

LN2 = math.log(2.0)

#: Fewest shells the suffix fold sums below an I_k.  A shell average growing
#: like 2^(n/p) weighs 2^(-m(1 - 1/p)) at tap m, so 128 taps leave at most
#: 2^-64 for every p > 2, below extended-precision resolution; bounded or
#: decaying averages leave 2^-128.
_SUFFIX_TAPS = 128

_LD = np.longdouble

#: The largest double below 1.
_BELOW_ONE = np.nextafter(1.0, 0.0)

#: Deepest shell J_n whose left end 2^-n is a nonzero double.
_MAX_SHELL = 1074

#: Deepest I_k for ``spine_mass``: 2^-1070 is still 16 times the smallest
#: double, so a mass of that order is not yet 0.
_SPINE_MASS_MAX_DEPTH = 1070


class NonIntegrableError(ValueError):
    """The requested integral diverges (e.g. x^gamma with gamma <= -1 down to 0)."""


def _shell_of(x):
    """n with x in J_n = [2^-n, 2^(1-n)) for 0 < x < 1, exactly."""
    return 1 - np.frexp(x)[1]


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
        """The averages over I_k = [0, 2^-k), k = 0..n_max.

        One read-only array, kept on the instance for the last n_max asked
        for: the characteristics of one call build each weight's spine once.
        """
        if (last := self.__dict__.get("_spine")) is None or last[0] != n_max:
            (spine := self._spine_averages(n_max)).flags.writeable = False
            self.__dict__["_spine"] = last = (n_max, spine)
        return last[1]

    def _spine_averages(self, n_max: int):
        """Fresh spine averages, in closed form or by :class:`ShellwiseDensity`'s fold."""
        raise NotImplementedError

    def spine_blocks(self, n_max: int):
        """``spine_averages(n_max)`` as consecutive blocks: one here, and for
        :class:`ShellwiseDensity` blocks of ``_FOLD_BLOCK``, folded one at a
        time."""
        yield self.spine_averages(n_max)

    def spine_mass(self, k: int) -> float:
        """Mass of I_k = [0, 2^-k); overridden where 2^-k would underflow."""
        if k > _SPINE_MASS_MAX_DEPTH:
            raise NonIntegrableError(
                f"{type(self).__name__}: spine mass not available at depth {k}"
            )
        return float(self.primitive(0.5 ** k))


#: Shells per block of the mass-form fold.  Its scalings reach 2^-(8192 + 127),
#: where the least double 2^-1074 is still a normal extended-precision number
#: (down to 2^-16382), so each is exact; a block of 133 KB stays in L2 cache.
_FOLD_BLOCK = 8192


def _fold_scalings(m: int):
    """(2^-(j+1) for j < m + 127, 2^j for j < m), exact, for blocks of at most
    m <= _FOLD_BLOCK outputs."""
    down = np.full(m + _SUFFIX_TAPS - 1, _LD(0.5)).cumprod()
    return down, 0.5 / down[:m]


def _suffix_fold(shells, down, up):
    """i[k] = sum_{j>=k} 2^-(j-k+1) shells[j] for k = 0..len(shells) - T, one
    block of at most _FOLD_BLOCK outputs, with (down, up) = _fold_scalings of
    at least that many.

    With shells[n-1] = <g>_{J_n} this is <g>_{I_k} cut after the block's last
    shell, at least T = _SUFFIX_TAPS taps below I_k, in mass form: shell j is
    scaled by 2^-(j+1), one ``np.cumsum`` runs in place up the reversed view,
    deepest shell first, and output k is scaled back by 2^k: 3
    extended-precision passes.  Scaling by a power of two is exact while
    values stay normal, for nonzero |shells| in [2^-8000, 2^8000] (every
    double), so output k is the running sum of its taps rounded once per
    tap, within 2^-64 times the sum of its |partial sums|; an output whose
    taps hold a NaN, or both +inf and -inf, is NaN.
    """
    m = shells.size - _SUFFIX_TAPS + 1
    v = shells * down[: shells.size]
    np.cumsum(v[::-1], out=v[::-1])
    v = v[:m]
    v *= up[:m]
    return v


class ShellwiseDensity(Density):
    """A density integrated shell by shell, for want of an antiderivative.

    Subclasses supply ``_partial`` and ``_shell_avgs(n_lo, n_hi)``, the averages
    over J_{n_lo}..J_{n_hi} in a fresh array the caller may write to, each
    shell's value independent of the range, in extended precision or in double
    (:class:`LogPowerPlain`, whose rule is a double one: the fold's first
    product, by a power of two, takes it into extended precision exactly).
    The spine, its I_k averages, is the suffix fold of the shell averages,
    block by block (``spine_blocks`` yields one block at a time,
    ``spine_averages`` joins them; an I_k sums the shells down to its block's
    last, so the last block's floats depend on n_max), and the masses of
    [0, 2^-n) suffix sums of the shell masses.  For t in J_n, ``primitive(t)``
    is the mass below 2^-n plus ``_partial``; those masses are cached on the
    instance, so each shell is summed once however many points it holds.
    """

    #: Deepest spine served.
    _MAX_SPINE: float = math.inf

    @cached_property
    def _below(self) -> dict[int, float]:
        return {}

    def spine_blocks(self, n_max: int):
        """The I_k averages, k in [b, b + _FOLD_BLOCK) up to n_max, each block
        the suffix fold of its own m + 127 shells (m outputs), fresh.  Output k
        sums the shells from J_(k+1) to its block's last, so ``spine_averages``
        joins the same floats."""
        if n_max > self._MAX_SPINE:
            raise NonIntegrableError(
                f"{type(self).__name__}: spine depth limited to {self._MAX_SPINE}")
        down, up = _fold_scalings(min(_FOLD_BLOCK, n_max + 1))
        for b in range(0, n_max + 1, _FOLD_BLOCK):
            m = min(_FOLD_BLOCK, n_max + 1 - b)
            yield _suffix_fold(self._shell_avgs(b + 1, b + m + _SUFFIX_TAPS - 1), down, up)

    def _spine_averages(self, n_max: int):
        return np.concatenate(list(self.spine_blocks(n_max)))

    def _masses_below(self, ns):
        """Masses of [0, 2^-n) for the shells ns: the _SUFFIX_TAPS shell masses
        below each, summed in double, largest first.

        Not the fold: depth-14 dyadic characteristics difference these masses
        over intervals of length 2^-14, so one ulp here moves their values by
        about 1e-12, and the values reported for the glued densities rest on
        this summation order.
        """
        hi = int(ns.max()) + _SUFFIX_TAPS
        masses = np.ldexp(self._shell_avgs(1, hi), -np.arange(1, hi + 1)).astype(float)
        windows = np.lib.stride_tricks.sliding_window_view(masses, _SUFFIX_TAPS)[ns]
        return np.cumsum(windows, axis=1)[:, -1]

    def primitive(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape)
        pos = t_arr > 0.0
        tp = np.minimum(t_arr[pos], 1.0)
        # t in (2^-n, 2^(1-n)]: a power of two 2^-k ends J_(k+1), so n <= 1075
        n = _shell_of(tp) + (np.frexp(tp)[0] == 0.5)
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

    def _spine_averages(self, n_max: int):
        return np.full(n_max + 1, _LD(self.c))

    def _shell_avgs(self, n_lo: int, n_hi: int):  # fresh: SignModulate negates in place
        return np.full(n_hi - n_lo + 1, _LD(self.c))


@dataclass(frozen=True)
class Power(Density):
    """c * x^gamma on (0, 1); integrable near 0 iff gamma > -1.

    Its spine averages c/(gamma+1) 2^(-gamma k) are within 3 extended-precision
    ulps (about 2e-19 relative) of 40-digit mpmath, for normal values below
    n_max = 2^22.
    """

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

    def _spine_averages(self, n_max: int):
        """coef * 2^(-gamma k), k = 0..n_max, with 2^(-gamma k) the table
        2^(-gamma q b) 2^(-gamma j) over k = q b + j, 0 <= j < b, for b the
        power of two with b^2 > n_max.

        Below n_max = 2^22, q and j are below 2^11, so both exp2 arguments are
        exact products in extended precision: exp2 runs about 2 sqrt(n_max)
        times, not n_max + 1, and no gamma k is rounded before it.  A row whose
        2^(-gamma q b) overflows (gamma < 0, so its 2^(-gamma j) are >= 1) is
        coef * inf throughout, filled rather than multiplied: x87 arithmetic on
        inf is slow.  An average past the extended-precision range is +-inf,
        which every consumer reports as non-finite, so overflows raise no
        warning; the table's last row runs past n_max, where a product may
        overflow that no average does.
        """
        g = _LD(self.gamma)
        b = 1 << (n_max.bit_length() + 1) // 2
        steps = np.arange(b, dtype=_LD)
        q = n_max // b + 1  # rows
        coef = _LD(self.c) / (g + 1)
        avg = np.empty((q, b), dtype=_LD)
        with np.errstate(over="ignore"):
            hi = np.exp2(-(g * steps[:q]) * b)
            # hi grows with q where it overflows, so its inf rows come last; a
            # NaN gamma (hi NaN, not inf) multiplies through
            rows = int(np.count_nonzero(hi != np.inf))
            np.multiply.outer(coef * hi[:rows], np.exp2(-g * steps), out=avg[:rows])
            avg[rows:] = coef * _LD(np.inf)
        return avg.reshape(-1)[: n_max + 1]

    def log_shell_masses(self, n_max: int):
        """log of the shell masses |J_n|*<g>_{J_n}, n = 0..n_max (entry 0 is nan)."""
        n = np.arange(n_max + 1, dtype=float)
        g1 = self.gamma + 1.0
        out = math.log(self.c * (2.0 ** g1 - 1.0) / g1) - n * g1 * LN2
        out[0] = np.nan
        return out


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

    def _spine_averages(self, n_max: int):
        k = np.arange(n_max + 1)
        masses = (self.c * LN2 / (self.s - 1.0) * (1.0 + k) ** (1.0 - self.s)).astype(_LD)
        return masses * np.exp2(k.astype(_LD))

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
    the same rule in x.  ``integrate(a, b)`` with a > 0 is a difference of two
    primitives, so it resolves a short [a, b) only to the rounding of the mass
    below b: against 40-digit quadrature, within 3e-14 relative for b - a >=
    0.01, but 8e-10 off on [0.7, 0.7 + 1e-7).  No family integrates it off 0.
    """

    s: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0) & (x < 1)
        xs = np.where(inside, x, 0.5)
        v = np.where(inside, _u(xs) ** (-self.s), 0.0)
        return np.where(x == 0, 1.0, v)

    def _shell_avgs(self, n_lo: int, n_hi: int):
        """Averages over J_n for n in [n_lo, n_hi], vectorized in double.

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

    def _partial(self, n, t):
        # analytic within three half-lengths of [2^-n, t): 16 nodes reach rounding
        lo = np.ldexp(1.0, -n)
        h = t - lo
        x = lo[..., None] + h[..., None] * _GL_X
        with np.errstate(divide="ignore"):  # a node x = 0 (shell 1075) gives its limit 0
            return h * (_u(x) ** (-self.s) * _GL_W).sum(axis=-1)  # rowwise: no BLAS blocking


# ---------------------------------------------------------------------------
# combinators


@dataclass(frozen=True)
class SignModulate(ShellwiseDensity):
    """Multiply a shell-wise or Constant inner by (-1)^(n-1) on J_n = [2^-n, 2^(1-n))."""

    inner: Density

    def value(self, x):
        x = np.asarray(x, dtype=float)
        sign = np.where(_shell_of(np.where(x > 0, x, 0.5)) % 2 == 1, 1.0, -1.0)
        return np.where(x > 0, sign, 1.0) * self.inner.value(x)

    def _shell_avgs(self, n_lo: int, n_hi: int):
        j = self.inner._shell_avgs(n_lo, n_hi)
        j[n_lo % 2 :: 2] *= -1  # the even shells
        return j

    def _partial(self, n, t):
        return np.where(n % 2 == 1, 1.0, -1.0) * self.inner._partial(n, t)


class PiecewiseDyadic(ShellwiseDensity):
    """A density glued shell by shell from blocks on (0, 1).

    ``piece(n)`` is (g, mirrored), placing the block g on J_n = [2^-n, 2^(1-n))
    through u = 2^n x - 1, or u = 2 - 2^n x if mirrored (its point u = 0 then
    at the right end of the shell), or None for an empty shell.  Both maps are
    exact in double, and a mass over J_n is 2^-n times the block's mass over
    the image, with no Jacobian compensation.  Mirrored, a partial mass is
    2^-n (P(1) - P(u)) for the block's primitive P, so it resolves small
    masses near the left end of the shell (u near 1) only to the rounding of
    the block's total mass: against 40-digit quadrature, a mirrored
    LogPowerPlain(0.4) on J_1 gives the mass of [1/2, 1/2 + 1.37 2^-21)
    1.3e-10 relative off, and of [1/2, 1/2 + 1.37 2^-31) 8.7e-8.  No family
    mirrors a block without a closed form.
    """

    # a spine fold then reads only shells n <= 900 + _SUFFIX_TAPS < _MAX_SHELL,
    # where the pieces exist
    _MAX_SPINE = 900

    def __init__(self, piece_fn, name: str = "piecewise"):
        self._piece_fn = piece_fn
        self._name = name
        self._pieces: dict[int, tuple[Density, bool] | None] = {}
        self._masses: dict[int, float] = {}

    def piece(self, n: int) -> tuple[Density, bool] | None:
        """The block on J_n and whether it is mirrored, for n >= 1; shells past
        _MAX_SHELL (left end 2^-n = 0 as a double) are empty, their mass being
        below the smallest double."""
        if not 1 <= n <= _MAX_SHELL:
            return None
        if n not in self._pieces:
            self._pieces[n] = self._piece_fn(n)
        return self._pieces[n]

    def piece_mass(self, n: int) -> float:
        if n not in self._masses:
            p = self.piece(n)
            self._masses[n] = 0.0 if p is None else float(
                np.ldexp(p[0].primitive(1.0) - p[0].primitive(0.0), -n))
        return self._masses[n]

    def _blocks(self, n):
        """(shell k, its block, mirrored, the points of n in it) for the
        nonempty shells among n."""
        for k in np.unique(n).tolist():
            if (p := self.piece(k)) is not None:
                yield k, *p, n == k

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0) & (x < 1)
        n = np.where(inside, _shell_of(np.where(inside, x, 0.5)), 0)
        out = np.where(x == 0.0, 1.0, 0.0)
        for k, g, mirrored, at in self._blocks(n):
            y = np.ldexp(x[at], k)
            # a mirrored block's u = 1 (the shell's left end) lies outside its
            # support (0, 1): take its value at the double below, its limit
            out[at] = g.value(np.minimum(2.0 - y, _BELOW_ONE) if mirrored else y - 1.0)
        return out[()]

    def _partial(self, n, t):
        out = np.zeros_like(t)
        for k, g, mirrored, at in self._blocks(n):
            y = np.ldexp(t[at], k)
            if mirrored:
                out[at] = np.ldexp(g.primitive(1.0) - g.primitive(2.0 - y), -k)
            else:
                out[at] = np.ldexp(g.primitive(y - 1.0) - g.primitive(0.0), -k)
        return out

    def _shell_avgs(self, n_lo: int, n_hi: int):
        n = np.arange(n_lo, n_hi + 1)
        return np.ldexp(np.array([self.piece_mass(k) for k in n.tolist()], dtype=_LD), n)

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


# ---------------------------------------------------------------------------
# module-level operations


def average(g: Density, q: DyadicInterval) -> float:
    return g.integrate(float(q.left), float(q.right)) * 2.0 ** q.level
