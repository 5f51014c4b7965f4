"""Martingale differences and the dyadic square function.

The spine path (averages over I_k and the shells J_n) is the primary
computational route: every lower bound used by the constructions involves only
differences along the chain toward 0, and it scales to millions of shells.
The full-tree path exists for cross-validation at moderate depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import Density
from .dyadic import DyadicInterval, children

_LD = np.longdouble

#: Deepest full tree (square function, A_infty, CLI characteristics): each
#: full-tree oracle sweeps its 2^20 leaves in under a second.
FULL_TREE_MAX_DEPTH = 20


class TailNotCertifiedError(RuntimeError):
    """A series tail could not be bounded by a geometric majorant."""


class NonFiniteTermError(ValueError):
    """A term of the snorm series came out NaN or +inf (an overflowed average)."""


@dataclass(frozen=True)
class SpineProfile:
    """Spine data for a fixed density g = sigma*f.

    d_left[k]  = value of Delta_{I_k} g on I_{k+1}  (k = 0..n_max-1)
    left_squares[k] = sum_{j<k} d_left[j]^2  (k = 0..n_max), in extended precision

    computed on first read (``weighted_snorm`` reads s; the divergence streams
    its left squares through :func:`partial_mass_profile` and builds no profile):

    d_right[k] = value of Delta_{I_k} g on J_{k+1}
    s[n]       = square-function lower bound on the shell J_n (n = 1..n_max),
                 using the ancestors I_0..I_{n-1} only.
    """

    n_max: int
    i_avg: np.ndarray
    j_avg: np.ndarray
    d_left: np.ndarray
    left_squares: np.ndarray

    @cached_property
    def d_right(self) -> np.ndarray:
        return self.j_avg[1:] - self.i_avg[:-1]

    @cached_property
    def s(self) -> np.ndarray:
        s = np.empty(self.n_max + 1, dtype=_LD)
        s[0] = np.nan
        # on J_n the ancestors I_0..I_{n-2} act through d_left, I_{n-1} through d_right
        s[1:] = np.sqrt(self.left_squares[:-1] + self.d_right * self.d_right)
        return s


@dataclass(frozen=True)
class PiecewiseLeafFunction:
    """One value per level-N leaf of the truncated square function."""

    depth: int
    values: np.ndarray

    def __post_init__(self):
        assert self.values.size == 2 ** self.depth


def martingale_difference(g: Density, q: DyadicInterval) -> tuple[float, float]:
    """(value on left child, value on right child) of Delta_Q g."""
    left, right = children(q)
    parent = g.integrate(float(q.left), float(q.right)) * 2.0 ** q.level
    lv = g.integrate(float(left.left), float(left.right)) * 2.0 ** left.level
    rv = g.integrate(float(right.left), float(right.right)) * 2.0 ** right.level
    return lv - parent, rv - parent


def spine_profile(g: Density, n_max: int) -> SpineProfile:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    i_avg, j_avg = g.spine_averages(n_max)
    d_left = i_avg[1:] - i_avg[:-1]
    cum = np.zeros(n_max + 1, dtype=_LD)
    np.cumsum(d_left * d_left, out=cum[1:])
    return SpineProfile(n_max, i_avg, j_avg, d_left, cum)


def level_averages(g: Density, depth: int) -> list[np.ndarray]:
    """Averages of g over every dyadic interval of level 0..depth."""
    if depth > FULL_TREE_MAX_DEPTH:
        raise ValueError(f"full-tree depth capped at {FULL_TREE_MAX_DEPTH}")
    edges = np.arange(2 ** depth + 1, dtype=float) / 2 ** depth
    prim = np.asarray(g.primitive(edges), dtype=float)
    masses = np.diff(prim)
    out = []
    for lev in range(depth, -1, -1):
        out.append(masses * 2.0 ** lev)
        if lev > 0:
            masses = masses[0::2] + masses[1::2]
    out.reverse()
    return out


def full_square_function(g: Density, depth: int) -> PiecewiseLeafFunction:
    """Leaf values of (sum of squared Delta_Q over ancestors with level < depth)^(1/2)."""
    avgs = level_averages(g, depth)
    acc = np.zeros(2 ** depth)
    for lev in range(1, depth + 1):
        d = avgs[lev] - np.repeat(avgs[lev - 1], 2)
        acc += np.repeat(d * d, 2 ** (depth - lev))
    return PiecewiseLeafFunction(depth, np.sqrt(acc))


def _certify_geometric_tail(log_terms: np.ndarray, log_total: float,
                            rel_tol: float = 1e-12) -> None:
    """Require the term sequence to end in a geometric decay regime whose
    extrapolated tail is below rel_tol of the accumulated sum."""
    n = log_terms.size
    if n < 4:
        raise TailNotCertifiedError("too few terms to certify a tail")
    window = max(8, n // 8)
    diffs = np.diff(log_terms[-window:])
    rho = math.exp(float(diffs.max()))
    if not rho < 1.0:
        raise TailNotCertifiedError(f"no geometric decay at n_max (ratio {rho:.4f})")
    log_tail = float(log_terms[-1]) + math.log(rho / (1.0 - rho))
    if log_tail > math.log(rel_tol) + log_total:
        raise TailNotCertifiedError(
            f"tail bound exp({log_tail:.2f}) above {rel_tol} of the sum"
        )


def weighted_snorm(fsigma: Density, w: Density, p: float, n_max: int,
                   tail_rel_tol: float = 1e-12) -> float:
    """Lower bound for ||S(f sigma)||_{L^p(w)}: the sum of s_n^p * w(J_n) over
    the shells n <= n_max, with a certified geometric tail below tail_rel_tol
    of the sum.  A zero term (-inf in log) drops out; a NaN or +inf one raises.
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if not hasattr(w, "log_shell_masses"):
        raise ValueError(f"weighted_snorm needs the shell masses of w in closed form, "
                         f"which {type(w).__name__} does not give")
    prof = spine_profile(fsigma, n_max)
    with np.errstate(divide="ignore"):
        log_s = np.asarray(np.log(prof.s[1:]), dtype=np.float64)
    log_terms = p * log_s + w.log_shell_masses(n_max)[1:]
    if (bad := np.flatnonzero(np.isnan(log_terms) | (log_terms == np.inf))).size:
        raise NonFiniteTermError(f"non-finite snorm term {float(np.exp(log_terms[bad[0]]))} "
                                 f"at shell J_{bad[0] + 1}, n_max {n_max}")
    log_terms = log_terms[log_terms > -np.inf]
    if log_terms.size == 0:
        return 0.0
    shift = log_terms.max()
    total = float(np.sum(np.exp(log_terms - shift)))
    log_total = shift + math.log(total)
    _certify_geometric_tail(log_terms, log_total, tail_rel_tol)
    return math.exp(log_total / p)


def prefix_sums_at(term_blocks, ks, dtype) -> np.ndarray:
    """S[k] = sum_{j<k} t_j at each k of ks, for the terms t_0, t_1, .. given
    in consecutive fresh blocks, holding one block at a time.  Each block is
    summed in place by np.cumsum, the carried S at its start added to its
    first term, so every S[k] is the float that one np.cumsum over all the
    terms gives."""
    out = np.zeros(ks.size, dtype=dtype)
    lo, carry = 0, dtype(0)
    for t in term_blocks:
        if t.size:
            t[0] += carry
            np.cumsum(t, out=t)  # S[lo + 1], .., S[lo + t.size]
            at = (ks > lo) & (ks <= lo + t.size)
            out[at] = t[ks[at] - lo - 1]
            lo, carry = lo + t.size, t[-1]
    if ks.max() > lo:
        raise ValueError(f"k = {ks.max()} beyond the {lo} terms given")
    return out


def partial_mass_profile(g: Density, w: Density, p: float, ks) -> np.ndarray:
    """Certified lower bounds of int_{I_k} S(g)^p w dx for each k, g = f sigma.

    On I_k the first k spine differences are constant in magnitude, so
    (sum_{j<k} d_j^2)^(p/2) * w(I_k) is a valid lower bound; it is the
    shell-sum over J_n, n > k, of that constant against the shell masses of w.
    The sums of squares are those of ``spine_profile(g, max(ks)).left_squares``
    to the bit, reduced over ``g.spine_blocks`` as they come: a shell-wise g
    never holds more than one block of its spine.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=int))
    if ks.min() < 0:
        raise ValueError("k must be >= 0")

    def d_left_squares():
        prev = None  # the last average of the block before
        for block in g.spine_blocks(int(ks.max())):
            # the differences into one buffer, the first against prev, squared in place
            d = np.empty(block.size, dtype=_LD)
            np.subtract(block[1:], block[:-1], out=d[1:])
            if prev is None:
                d = d[1:]
            else:
                d[0] = block[0] - prev
            d *= d
            yield d
            prev = block[-1]

    left_squares = prefix_sums_at(d_left_squares(), ks, _LD)
    out = np.empty(ks.size)
    for i, k in enumerate(ks):
        out[i] = float(left_squares[i] ** (p / 2.0)) * w.spine_mass(int(k))
    return out
