"""Martingale differences and the dyadic square function.

The spine path is the primary computational route: every lower bound used by
the constructions involves only differences along the chain I_0, I_1, ..
toward 0, so the square function reads the I_k averages alone (the shell
averages over J_n serve the A_infty), and it scales to millions of shells.
The full-tree path exists for cross-validation at moderate depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import Density
from .dyadic import DyadicInterval, children

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

    left_squares[n] = sum_{j<n} d_j^2  (n = 0..n_max), in the spine's dtype,
                      d_j = <g>_{I_(j+1)} - <g>_{I_j}
    s[n]            = sqrt(left_squares[n]), computed on first read: for
                      n >= 1 the square-function lower bound on the shell J_n,
                      from the ancestors I_0..I_(n-1) only.

    <g>_{I_j} is the mean of its children's averages, so Delta_{I_j} g is d_j
    on I_(j+1) and -d_j on J_(j+1): s_n^2 = left_squares[n-1] + d_(n-1)^2 is
    the two-sided form left_squares[n-1] + (<g>_{J_n} - <g>_{I_(n-1)})^2,
    which needs the J averages too; in floats the two differ by rounding and
    by how far the computed J_n and I averages are from that mean.
    """

    n_max: int
    left_squares: np.ndarray

    @cached_property
    def s(self) -> np.ndarray:
        return np.sqrt(self.left_squares)


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


def _left_squares(g: Density, n_max: int):
    """left_squares of :class:`SpineProfile` in the blocks of
    ``g.spine_blocks(n_max)``, holding one at a time.  Each block's differences
    (the first against the last average of the block before, or 0 for
    left_squares[0]) are squared and summed in place by np.cumsum, the carried
    sum added to the first, so every entry is the float that one np.cumsum over
    all the squares gives."""
    prev, carry = None, 0
    for block in g.spine_blocks(n_max):
        d = np.empty_like(block)
        with np.errstate(over="ignore", invalid="ignore"):  # weighted_snorm raises on them
            np.subtract(block[1:], block[:-1], out=d[1:])
            d[0] = 0 if prev is None else block[0] - prev
            d *= d
            d[0] += carry
            np.cumsum(d, out=d)
        carry, prev = d[-1], block[-1]
        yield d


def spine_profile(g: Density, n_max: int) -> SpineProfile:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return SpineProfile(n_max, np.concatenate(list(_left_squares(g, n_max))))


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


def partial_mass_profile(g: Density, w: Density, p: float, ks) -> np.ndarray:
    """Certified lower bounds of int_{I_k} S(g)^p w dx for each k, g = f sigma.

    On I_k the first k spine differences are constant in magnitude, so
    (sum_{j<k} d_j^2)^(p/2) * w(I_k) is a valid lower bound; it is the
    shell-sum over J_n, n > k, of that constant against the shell masses of w.
    The sums of squares are ``spine_profile(g, max(ks)).left_squares``, taken
    from its blocks as they come: a shell-wise g never holds more than one
    block of its spine.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=int))
    if ks.min() < 0:
        raise ValueError("k must be >= 0")
    lo = 0  # the entries below lo are gathered
    for block in _left_squares(g, int(ks.max())):
        if lo == 0:
            left_squares = np.empty(ks.size, dtype=block.dtype)
        at = (ks >= lo) & (ks < lo + block.size)
        left_squares[at] = block[ks[at] - lo]
        lo += block.size
    if ks.max() >= lo:
        raise ValueError(f"k = {ks.max()} beyond the {lo - 1} terms given")
    out = np.empty(ks.size)
    for i, k in enumerate(ks):
        out[i] = float(left_squares[i] ** (p / 2.0)) * w.spine_mass(int(k))
    return out
