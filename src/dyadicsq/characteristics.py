"""Joint A_p and Fujii-Wilson A_infty characteristics.

Every estimate returned here is a certified lower bound of the corresponding
supremum, nondecreasing under refinement of its truncation parameter (dyadic
depth, spine depth, scan grid/span); the experiments record the truncation
they ask for next to the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .density import Density
from .squarefn import FULL_TREE_MAX_DEPTH, level_averages

_LD = np.longdouble

#: Deepest spine root I_m of the radial A_infty; for power weights every
#: root's candidate is the same up to the cut at n_max.
RADIAL_ROOT_MAX = 24


class NonFiniteCandidateError(ValueError):
    """A candidate of a supremum came out NaN (an overflowed or 0/0 average)."""


def _checked_max(best: float, value: float, where: str) -> float:
    """max(best, value), except that a NaN value raises instead of being dropped."""
    if math.isnan(value):
        raise NonFiniteCandidateError(f"NaN candidate at {where}")
    return max(best, value)


@dataclass(frozen=True)
class CharacteristicEstimate:
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("characteristic estimates are nonnegative")


def dyadic_joint_ap(w: Density, sigma: Density, p: float, depth: int) -> CharacteristicEstimate:
    """max over all dyadic Q with level <= depth of <w>_Q <sigma>_Q^(p-1)."""
    if p <= 1.0:
        raise ValueError("p must be > 1")
    aw = level_averages(w, depth)
    asig = level_averages(sigma, depth)
    best = 0.0
    for lev in range(depth + 1):
        vals = aw[lev] * asig[lev] ** (p - 1.0)
        best = _checked_max(best, float(np.max(vals)), f"roots of level {lev}, depth {depth}")
    return CharacteristicEstimate(best)


def spine_joint_ap(w: Density, sigma: Density, p: float, n_max: int) -> CharacteristicEstimate:
    """Joint A_p product restricted to the spine intervals I_k, k <= n_max."""
    vals = spine_joint_ap_values(w, sigma, p, n_max)
    if (bad := np.flatnonzero(np.isnan(vals) | (vals == np.inf))).size:
        raise NonFiniteCandidateError(f"{vals[bad[0]]} candidate at spine interval I_{bad[0]}, "
                                      f"n_max {n_max}")
    return CharacteristicEstimate(float(np.max(vals)))


def spine_joint_ap_values(w: Density, sigma: Density, p: float, n_max: int) -> np.ndarray:
    """<w>_{I_k} <sigma>_{I_k}^(p-1) for k <= n_max; 0 where an average is
    zero or subnormal in extended precision, which has lost its relative
    precision (the max over the other I_k is still a lower bound)."""
    # the averages alone overflow extended precision on deep spines; the
    # products stay bounded, so combine them in log space
    iw, _ = w.spine_averages(n_max)
    isig, _ = sigma.spine_averages(n_max)
    tiny = np.finfo(_LD).tiny
    with np.errstate(divide="ignore"):
        logs = np.log(np.where(iw < tiny, 0, iw)) \
            + _LD(p - 1.0) * np.log(np.where(isig < tiny, 0, isig))
    return np.exp(logs).astype(float)


def dyadic_ainfty(sigma: Density, depth: int | None = None, mode: str = "full_tree",
                  n_max: int | None = None) -> CharacteristicEstimate:
    """Fujii-Wilson characteristic sup_Q (1/sigma(Q)) int_Q M_{Q,D} sigma.

    full_tree: brute-force sweep over every dyadic root Q with level <= depth,
    propagating running maxima of within-root ancestor averages to the level-N
    leaves in one pass per level (O(depth * 2^depth) total).

    radial: roots restricted to the spine I_m, m <= RADIAL_ROOT_MAX; on each
    shell J_n the maximal function is bounded below by the best ancestor
    average among the spine intervals I_j (m <= j < n) and the shell itself,
    which is exact for nonincreasing shell-wise monotone densities.  One
    weighted table of these shell values serves every root: built for the
    deepest root, it changes for root m only on the prefix where I_m leads,
    so building it costs O(n_max + the sum of the led prefixes), and each
    root sums its slice.
    """
    if mode == "full_tree":
        if depth is None or depth > FULL_TREE_MAX_DEPTH:
            raise ValueError(f"full_tree requires depth <= {FULL_TREE_MAX_DEPTH}")
        return _ainfty_full_tree(sigma, depth)
    if mode == "radial":
        if n_max is None:
            raise ValueError("radial mode requires n_max (spine depth)")
        return _ainfty_radial(sigma, n_max)
    raise ValueError(f"unknown mode {mode!r}")


def _ainfty_full_tree(sigma: Density, depth: int) -> CharacteristicEstimate:
    avgs = level_averages(sigma, depth)
    n_leaf = 2 ** depth
    running = np.repeat(avgs[depth], 1).astype(float)
    best = 0.0
    for lev in range(depth, -1, -1):
        anc = np.repeat(avgs[lev], n_leaf // 2 ** lev)
        running = np.maximum(running, anc) if lev < depth else anc.copy()
        # integral of the within-root maximal function for every root at lev
        sums = running.reshape(2 ** lev, n_leaf // 2 ** lev).sum(axis=1) / n_leaf
        ratios = sums / (avgs[lev] * 2.0 ** (-lev))
        best = _checked_max(best, float(np.max(ratios)), f"roots of level {lev}, depth {depth}")
    return CharacteristicEstimate(best)


def _ainfty_radial(sigma: Density, n_max: int) -> CharacteristicEstimate:
    i_avg, j_avg = sigma.spine_averages(n_max)
    top = min(RADIAL_ROOT_MAX, n_max - 2)
    if top < 0:
        return CharacteristicEstimate(0.0)
    best = 0.0
    for m, ratio in enumerate(_radial_candidates(i_avg, j_avg, n_max, top).tolist()):
        best = _checked_max(best, ratio, f"root I_{m}, n_max {n_max}")
    return CharacteristicEstimate(best)


def _radial_candidates(i_avg, j_avg, n_max: int, top: int) -> np.ndarray:
    """The radial candidate of each root I_m, m = 0..top, as doubles."""
    # table[k] = max(C_m[k], J_{k+1}) 2^-(k+1) on the shell J_{k+1}, with
    # C_m[k] = max I_{m..k} the best spine average from root m down to I_k.
    # Root m's candidate sums table[m:], the terms of the weights 2^(m-n)
    # times 2^-m (exactly, while no term is subnormal), in the same order.
    weights = np.full(n_max, _LD(0.5)).cumprod()  # 2^-(k+1), the bits of np.ldexp
    # C_top on [top, n_max), NaN sorting last; below top, I_k stands until
    # root k takes over
    deep = np.maximum.accumulate(i_avg[top:n_max])
    table = np.empty(n_max, dtype=_LD)
    np.maximum(i_avg[:top], j_avg[1 : top + 1], out=table[:top])
    np.maximum(deep, j_avg[top + 1 :], out=table[top:])
    table *= weights
    # I_m replaces C_(m+1) on [m+1, ends[m]), where C_(m+1) < I_m (nowhere, if
    # averages grow with depth; root top never leads).  C_(m+1) is
    # nondecreasing, NaN sorting last: row m of runs, the running maximum of
    # I_(m+1)..I_(top-1) and then a NaN (the column reached when none of them
    # passes I_m), then that maximum against C_top, which passes I_m where
    # C_top does once those roots stay below it
    roots = i_avg[: top + 1]
    cols = np.arange(top + 1)
    below = cols > cols[:, None]
    runs = np.maximum.accumulate(np.where(below, np.append(i_avg[:top], np.nan), -np.inf), axis=1)
    first = (below & (np.isnan(runs) | (runs >= roots[:, None]))).argmax(axis=1)
    ends = np.where(first < top, first, top + np.searchsorted(deep, roots)).tolist()
    # the largest of J_(k+1)..J_(n_max), NaN kept: where it is at most I_m,
    # I_m's led terms are I_m 2^-(k+1), the floats of max(I_m, J_(k+1)) 2^-(k+1)
    j_tail = np.maximum.accumulate(j_avg[:0:-1])[::-1]
    sums = []
    for m in range(top, -1, -1):
        if ends[m] > m + 1:
            led = slice(m + 1, ends[m])
            if j_tail[m + 1] <= i_avg[m]:
                np.multiply(weights[led], i_avg[m], out=table[led])
            else:
                np.maximum(i_avg[m], j_avg[m + 2 : ends[m] + 1], out=table[led])
                table[led] *= weights[led]
        sums.append(np.add.reduce(table[m:]))
        # a NaN entry stays NaN for every shallower root (maximum keeps it, C
        # only grows, and inf * 0 stays NaN), so root I_0 has it too; only a
        # -inf average, lifted by a shallower one, could take it out again
        if math.isnan(sums[-1]) and not (np.isneginf(i_avg).any() or np.isneginf(j_avg).any()):
            raise NonFiniteCandidateError(f"NaN candidate at root I_0, n_max {n_max}")
    return (np.ldexp(np.array(sums[::-1]), np.arange(top + 1)) / i_avg[: top + 1]).astype(float)


def interval_scans_joint_ap(w, sigma, p: float, spans, grid_step: float) -> list[CharacteristicEstimate]:
    """For each of the increasing ``spans``, the max of <w><sigma>^(p-1) over
    all grid-aligned intervals in [-span, span], augmented with the intervals
    of length 2^-j next to or centred on the singular points (the even integers).

    ``w`` and ``sigma`` are periodized densities (:class:`PeriodicReflect`).
    The grid part is the exact maximum over every grid pair, bit for bit the
    value of evaluating each pair; a certified upper bound on blocks of pairs
    (see ``_pair_scan_max``) only skips the pairs that cannot beat it.

    One cumulative pass on the largest span S serves each span s with S - s
    even: the grids -S + h i and -s + h i differ by a whole number of periods,
    so the pass's first 2s/h + 1 floats are that span's own.  Each such scan
    starts from the previous one's maximum and skips the blocks whose right
    ends all lie in the previous prefix, pairs it evaluated with the same
    arithmetic.  For odd S - s the shift is a reflection, not a period, and
    the span gets a pass of its own.  One probe set serves every span.
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if grid_step <= 0 or 2.0 ** round(math.log2(grid_step)) != grid_step:
        raise ValueError("grid step must be a (negative) power of 2")
    # period-2 pairs: any interval translates by an even integer to one with
    # left endpoint in the first period, with identical cumulative increments
    n_rows = int(round(2.0 / grid_step))
    shared, best, settled, out = _cumulative_on_grid(w, sigma, spans[-1], grid_step), 0.0, 0, []
    for span, singular in zip(spans, _singular_pair_maxima(w, sigma, p, spans)):
        if (spans[-1] - span) % 2:
            value = _pair_scan_max(*_cumulative_on_grid(w, sigma, span, grid_step), p, n_rows, singular)
        else:
            end = int(round(2 * span / grid_step)) + 1
            best = value = _pair_scan_max(*(a[:end] for a in shared), p, n_rows, max(best, singular),
                                          settled)
            settled = end - 1
        out.append(CharacteristicEstimate(value))
    return out


def _cumulative_on_grid(w, sigma, span: int, h: float):
    """The scan grid and the cumulatives of w and sigma on it."""
    xs = -span + h * np.arange(int(round(2 * span / h)) + 1)
    return xs, *(np.asarray(g.cumulative(xs, -span), dtype=float) for g in (w, sigma))


# Block sides (rows and lags) of the scan's branch-and-bound: coarse blocks
# are bounded all at once, fine blocks one coarse block at a time (which keeps
# the temporaries small).  In each column of fine blocks (one fine side of
# lags) the rows from the first to the last surviving block are evaluated
# exactly as one rectangle.
_COARSE = 512
_FINE = 32
# relative inflation of every block bound: pow (libm's for the divisor,
# numpy's for a fractional p - 1) is accurate to about an ulp, not monotone
_SLACK = 1.0 + 16.0 * np.finfo(float).eps


def _pow_q(x: np.ndarray, q: float, out: np.ndarray | None = None) -> np.ndarray:
    """x ** q elementwise; repeated multiplication for integer q in 1..4."""
    k = round(q)
    if abs(q - k) < 1e-12 and 1 <= k <= 4:
        # the products of a per-lag loop: x * x, then * x again, ...
        out = np.multiply(x, x if k > 1 else 1.0, out=out)
        for _ in range(k - 2):
            out *= x
        return out
    return np.power(x, q, out=out)


def _pair_scan_max(xs, cw, cs, p: float, n_rows: int, floor: float = 0.0,
                   settled: int = 0) -> float:
    """max(floor, max over grid pairs i < i + lag, i < n_rows, of <w><sigma>^(p-1)).

    Each pair's value is computed exactly as ``dw * ds^(p-1)`` with the lag's
    maximum divided by the float ``(h*lag)**p``, so the result is bit for bit
    the brute-force maximum.  Pairs are visited in blocks of rows [r0, r1] x
    lags [l0, l1]: every pair's increment lies between the suffix minimum of
    the cumulative at r0 and its prefix maximum at r1 + l1, so the rounded
    products of those envelope increments (floating point rounding is
    monotone, and pow gets a relative slack) bound every value in the block,
    also where the computed cumulative steps down at rounding level.  Blocks
    whose bound does not beat the best value so far are skipped, and so are
    those whose right ends are all <= ``settled``, known to be below floor.
    """
    h = float(xs[1] - xs[0])
    if not (np.isfinite(cw).all() and np.isfinite(cs).all()):
        raise NonFiniteCandidateError(
            f"non-finite cumulative on the scan grid [{xs[0]:g}, {xs[-1]:g}], "
            f"step 2^{round(math.log2(h))}")
    scan = _PairScan(cw, cs, h, p, n_rows, settled)
    n = cw.size
    # the divisor (h*lag)^p at the first lag of each block: it grows with the
    # lag up to pow's rounding, which _SLACK covers
    fine_div = np.array([(h * lag) ** p for lag in range(1, n, _FINE)])
    cr0, cr1 = _edges(0, scan.rows, _COARSE)
    cl0, cl1 = _edges(1, n, _COARSE)
    coarse = scan.bounds(cr0, cr1, cl0, cl1, fine_div[:: _COARSE // _FINE])
    best = floor
    for flat in np.argsort(coarse, axis=None)[::-1]:
        if not coarse.flat[flat] > best:
            break
        a, b = divmod(int(flat), coarse.shape[1])
        fr0, fr1 = _edges(cr0[a], cr1[a] + 1, _FINE)
        fl0, fl1 = _edges(cl0[b], cl1[b] + 1, _FINE)
        first = (cl0[b] - 1) // _FINE
        fine = scan.bounds(fr0, fr1, fl0, fl1, fine_div[first : first + fl0.size])
        for c in np.flatnonzero((fine > best).any(axis=0)):
            hit = np.flatnonzero(fine[:, c] > best)
            if hit.size:
                best = scan.exact_max((fr0[hit[0]], fr1[hit[-1]] + 1), (fl0[c], fl1[c] + 1), best)
    return best


def _edges(first: int, stop: int, side: int):
    """First and last index of the blocks of ``side`` indices from first to stop."""
    start = np.arange(first, stop, side)
    return start, np.minimum(start + side, stop) - 1


def _envelopes(c):
    """(suffix minimum, prefix maximum) of c: c itself where it never steps down."""
    if (c[1:] >= c[:-1]).all():
        return c, c
    return np.minimum.accumulate(c[::-1])[::-1], np.maximum.accumulate(c)


class _PairScan:
    """The arrays one interval scan bounds and evaluates its pairs with."""

    def __init__(self, cw, cs, h: float, p: float, n_rows: int, settled: int):
        self.cw, self.cs, self.h, self.p, self.settled = cw, cs, h, p, settled
        self.rows = min(n_rows, cw.size - 1)
        self.envelopes = _envelopes(cw), _envelopes(cs)
        # right ends past the grid are padded so that their pair values come
        # out -inf; a rectangle reaches less than _FINE + _COARSE beyond it
        pad = np.full(2 * _COARSE, np.inf)
        self.right = (sliding_window_view(np.concatenate([cw, -pad]), _COARSE),
                      sliding_window_view(np.concatenate([cs, pad]), _COARSE))
        self.div = np.zeros(cw.size)  # (h*lag)^p, filled as lags are evaluated
        self.buf = np.empty((2, _FINE * _COARSE))

    def bounds(self, r0, r1, l0, l1, div_first):
        """(rows x lags) grid of block bounds; -inf where no pair is unsettled."""
        last = self.cw.size - 1
        top = np.minimum(r1[:, None] + l1, last)
        (lo_w, hi_w), (lo_s, hi_s) = self.envelopes
        dw = hi_w[top] - lo_w[r0][:, None]
        ds = hi_s[top] - lo_s[r0][:, None]
        b = _pow_q(ds, self.p - 1.0) * dw / div_first * _SLACK
        b[np.isnan(b)] = np.inf  # 0 * inf: evaluate, and let the NaN raise
        b[(r0[:, None] + l0 > last) | (r1[:, None] + l1 <= self.settled)] = -np.inf
        return b

    def exact_max(self, row_range, lag_range, best: float) -> float:
        """max(best, every pair value with its row and lag in the given
        ranges), with the arithmetic of a per-lag brute-force pass."""
        (ra, rb), (la, lb) = row_range, lag_range
        ends, shape = slice(ra + la, ra + lb), (lb - la, rb - ra)
        ds, v = (b[: shape[0] * shape[1]].reshape(shape) for b in self.buf)  # (lag, row)
        np.subtract(self.right[1][ends, : rb - ra], self.cs[ra:rb], out=ds)
        _pow_q(ds, self.p - 1.0, out=v)
        v *= np.subtract(self.right[0][ends, : rb - ra], self.cw[ra:rb], out=ds)
        div = self.div[la:lb]
        if not div[0]:
            div[:] = [(self.h * lag) ** self.p for lag in range(la, lb)]
        top = float((v.max(axis=1) / div).max())
        return _checked_max(best, top,
                            f"rows {ra}..{rb - 1}, lags {la}..{lb - 1} of the interval scan")


def _singular_pair_maxima(w, sigma, p: float, spans) -> list[float]:
    """For each span, the max of <w><sigma>^(p-1) over the intervals of length
    2^-j, j < 44, next to or centred on an even integer of [-span, span].  The
    probes of the largest span are evaluated once (vectorized through
    ``PeriodicReflect.masses``), and each span takes those in range."""
    top = spans[-1]
    probes = [(a, b) for c in range(-top + top % 2, top + 1, 2) for h in [2.0 ** -j for j in range(44)]
              for a, b in ((c, c + h), (c - h, c), (c - h, c + h)) if -top <= a and b <= top]
    a, b = (np.array(x, dtype=float) for x in zip(*probes))
    mw, ms = (g.masses(a, b) for g in (w, sigma))
    # Python floats: numpy's power is not float.__pow__ to the last bit
    vals = [x / n * (y / n) ** (p - 1.0) for x, y, n in zip(mw.tolist(), ms.tolist(), (b - a).tolist())]
    if nan := next(((x, y) for v, (x, y) in zip(vals, probes) if math.isnan(v)), None):
        raise NonFiniteCandidateError(f"NaN candidate at singular probe [{nan[0]:g}, {nan[1]:g}), "
                                      f"span {top}")
    return [max([0.0] + [v for v, (x, y) in zip(vals, probes) if -s <= x and y <= s])
            for s in spans]
