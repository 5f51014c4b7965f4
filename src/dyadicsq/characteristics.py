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

#: Deepest spine root I_m of the radial A_infty; for power weights every
#: root's candidate is the same up to the cut at n_max.
RADIAL_ROOT_MAX = 24


class NonFiniteCandidateError(ValueError):
    """A candidate of a supremum came out NaN or +inf (an overflowed or 0/0 average)."""


def _checked_max(best: float, value: float, where: str) -> float:
    """max(best, value), except that a NaN or +inf value raises instead of
    being dropped or reported as the supremum."""
    if math.isnan(value) or value == math.inf:
        raise NonFiniteCandidateError(f"{'NaN' if math.isnan(value) else 'inf'} candidate at {where}")
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
        with np.errstate(all="ignore"):  # an overflowed or 0/0 product raises below
            vals = aw[lev] * asig[lev] ** (p - 1.0)
        best = _checked_max(best, float(np.max(vals)), f"roots of level {lev}, depth {depth}")
    return CharacteristicEstimate(best)


def spine_joint_ap(w: Density, sigma: Density, p: float, n_max: int) -> CharacteristicEstimate:
    """Joint A_p product restricted to the spine intervals I_k, k <= n_max."""
    vals = spine_joint_ap_values(w, sigma, p, n_max)
    if (bad := np.flatnonzero(np.isnan(vals) | (vals == np.inf))).size:
        _checked_max(0.0, float(vals[bad[0]]), f"spine interval I_{bad[0]}, n_max {n_max}")
    return CharacteristicEstimate(float(np.max(vals)))


def spine_joint_ap_values(w: Density, sigma: Density, p: float, n_max: int) -> np.ndarray:
    """<w>_{I_k} <sigma>_{I_k}^(p-1) for k <= n_max; 0 where an average is
    zero or subnormal in its spine's number format, which has lost its
    relative precision (the max over the other I_k is still a lower bound)."""
    # the averages alone overflow extended precision on deep spines; the
    # products stay bounded, so combine them in log space
    iw = w.spine_averages(n_max)
    isig = sigma.spine_averages(n_max)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf - inf: spine_joint_ap raises
        logw, logsig = (np.log(np.where(a < np.finfo(a.dtype).tiny, 0, a)) for a in (iw, isig))
        logs = logw + (p - 1.0) * logsig
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
    which is exact for nonincreasing shell-wise monotone densities.  Only
    the deepest root's weighted shell values are tabled, with their suffix
    sums from one reversed cumsum.  A shallower root I_m differs from the
    root below it only on the prefix where I_m leads, and past that prefix
    it adds what a deeper root adds from there on, a sum already taken; on
    the prefix its terms are I_m 2^-(k+1) wherever no later shell average
    tops I_m, which sum in closed form to I_m (2^-a - 2^-b) over [a, b), and
    only the terms before that are summed one by one.  So one call does
    O(n_max + RADIAL_ROOT_MAX) extended-precision work on the monotone
    spines, plus the length of those explicit stretches on others.  The
    table stops at the first weight 2^-(k+1) that is 0 in extended
    precision: past it the term of a finite shell value is exactly 0 and of
    any other NaN, so one finiteness check stands for those shells.

    The shell averages come from the spine: <sigma>_{I_k} is the mean of
    <sigma>_{I_(k+1)} and <sigma>_{J_(k+1)}, so J_(k+1) = 2 I_k - I_(k+1),
    exact before rounding within a fold block (both sum to its last shell)
    and off by about 2^-127 of I_(b+127) at a seam b; a non-finite I_(k+1)
    is copied, not computed on (x87 arithmetic on inf is slow).  On a
    growing x^-beta the difference loses about j bits at beta = 1 - 2^-j,
    but there J_(k+1) = (2 - 2^beta) I_k < I_k <= C_m[k] is never taken.
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
    running, best = avgs[depth], 0.0
    for lev in range(depth, -1, -1):
        running = np.maximum(running, np.repeat(avgs[lev], n_leaf // 2 ** lev))
        # integral of the within-root maximal function for every root at lev
        sums = running.reshape(2 ** lev, n_leaf // 2 ** lev).sum(axis=1) / n_leaf
        with np.errstate(all="ignore"):  # an overflowed or 0/0 ratio raises below
            ratios = sums / (avgs[lev] * 2.0 ** (-lev))
        best = _checked_max(best, float(np.max(ratios)), f"roots of level {lev}, depth {depth}")
    return CharacteristicEstimate(best)


def _ainfty_radial(sigma: Density, n_max: int) -> CharacteristicEstimate:
    i_avg = sigma.spine_averages(n_max)
    top = min(RADIAL_ROOT_MAX, n_max - 2)
    if top < 0:
        return CharacteristicEstimate(0.0)
    best = 0.0
    candidates = _radial_candidates(i_avg, _shell_averages(i_avg), n_max, top)
    for m, ratio in enumerate(candidates.tolist()):
        best = _checked_max(best, ratio, f"root I_{m}, n_max {n_max}")
    return CharacteristicEstimate(best)


def _shell_averages(i_avg):
    """J_(k+1) = 2 I_k - I_(k+1) at k + 1, I_(k+1) if that is not finite; NaN at 0."""
    j_avg, finite = np.concatenate(([np.nan], i_avg[1:])), np.isfinite(i_avg[1:])
    with np.errstate(over="ignore"):  # an inf 2 I_k raises as an inf candidate
        np.multiply(i_avg[:-1], 2, out=j_avg[1:], where=finite)
    np.subtract(j_avg[1:], i_avg[1:], out=j_avg[1:], where=finite)
    return j_avg


def _radial_candidates(i_avg, j_avg, n_max: int, top: int) -> np.ndarray:
    """The radial candidate of each root I_m, m = 0..top, as doubles."""
    # Root m sums t_m[k] = max(C_m[k], J_(k+1)) 2^-(k+1) over k in [m, n_max)
    # and scales the sum by 2^m, with C_m[k] = max I_(m..k) the best spine
    # average from root m down to I_k.  C_m = max(I_m, C_(m+1)) is I_m on the
    # prefix [m+1, ends[m]) that I_m leads, where C_(m+1) < I_m, and C_(m+1)
    # from ends[m] on.  The led prefixes nest, so from e = ends[m] on root m
    # has the terms of root e, or of root top if e > top: its sum is t_m[m],
    # its led terms and the sum of that root from e on.  Only root top's
    # terms are tabled, and summed once: O(n_max + top) extended-precision
    # work, plus the led terms that are summed one by one (below).
    #
    # The cut is the number of weights 2^-(k+1) that are not 0 in the
    # spine's number format: halving stays exact down to its least positive
    # value, a subnormal (2^-16445 with x87 extended precision, 2^-1074 in
    # double), and half of that rounds to 0.  It is found per call, in
    # microseconds: any extended-precision work at import raised the peak
    # RSS of workloads that never reach here by half a megabyte
    real = i_avg.dtype.type
    cut = min(n_max, -int(np.log2(np.nextafter(real(0), real(1)))))
    weights = np.cumprod(np.broadcast_to(real(0.5), cut))  # 2^-(k+1), the bits of np.ldexp
    # C_top on [top, n_max), NaN sorting last
    deep = np.maximum.accumulate(i_avg[top:n_max])
    # past the cut the weights are 0: a finite term is exactly 0 and any
    # other NaN, so root top's sum from e on is NaN while e <= the last
    # shell whose term is not finite
    bad = np.flatnonzero(~np.isfinite(np.maximum(deep[cut - top :], j_avg[cut + 1 : n_max + 1])))
    last_bad = cut + int(bad[-1]) if bad.size else -1
    # suffix[k - start]: root top's sum over [k, cut), deepest term first,
    # for the k no such NaN reaches (none, if there is one: on the
    # overflowed j = 11 spine of ainfty-growth, adding up its inf terms
    # before the cut took four times as long as the rest of the call)
    start = min(max(top, last_bad + 1), cut)
    suffix = np.maximum(deep[start - top : cut - top], j_avg[start + 1 : cut + 1])
    suffix *= weights[start:]
    np.cumsum(suffix[::-1], out=suffix[::-1])

    def from_deep(e):
        """Root top's sum over [e, n_max), e >= top."""
        if e <= last_bad:
            return real(np.nan)
        return suffix[e - start] if e < cut else real(0)

    # C_(m+1) is nondecreasing, NaN sorting last: row m of runs, the running
    # maximum of I_(m+1)..I_(top-1) and then a NaN (the column reached when
    # none of them passes I_m), then that maximum against C_top, which passes
    # I_m where C_top does once those roots stay below it.  Root top leads
    # nowhere, nor does any root if averages grow with depth
    roots = i_avg[: top + 1]
    cols = np.arange(top + 1)
    below = cols > cols[:, None]
    runs = np.maximum.accumulate(np.where(below, np.append(i_avg[:top], np.nan), -np.inf), axis=1)
    first = (below & (np.isnan(runs) | (runs >= roots[:, None]))).argmax(axis=1)
    ends = np.where(first < top, first, top + np.searchsorted(deep, roots))[:top]
    # t_m[m] plus root m's led terms
    own = np.maximum(roots[:top], j_avg[1 : top + 1]) * weights[:top]
    if (leads := ends > cols[:top] + 1).any():
        # J_(k+1)..J_(n_max) are at most a finite I_m from k = split[m] on,
        # where root m's led terms are I_m 2^-(k+1): their sum up to end, the
        # weights past the cut being 0, is I_m (2^-split - 2^-end).  Before
        # split they are summed one by one
        acc = np.maximum.accumulate(j_avg[:0:-1])  # max J_(n_max-t)..J_(n_max), NaN kept
        after = np.maximum(n_max - np.searchsorted(acc, roots[:top], side="right"), cols[:top] + 1)
        split = np.minimum(np.where(np.isfinite(roots[:top]), after, ends), ends)
        end = np.minimum(ends, cut)
        closed = leads & (split < end)
        own[closed] += roots[:top][closed] * (weights[split[closed] - 1] - weights[end[closed] - 1])
        for m in np.flatnonzero(leads & (split > cols[:top] + 1)).tolist():
            x = int(split[m])
            stop = min(x, cut)
            terms = np.maximum(i_avg[m], j_avg[m + 2 : stop + 1])
            own[m] += np.add.reduce(terms * weights[m + 1 : stop])
            if x > cut and not np.isfinite(np.maximum(i_avg[m], j_avg[cut + 1 : x + 1])).all():
                own[m] = np.nan
    sums = [from_deep(top)]  # root top - i at i
    for m, e in zip(range(top - 1, -1, -1), ends[::-1].tolist()):
        sums.append(own[m] + (sums[top - e] if e <= top else from_deep(e)))
    return (np.ldexp(np.array(sums[::-1]), cols) / roots).astype(float)


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
    vals = [_probe_value(x, y, n, p) for x, y, n in zip(mw.tolist(), ms.tolist(), (b - a).tolist())]
    if bad := next(((v, ab) for v, ab in zip(vals, probes) if not v < math.inf), None):
        _checked_max(0.0, bad[0], f"singular probe [{bad[1][0]!r}, {bad[1][1]!r}), span {top}")
    return [max([0.0] + [v for v, (x, y) in zip(vals, probes) if -s <= x and y <= s])
            for s in spans]


def _probe_value(mw: float, ms: float, n: float, p: float) -> float:
    """<w><sigma>^(p-1) over a probe of length n; +inf where the power overflows."""
    try:
        return mw / n * (ms / n) ** (p - 1.0)
    except OverflowError:
        return math.inf
