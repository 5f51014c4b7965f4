"""Joint A_p, Muckenhoupt A_p and Fujii-Wilson A_infty characteristics.

Every estimate returned here is a certified lower bound of the corresponding
supremum, nondecreasing under refinement of its truncation parameter (dyadic
depth, spine depth, scan grid/span); the truncation is recorded alongside the
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Density, dual_power
from .squarefn import level_averages

_LD = np.longdouble


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
    kind: str            # joint_ap | muckenhoupt_ap | a_infty
    scope: tuple         # ("dyadic", depth) | ("spine", n_max) | ("scan", step, span)
    p: float | None = None

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
    return CharacteristicEstimate(best, "joint_ap", ("dyadic", depth), p)


def spine_joint_ap(w: Density, sigma: Density, p: float, n_max: int) -> CharacteristicEstimate:
    """Joint A_p product restricted to the spine intervals I_k, k <= n_max."""
    vals = spine_joint_ap_values(w, sigma, p, n_max)
    return CharacteristicEstimate(float(np.max(vals)), "joint_ap", ("spine", n_max), p)


def spine_joint_ap_values(w: Density, sigma: Density, p: float, n_max: int) -> np.ndarray:
    # the averages alone overflow extended precision on deep spines; the
    # products stay bounded, so combine them in log space
    iw, _ = w.spine_averages(n_max)
    isig, _ = sigma.spine_averages(n_max)
    with np.errstate(divide="ignore"):  # underflowed averages drop out as -inf
        logs = np.log(iw) + _LD(p - 1.0) * np.log(isig)
    return np.exp(logs).astype(float)


def muckenhoupt_ap(w: Density, p: float, depth: int) -> CharacteristicEstimate:
    """[w]_{A_p} over the dyadic tree, with the closed-form dual weight."""
    est = dyadic_joint_ap(w, dual_power(w, p), p, depth)
    return CharacteristicEstimate(est.value, "muckenhoupt_ap", est.scope, p)


def dyadic_ainfty(sigma: Density, depth: int | None = None, mode: str = "full_tree",
                  n_max: int | None = None, root_max: int = 24) -> CharacteristicEstimate:
    """Fujii-Wilson characteristic sup_Q (1/sigma(Q)) int_Q M_{Q,D} sigma.

    full_tree: brute-force sweep over every dyadic root Q with level <= depth,
    propagating running maxima of within-root ancestor averages to the level-N
    leaves in one pass per level (O(depth * 2^depth) total).

    radial: roots restricted to the spine I_m; on each shell J_n the maximal
    function is bounded below by the best ancestor average among the spine
    intervals I_j (m <= j < n) and the shell itself, which is exact for
    nonincreasing shell-wise monotone densities.
    """
    if mode == "full_tree":
        if depth is None or depth > 20:
            raise ValueError("full_tree requires depth <= 20")
        return _ainfty_full_tree(sigma, depth)
    if mode == "radial":
        if n_max is None:
            raise ValueError("radial mode requires n_max (spine depth)")
        return _ainfty_radial(sigma, n_max, root_max)
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
    return CharacteristicEstimate(best, "a_infty", ("dyadic", depth))


def _ainfty_radial(sigma: Density, n_max: int, root_max: int) -> CharacteristicEstimate:
    i_avg, j_avg = sigma.spine_averages(n_max)
    best = 0.0
    for m in range(min(root_max, n_max - 2) + 1):
        # shells J_n, m < n <= n_max; spine candidates I_m..I_{n-1}
        cm = np.maximum.accumulate(i_avg[m:n_max])        # cm[t] = max I_{m..m+t}
        mvals = np.maximum(cm, j_avg[m + 1 : n_max + 1])  # aligned with n = m+1..n_max
        weights = np.exp2(_as_ld_range(m, n_max))          # 2^(m-n)
        ratio = float(np.sum(mvals * weights) / i_avg[m])
        best = _checked_max(best, ratio, f"root I_{m}, n_max {n_max}")
    return CharacteristicEstimate(best, "a_infty", ("spine", n_max))


def _as_ld_range(m: int, n_max: int):
    n = np.arange(m + 1, n_max + 1)
    return _LD(m) - np.asarray(n, dtype=_LD)


def interval_scan_joint_ap(w, sigma, p: float, span: int, grid_step: float) -> CharacteristicEstimate:
    """max of <w><sigma>^(p-1) over all grid-aligned intervals in [-span, span],
    augmented with left-anchored intervals (0, 2^-j) hitting the singular points.

    ``w`` and ``sigma`` must expose ``cumulative(xs, x0)`` (PeriodicReflect) or
    be [0,1)-supported densities scanned on [0, 1] only.
    """
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if grid_step <= 0 or 2.0 ** round(math.log2(grid_step)) != grid_step:
        raise ValueError("grid step must be a (negative) power of 2")
    xs, cw = _cumulative_on_grid(w, span, grid_step)
    _, cs = _cumulative_on_grid(sigma, span, grid_step)
    # period-2 pairs: any interval translates by an even integer to one with
    # left endpoint in the first period, with identical cumulative increments
    n_rows = int(round(2.0 / grid_step)) if hasattr(w, "cumulative") else None
    best = _pair_scan_max(xs, cw, cs, p, n_rows)
    best = max(best, _singular_pair_max(w, sigma, p, span))
    return CharacteristicEstimate(best, "joint_ap", ("scan", grid_step, span), p)


def _cumulative_on_grid(g, span: int, h: float):
    if hasattr(g, "cumulative"):
        n = int(round(2 * span / h))
        xs = -span + h * np.arange(n + 1)
        return xs, np.asarray(g.cumulative(xs, -span), dtype=float)
    n = int(round(1.0 / h))
    xs = h * np.arange(n + 1)
    return xs, np.asarray(g.primitive(xs), dtype=float)


def _pow_pm1(x: np.ndarray, p: float) -> np.ndarray:
    q = p - 1.0
    if abs(q - round(q)) < 1e-12 and 1 <= round(q) <= 4:
        out = x.copy()
        for _ in range(int(round(q)) - 1):
            out *= x
        return out
    return x ** q


def _pair_scan_max(xs, cw, cs, p: float, n_rows: int | None = None) -> float:
    """max over grid pairs of <w><sigma>^(p-1), one pass per lag so the
    (h*lag)^-p factor is a scalar applied after the per-lag maximum."""
    n = xs.size
    h = float(xs[1] - xs[0])
    rows = n - 1 if n_rows is None else min(n_rows, n - 1)
    buf = np.empty(rows)
    q = p - 1.0
    int_q = int(round(q)) if abs(q - round(q)) < 1e-12 and 1 <= round(q) <= 4 else 0
    best = 0.0
    for lag in range(1, n):
        m = min(rows, n - lag)
        dw = cw[lag : lag + m] - cw[:m]
        ds = cs[lag : lag + m] - cs[:m]
        v = buf[:m]
        if int_q:
            np.copyto(v, ds)
            for _ in range(int_q - 1):
                v *= ds
        else:
            np.power(ds, q, out=v)
        v *= dw
        top = float(v.max()) / (h * lag) ** p
        if top > best:
            best = top
    return best


def _singular_pair_max(w, sigma, p: float, span: int) -> float:
    best = 0.0
    anchors = [c for c in range(-span, span + 1) if c % 2 == 0]  # singularities sit at even integers
    for c in anchors:
        for j in range(0, 44):
            h = 2.0 ** (-j)
            for a, b in ((c, c + h), (c - h, c), (c - h, c + h)):
                if a < -span or b > span:
                    continue
                val = _avg_product(w, sigma, p, a, b)
                if val > best:
                    best = val
    return best


def _avg_product(w, sigma, p: float, a: float, b: float) -> float:
    length = b - a
    return (w.integrate(a, b) / length) * (sigma.integrate(a, b) / length) ** (p - 1.0)
