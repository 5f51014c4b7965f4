"""One experiment per CLI subcommand, each returning a :class:`Report`, and
the family table ``FAMILIES`` that they check their arguments against.

Every column produced here is a certified lower bound of the quantity it
estimates (norm truncations only drop nonnegative terms; characteristic
estimates only restrict the supremum).  Fits report their window and the
maximum relative residual, never a bare slope.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .characteristics import dyadic_ainfty, dyadic_joint_ap, interval_scans_joint_ap, spine_joint_ap
from .density import LN2, Constant, Power
from .families import (
    FamilyInstance,
    alternating_family,
    direct_sum_family,
    extend_to_line,
    lai_treil_family,
    lerner_family,
    power_pair,
)
from .squarefn import FULL_TREE_MAX_DEPTH, NonFiniteTermError, partial_mass_profile, weighted_snorm

DEFAULT_J_RANGE = range(3, 9)
# the sweep tail tolerance: at beta = 1 - 2^-8 the extended-precision spine
# caps n_max near 32/(1-beta), where the certified tail sits around 1e-4
SWEEP_TAIL_TOL = 2e-4
# the A_infty growth sweep's n_max = 16/(1-beta): the radial sum of x^-beta
# drops terms like 2^(-(1-beta) n), so its tail past n_max is about 2^-16
GROWTH_DEPTH_FACTOR = 16.0
# the deepest spine a command builds, the range Power.spine_averages is
# checked over; a spine is held whole, 16 bytes a shell
MAX_SPINE_DEPTH = 2 ** 22


def _spine_depth(n_max: int, what: str) -> int:
    """n_max, checked against MAX_SPINE_DEPTH before any spine is built."""
    if n_max > MAX_SPINE_DEPTH:
        raise ValueError(f"{what} needs a spine of depth {n_max}, past the cap 2^22")
    return n_max


def default_beta_grid(j_range=DEFAULT_J_RANGE) -> np.ndarray:
    return np.array([1.0 - 2.0 ** -j for j in j_range])


def default_r(p: float) -> float:
    return (1.0 / p + 0.5) / 2.0


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_residual: float
    window: tuple[float, float]


@dataclass(frozen=True)
class Report:
    """One experiment's result: the CSV metadata in the order it is written,
    the columns in header order (one value per row), and the exponent fits."""

    meta: dict
    columns: dict
    fits: dict[str, FitResult] = field(default_factory=dict)

    def rows(self):
        """The data rows, as Python numbers."""
        return zip(*(np.asarray(c).tolist() for c in self.columns.values()))


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """An example family: ``make(p, **params)`` builds it, and ``params`` maps
    each parameter to its default as a function of p (None: no default).  The
    rest say which experiments apply: a finite snorm (a test function f with
    S(sigma f) in L^p(w), which square-function bounds and scaling sweeps in
    beta), a table ``divergence(p, k_max, **params)``, a line extension from
    [extension_x0, 1)."""

    name: str
    make: Callable[..., FamilyInstance]
    params: dict = field(default_factory=dict)
    finite_snorm: bool = False
    divergence: Callable[..., Report] | None = None
    extension_x0: float | None = None

    def resolve(self, p: float, **given) -> dict:
        """The given parameters (None: not given), else the defaults; a ValueError
        for one the family does not take or a missing one without a default."""
        if extra := [k for k, v in given.items() if v is not None and k not in self.params]:
            raise ValueError(f"family {self.name} takes no --{extra[0]}")
        out = {}
        for k, default in self.params.items():
            if (v := given.get(k)) is None and default is None:
                raise ValueError(f"family {self.name} requires --{k}")
            out[k] = default(p) if v is None else v
        return out


# The entries call the constructors by their module-level names, which a
# tracer can rebind; a constructor held in a field could not be.
FAMILIES = {f.name: f for f in (
    Family("lerner", lambda p, beta: lerner_family(p, beta), {"beta": None}, finite_snorm=True),
    Family("alternating", lambda p, beta: alternating_family(p, beta), {"beta": None},
           finite_snorm=True),
    Family("power_pair_i", lambda p, beta: power_pair(p, beta, "i"), {"beta": None},
           extension_x0=0.5),
    Family("power_pair_ii", lambda p, beta: power_pair(p, beta, "ii"), {"beta": None},
           extension_x0=0.5),
    Family("lai_treil", lambda p, r: lai_treil_family(p, r), {"r": default_r},
           divergence=lambda p, k_max, r: lai_treil_divergence(p, r, k_max), extension_x0=0.5),
    Family("direct_sum", lambda p: direct_sum_family(p),
           divergence=lambda p, k_max: direct_sum_divergence(p, k_max), extension_x0=0.75),
    Family("constant", lambda p: FamilyInstance(
        "constant", p, Constant(1.0), Constant(1.0), None, None), extension_x0=0.5),
)}


def family_entry(name: str, capability: str | None = None) -> Family:
    """The table entry of ``name``, which must have ``capability`` (a field
    of :class:`Family`) if one is named; else a ValueError."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    if capability and not getattr(FAMILIES[name], capability):
        raise ValueError(f"family {name} has no {capability.replace('_', ' ')}")
    return FAMILIES[name]


def exponent_fit(points) -> tuple[float, float, float]:
    """Least-squares power-law fit: returns (slope, intercept, max relative
    residual) of ln y = slope * ln x + intercept."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    x = np.array([q[0] for q in pts], dtype=float)
    y = np.array([q[1] for q in pts], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("points must be positive")
    lx, ly = np.log(x), np.log(y)
    if np.ptp(lx) == 0 or np.unique(lx).size < 3:
        raise ValueError("degenerate x-range")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(np.exp(intercept + slope * lx) - y) / y))
    return float(slope), float(intercept), resid


def _fit_tail(xs: np.ndarray, ys: np.ndarray) -> FitResult:
    """Power-law fit excluding the first two (transient) grid points, fewer
    on short grids so that at least 3 points remain."""
    return _window_fit(xs, ys, np.arange(xs.size) >= min(2, xs.size - 3),
                       lambda x, y: exponent_fit(zip(x, y)))


def characteristics_experiment(family: str, p: float, depth: int, **given) -> Report:
    """One pair's dyadic joint A_p to ``depth``, and its spine joint A_p and
    radial A_infty of both weights to n_max = max(4 depth, 256)."""
    fam = family_entry(family)
    params = fam.resolve(p, **given)
    inst = fam.make(p, **params)
    if not 1 <= depth <= FULL_TREE_MAX_DEPTH:
        raise ValueError(f"depth must lie in [1, {FULL_TREE_MAX_DEPTH}]")
    n_max = max(4 * depth, 256)
    estimates = {"joint_ap_dyadic": dyadic_joint_ap(inst.w, inst.sigma, p, depth),
                 "joint_ap_spine": spine_joint_ap(inst.w, inst.sigma, p, n_max),
                 "ainfty_w": dyadic_ainfty(inst.w, mode="radial", n_max=n_max),
                 "ainfty_sigma": dyadic_ainfty(inst.sigma, mode="radial", n_max=n_max)}
    return Report({"family": family, "p": p, **params, "depth": depth, "n_max": n_max},
                  {k: [e.value] for k, e in estimates.items()})


def square_function_experiment(family: str, p: float, n_max: int, tail_rel_tol: float,
                               **given) -> Report:
    """Certified lower bound of ||S(sigma f)||_{L^p(w)} from the shells up to
    ``n_max``, next to ||f||_{L^p(sigma)}."""
    fam = family_entry(family, "finite_snorm")  # lai_treil, direct_sum: S(sigma f) not in L^p(w)
    params = fam.resolve(p, **given)
    inst = fam.make(p, **params)
    if n_max < 4:
        raise ValueError("n-max must be >= 4")
    _spine_depth(n_max, "n-max")
    snorm = weighted_snorm(inst.sigma_f, inst.w, p, n_max=n_max, tail_rel_tol=tail_rel_tol)
    return Report({"family": family, "p": p, **params, "n_max": n_max,
                   "tail_rel_tol": tail_rel_tol},
                  {"snorm_lower": [snorm], "fnorm": [inst.fnorm]})


def _beta_grid(betas) -> np.ndarray:
    """The sorted betas of a sweep (None: the default grid), at least 3."""
    betas = default_beta_grid() if betas is None else np.sort(np.asarray(betas, dtype=float))
    if betas.size < 3:
        raise ValueError("need at least 3 grid points")
    return betas


def _sweep_n_max(beta: float) -> int:
    return _spine_depth(max(int(math.ceil(32.0 / (1.0 - beta))), 256), f"beta {beta}")


def scaling_experiment(family: str, p: float, betas=None) -> Report:
    """Sweep beta -> (fnorm, snorm lower bound, joint A_p, radial A_infty of
    both weights, residual ratio), with power-law fits in (1-beta)^-1."""
    make = family_entry(family, "finite_snorm").make
    betas = _beta_grid(betas)
    cols = {k: np.empty(betas.size) for k in
            ("fnorm", "snorm", "ap_joint", "ainfty_w", "ainfty_sigma", "ratio")}
    for i, (beta, nm) in enumerate(zip(betas, [_sweep_n_max(b) for b in betas])):
        inst = make(p, beta)
        snorm = weighted_snorm(inst.sigma_f, inst.w, p, n_max=nm,
                               tail_rel_tol=SWEEP_TAIL_TOL)
        ap = spine_joint_ap(inst.w, inst.sigma, p, nm).value
        cols["fnorm"][i] = inst.fnorm
        cols["snorm"][i] = snorm
        cols["ap_joint"][i] = ap
        cols["ainfty_w"][i] = dyadic_ainfty(inst.w, mode="radial", n_max=nm).value
        cols["ainfty_sigma"][i] = dyadic_ainfty(inst.sigma, mode="radial", n_max=nm).value
        cols["ratio"][i] = snorm / (cols["fnorm"][i] * ap ** (1.0 / p))
    xs = 1.0 / (1.0 - betas)
    fits = {"snorm": _fit_tail(xs, cols["snorm"]), "ratio": _fit_tail(xs, cols["ratio"])}
    return Report({"command": "scaling", "family": family, "p": p,
                   "notes": "fit window excludes the two smallest beta values"},
                  {"beta": betas, **cols}, fits)


def ainfty_growth_experiment(p: float, betas=None) -> Report:
    """Radial Fujii-Wilson A_infty of x^-beta (fitted growth) and of the dual
    companion x^(beta/(p-1)) (boundedness table) across the beta grid."""
    betas = _beta_grid(betas)
    depths = [_spine_depth(math.ceil(GROWTH_DEPTH_FACTOR / (1.0 - b)), f"beta {b}") for b in betas]
    cols = {k: np.empty(betas.size) for k in ("n_max", "ainfty_w", "ainfty_sigma")}
    for i, (beta, nm) in enumerate(zip(betas, depths)):
        cols["n_max"][i] = nm
        cols["ainfty_w"][i] = dyadic_ainfty(Power(1.0, -beta), mode="radial", n_max=nm).value
        cols["ainfty_sigma"][i] = dyadic_ainfty(
            Power(1.0, beta / (p - 1.0)), mode="radial", n_max=nm).value
    xs = 1.0 / (1.0 - betas)
    sig = cols["ainfty_sigma"]
    return Report({"command": "ainfty-growth", "p": p,
                   "notes": f"sigma A_infty spread max/min = {sig.max() / sig.min():.6f}"},
                  {"beta": betas, **cols}, {"ainfty_w": _fit_tail(xs, cols["ainfty_w"])})


# ---------------------------------------------------------------------------
# divergence experiments


def _log_spaced_ks(k_max: int, n_pts: int = 160) -> np.ndarray:
    return np.unique(np.geomspace(1, k_max, n_pts).astype(np.int64))


def _window_fit(xs: np.ndarray, ys: np.ndarray, window: np.ndarray, fit) -> FitResult:
    """``fit(x, y)`` -> (slope, intercept, max relative residual) over the
    points in ``window``, a tail of the table; NaN throughout when the window
    holds fewer than 3 points, which no fit of two parameters can be judged by."""
    if np.count_nonzero(window) < 3:
        return FitResult(math.nan, math.nan, math.nan, (math.nan, math.nan))
    sl, ic, res = fit(xs[window], ys[window])
    return FitResult(sl, ic, res, (float(xs[window][0]), float(xs[-1])))


def _log_affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares y = slope * ln x + intercept, with the max relative residual."""
    lx = np.log(x.astype(float))
    sl, ic = np.polyfit(lx, y, 1)
    res = float(np.max(np.abs(ic + sl * lx - y) / y))
    return float(sl), float(ic), res


def lai_treil_divergence(p: float, r: float, k_max: int) -> Report:
    """Partial masses m_k of int_{I_k} S(sigma f)^p w against the closed-form
    lower bound C1 * C2' * (sum_{n=2}^{k+1} n^-2r)^(p/2-1)."""
    if not 1 <= k_max <= 10 ** 6:
        raise ValueError("k_max must lie in [1, 10^6]")
    inst = lai_treil_family(p, r)
    ks = _log_spaced_ks(k_max)
    mk = partial_mass_profile(inst.sigma_f, inst.w, p, ks)
    c = inst.predicted["partial_mass_c1"] * inst.predicted["partial_mass_c2"]
    bound = c * _power_sum(2.0 * r, ks + 1) ** (p / 2.0 - 1.0)
    fit = _window_fit(ks, mk, ks >= max(1, k_max // 100), lambda x, y: exponent_fit(zip(x, y)))
    with np.errstate(divide="ignore"):
        ratio = np.where(bound > 0, mk / np.where(bound > 0, bound, 1.0), np.inf)
    cols = {"k": ks.astype(float), "partial_mass": mk, "paper_bound": bound, "ratio": ratio}
    return Report({"command": "divergence", "family": "lai_treil", "p": p, "r": r, "k_max": k_max,
                   "notes": f"theoretical growth exponent (1-2r)(p/2-1) = "
                            f"{(1 - 2 * r) * (p / 2 - 1):.6f}"},
                  cols, {"partial_mass": fit})


def _exp_series(s: float, a: np.ndarray) -> np.ndarray:
    """sum_{n>=1} n^s exp(-a n), elementwise in a > 0.

    Small a uses the Mellin expansion Gamma(s+1) a^-(s+1) + zeta(-s) + O(a);
    larger a sums directly (the term count is modest there).
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a < LN2 / 64.0
    if np.any(small):
        asm = a[small]
        corr = _zeta_minus(s) - asm * _zeta_minus(s + 1.0)
        out[small] = math.gamma(s + 1.0) * asm ** (-(s + 1.0)) + corr
    if np.any(~small):
        big = a[~small]
        n_terms = int(math.ceil((s * 40.0 + 60.0) / float(big.min())))
        n = np.arange(1, n_terms + 1, dtype=float)
        out[~small] = (n ** s) @ np.exp(-np.outer(n, big))
    return out


def _zeta_minus(s: float) -> float:
    """zeta(-s) for s >= 1 via the functional equation."""
    z = s + 1.0
    return 2.0 * (2.0 * math.pi) ** (-z) * math.cos(math.pi * z / 2.0) * math.gamma(z) * _zeta(z)


#: Euler-Maclaurin sums of n^-a switch from terms to the formula at n = 20.
_EM_FROM = 20


def _em_corrections(a: float, x):
    """[x^-a / 2, then B_2k/(2k)! a(a+1)..(a+2k-2) x^(-a-2k+1), k = 1..5]: the
    Euler-Maclaurin corrections of sum_{n>=x} n^-a at its lower end x, to be
    added there (at an upper end, the first added and the rest subtracted).
    From x = 20 the first one dropped is below 5.2e-18 for 0 < a <= 2 and
    falls with a beyond: below 2e-18 of zeta(2), and with one at each end,
    below 4e-18 of a power sum to m >= 20."""
    out = [0.5 * x ** -a]
    rise = a  # a (a+1) .. (a+2k-2)
    for k, c in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)):  # B_2k/(2k)!
        out.append(c * rise * x ** (-a - 2 * k - 1))
        rise *= (a + 2 * k + 1) * (a + 2 * k + 2)
    return out


def _zeta(z: float) -> float:
    """Riemann zeta(z) for real z >= 2: the terms n < 20, then the Euler-Maclaurin
    tail from N = 20, summed with fsum."""
    return math.fsum([n ** -z for n in range(1, _EM_FROM)]
                     + [_EM_FROM ** (1.0 - z) / (z - 1.0), *_em_corrections(z, float(_EM_FROM))])


def _power_sum(a: float, m) -> np.ndarray:
    """sum_{n=2}^{m} n^-a for 0 < a < 1, elementwise in the integers m >= 1:
    the running sum of the terms below 20, and from m = 20 on the
    Euler-Maclaurin formula from N = 20, whose integral
    (m^(1-a) - 20^(1-a)) / (1-a) is taken as
    20^(1-a) expm1((1-a) log1p((m-20)/20)) / (1-a), which keeps its digits as
    a nears 1 and m nears 20.  On a grid of a in [0.5, 1 - 1e-6] and m from 2
    to 10^6 + 1, within 8.3e-16 relative of multiprecision Hurwitz zeta."""
    m = np.asarray(m)
    head = np.concatenate(([0.0], np.cumsum(np.arange(2.0, _EM_FROM) ** -a)))
    out = head[np.minimum(m, _EM_FROM - 1) - 1]
    far = m >= _EM_FROM
    x = m[far].astype(float)
    lower, upper = _em_corrections(a, float(_EM_FROM)), _em_corrections(a, x)
    integral = (_EM_FROM ** (1.0 - a)
                * np.expm1((1.0 - a) * np.log1p((x - _EM_FROM) / _EM_FROM)) / (1.0 - a))
    out[far] += (math.fsum(lower) + integral) + (upper[0] - sum(upper[1:]))
    return out


def direct_sum_block_snorm_p(k, p: float) -> np.ndarray:
    """Within-block contribution of odd block k to int S(sigma f)^p w dx.

    The block on J_k is an affine copy of the alternating family at
    beta = 1 - 1/k with weight (1-beta) x^-beta, scaled by c_k; pulling the
    shell series back gives
    k^(-p/2-1) (2/3)^p (2^(1/k) - 1) sum_{n>=1} n^(p/2) 2^(-n/k).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    series = _exp_series(p / 2.0, LN2 / k)
    return k ** (-p / 2.0 - 1.0) * (2.0 / 3.0) ** p * (np.exp2(1.0 / k) - 1.0) * series


def direct_sum_divergence(p: float, k_max: int) -> Report:
    """Convergent ||f||^p partial sums versus divergent square-norm^p partial
    sums over the first K odd blocks, with a log-growth fit for the latter."""
    if not 3 <= k_max <= 10 ** 6:
        raise ValueError("block count must lie in [3, 10^6]")
    if p <= 2.0:  # as direct_sum_family: the fnorm series diverges, and zeta needs z >= 2
        raise ValueError("p must be > 2")
    odd = 2 * np.arange(k_max, dtype=np.int64) + 1
    fnorm_terms = odd.astype(float) ** (-p / 2.0)
    # past p = 100 the series overflows where its factors underflow: a
    # non-finite term raises, as in weighted_snorm
    with np.errstate(over="ignore", invalid="ignore"):
        snorm_terms = direct_sum_block_snorm_p(odd, p)
    if (bad := np.flatnonzero(~np.isfinite(snorm_terms))).size:
        raise NonFiniteTermError(f"non-finite snorm term {snorm_terms[bad[0]]} of block "
                                 f"{odd[bad[0]]}, p {p}")
    Ks = _log_spaced_ks(k_max, 120)
    fnorm_partial = np.cumsum(fnorm_terms)[Ks - 1]
    snorm_partial = np.cumsum(snorm_terms)[Ks - 1]
    # integral majorant of the dropped blocks j >= K
    tail = (2.0 * Ks.astype(float) - 1.0) ** (1.0 - p / 2.0) / (p - 2.0)
    fit = _window_fit(Ks, snorm_partial, Ks >= max(3, k_max // 100), _log_affine_fit)
    cols = {"K": Ks.astype(float), "fnorm_p_partial": fnorm_partial,
            "fnorm_p_tail_bound": tail, "snorm_p_partial": snorm_partial}
    return Report({"command": "divergence", "family": "direct_sum", "p": p, "k_max": k_max,
                   "notes": "snorm fit is affine in ln K, not a power law"},
                  cols, {"snorm_p_partial": fit})


def divergence_experiment(family: str, p: float, r: float | None = None, *,
                          k_max: int) -> Report:
    fam = family_entry(family, "divergence")
    return fam.divergence(p, k_max, **fam.resolve(p, r=r))


# ---------------------------------------------------------------------------
# extension to the line


def extension_experiment(family: str, p: float, span: int, grid_step: float, **given) -> dict:
    """Periodize a unit-interval pair to the line and scan the joint A_p
    characteristic at spans `span` and `2 * span` (one shared pass for even
    spans, see ``interval_scans_joint_ap``); "params" holds the family's
    parameters, the given ones or their defaults."""
    fam = family_entry(family, "extension_x0")
    params = fam.resolve(p, **given)
    if span < 1:
        raise ValueError("span must be >= 1")
    inst = fam.make(p, **params)
    ext = extend_to_line(inst, fam.extension_x0)
    scan1, scan2 = interval_scans_joint_ap(ext.w, ext.sigma, p, (span, 2 * span), grid_step)
    unit = dyadic_joint_ap(inst.w, inst.sigma, p, depth=12)
    return {
        "family": family,
        "p": p,
        "params": params,
        "span": span,
        "grid_step": grid_step,
        "scan_max": scan1.value,
        "scan_max_doubled": scan2.value,
        "span_doubling_ratio": scan2.value / scan1.value,
        "unit_cell_dyadic": unit.value,
    }


def extension_check_experiment(family: str, p: float, span: int, grid_step: float,
                               **given) -> Report:
    """:func:`extension_experiment` as a one-row Report."""
    res = extension_experiment(family, p, span, grid_step, **given)
    return Report({"command": "extension-check", "family": family, "p": p, **res["params"],
                   "grid_step": grid_step},
                  {k: [res[k]] for k in ("span", "scan_max", "scan_max_doubled",
                                         "span_doubling_ratio", "unit_cell_dyadic")})
