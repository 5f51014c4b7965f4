"""Parameter sweeps, exponent fitting, divergence and extension experiments.

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
from .squarefn import partial_mass_profile, spine_profile, weighted_snorm

DEFAULT_J_RANGE = range(3, 9)
# the sweep tail tolerance: at beta = 1 - 2^-8 the extended-precision spine
# caps n_max near 32/(1-beta), where the certified tail sits around 1e-4
SWEEP_TAIL_TOL = 2e-4
# the A_infty growth sweep's n_max = 16/(1-beta): the radial sum of x^-beta
# drops terms like 2^(-(1-beta) n), so its tail past n_max is about 2^-16
GROWTH_DEPTH_FACTOR = 16.0


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
class ScalingReport:
    family: str
    p: float
    params: np.ndarray  # the swept betas
    columns: dict[str, np.ndarray]
    fits: dict[str, FitResult] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class DivergenceReport:
    family: str
    p: float
    params: dict
    columns: dict[str, np.ndarray]
    fits: dict[str, FitResult] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """An example family: ``make(p, **params)`` builds it, and ``params`` maps
    each parameter to its default as a function of p (None: no default).  The
    rest say which experiments apply: a test function, a finite snorm (S(sigma f)
    in L^p(w)), a beta sweep, a table ``divergence(p, k_max, **params)``, a line
    extension from [extension_x0, 1)."""

    name: str
    make: Callable[..., FamilyInstance]
    params: dict = field(default_factory=dict)
    test_function: bool = False
    finite_snorm: bool = False
    scaling: bool = False
    divergence: Callable[..., DivergenceReport] | None = None
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
    Family("lerner", lambda p, beta: lerner_family(p, beta), {"beta": None},
           test_function=True, finite_snorm=True, scaling=True),
    Family("alternating", lambda p, beta: alternating_family(p, beta), {"beta": None},
           test_function=True, finite_snorm=True, scaling=True),
    Family("power_pair_i", lambda p, beta: power_pair(p, beta, "i"), {"beta": None},
           extension_x0=0.5),
    Family("power_pair_ii", lambda p, beta: power_pair(p, beta, "ii"), {"beta": None},
           extension_x0=0.5),
    Family("lai_treil", lambda p, r: lai_treil_family(p, r), {"r": default_r}, test_function=True,
           divergence=lambda p, k_max, r: lai_treil_divergence(p, r, k_max), extension_x0=0.5),
    Family("direct_sum", lambda p: direct_sum_family(p), test_function=True,
           divergence=lambda p, k_max: direct_sum_divergence(p, k_max), extension_x0=0.75),
    Family("constant", lambda p: FamilyInstance(
        "constant", p, {}, Constant(1.0), Constant(1.0), None, None), extension_x0=0.5),
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


def _fit_tail(xs: np.ndarray, ys: np.ndarray, skip: int = 2) -> FitResult:
    """Power-law fit excluding the first `skip` (transient) grid points;
    shrinks the exclusion on short grids so at least 3 points remain."""
    skip = max(0, min(skip, xs.size - 3))
    sl, ic, res = exponent_fit(zip(xs[skip:], ys[skip:]))
    return FitResult(sl, ic, res, (float(xs[skip]), float(xs[-1])))


def _sweep_n_max(beta: float) -> int:
    return max(int(math.ceil(32.0 / (1.0 - beta))), 256)


def scaling_experiment(family: str, p: float, betas=None) -> ScalingReport:
    """Sweep beta -> (fnorm, snorm lower bound, joint A_p, radial A_infty of
    both weights, residual ratio), with power-law fits in (1-beta)^-1."""
    make = family_entry(family, "scaling").make
    betas = default_beta_grid() if betas is None else np.sort(np.asarray(betas, dtype=float))
    if betas.size < 3:
        raise ValueError("need at least 3 grid points")
    cols = {k: np.empty(betas.size) for k in
            ("fnorm", "snorm", "ap_joint", "ainfty_w", "ainfty_sigma", "ratio")}
    for i, beta in enumerate(betas):
        inst = make(p, beta)
        nm = _sweep_n_max(beta)
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
    return ScalingReport(family, p, betas, cols, fits,
                         notes=("fit window excludes the two smallest beta values",))


def ainfty_growth_experiment(p: float, betas=None) -> ScalingReport:
    """Radial Fujii-Wilson A_infty of x^-beta (fitted growth) and of the dual
    companion x^(beta/(p-1)) (boundedness table) across the beta grid."""
    betas = default_beta_grid() if betas is None else np.sort(np.asarray(betas, dtype=float))
    if betas.size < 3:
        raise ValueError("need at least 3 grid points")
    cols = {k: np.empty(betas.size) for k in ("ainfty_w", "ainfty_sigma", "n_max")}
    for i, beta in enumerate(betas):
        nm = int(math.ceil(GROWTH_DEPTH_FACTOR / (1.0 - beta)))
        cols["n_max"][i] = nm
        cols["ainfty_w"][i] = dyadic_ainfty(Power(1.0, -beta), mode="radial", n_max=nm).value
        cols["ainfty_sigma"][i] = dyadic_ainfty(
            Power(1.0, beta / (p - 1.0)), mode="radial", n_max=nm).value
    xs = 1.0 / (1.0 - betas)
    fits = {"ainfty_w": _fit_tail(xs, cols["ainfty_w"])}
    sig = cols["ainfty_sigma"]
    return ScalingReport("power_weights", p, betas, cols, fits,
                         notes=(f"sigma A_infty spread max/min = {sig.max() / sig.min():.6f}",))


# ---------------------------------------------------------------------------
# divergence experiments


def _log_spaced_ks(k_max: int, n_pts: int = 160) -> np.ndarray:
    return np.unique(np.geomspace(1, k_max, n_pts).astype(np.int64))


def lai_treil_divergence(p: float, r: float, k_max: int) -> DivergenceReport:
    """Partial masses m_k of int_{I_k} S(sigma f)^p w against the closed-form
    lower bound C1 * C2' * (sum_{n=2}^{k+1} n^-2r)^(p/2-1)."""
    if not 1 <= k_max <= 10 ** 6:
        raise ValueError("k_max must lie in [1, 10^6]")
    inst = lai_treil_family(p, r)
    prof = spine_profile(inst.sigma_f, k_max)
    ks = _log_spaced_ks(k_max)
    mk = partial_mass_profile(prof, inst.w, p, ks)
    zsum = np.concatenate(([0.0], np.cumsum(np.arange(2, k_max + 2, dtype=float) ** (-2.0 * r))))
    c = inst.predicted["partial_mass_c1"] * inst.predicted["partial_mass_c2"]
    bound = c * zsum[ks] ** (p / 2.0 - 1.0)
    window = ks >= max(1, k_max // 100)
    if np.count_nonzero(window) >= 3:
        sl, ic, res = exponent_fit(zip(ks[window], mk[window]))
        fit = FitResult(sl, ic, res, (float(ks[window][0]), float(ks[-1])))
    else:
        fit = FitResult(math.nan, math.nan, math.nan, (math.nan, math.nan))
    with np.errstate(divide="ignore"):
        ratio = np.where(bound > 0, mk / np.where(bound > 0, bound, 1.0), np.inf)
    cols = {"k": ks.astype(float), "partial_mass": mk, "paper_bound": bound, "ratio": ratio}
    return DivergenceReport(
        "lai_treil", p, {"r": r, "k_max": k_max}, cols, {"partial_mass": fit},
        notes=(f"theoretical growth exponent (1-2r)(p/2-1) = {(1 - 2 * r) * (p / 2 - 1):.6f}",))


def _exp_series(s: float, a: np.ndarray) -> np.ndarray:
    """sum_{n>=1} n^s exp(-a n), elementwise in a > 0.

    Small a uses the Mellin expansion Gamma(s+1) a^-(s+1) + zeta(-s) + O(a);
    larger a sums directly (the term count is modest there).
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a < LN2 / 64.0
    if np.any(small):
        from scipy.special import gamma  # imported where called: scipy is most of the CLI start-up

        asm = a[small]
        corr = _zeta_minus(s) - asm * _zeta_minus(s + 1.0)
        out[small] = gamma(s + 1.0) * asm ** (-(s + 1.0)) + corr
    if np.any(~small):
        big = a[~small]
        n_terms = int(math.ceil((s * 40.0 + 60.0) / float(big.min())))
        n = np.arange(1, n_terms + 1, dtype=float)
        out[~small] = (n ** s) @ np.exp(-np.outer(n, big))
    return out


def _zeta_minus(s: float) -> float:
    """zeta(-s) for s > 0 via the functional equation."""
    from scipy.special import gamma, zeta

    z = s + 1.0
    return 2.0 * (2.0 * math.pi) ** (-z) * math.cos(math.pi * z / 2.0) \
        * gamma(z) * float(zeta(z, 1))


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


def direct_sum_divergence(p: float, k_max: int = 10 ** 4) -> DivergenceReport:
    """Convergent ||f||^p partial sums versus divergent square-norm^p partial
    sums over the first K odd blocks, with a log-growth fit for the latter."""
    if not 3 <= k_max <= 10 ** 6:
        raise ValueError("block count must lie in [3, 10^6]")
    odd = 2 * np.arange(k_max, dtype=np.int64) + 1
    fnorm_terms = odd.astype(float) ** (-p / 2.0)
    snorm_terms = direct_sum_block_snorm_p(odd, p)
    Ks = _log_spaced_ks(k_max, 120)
    fnorm_partial = np.cumsum(fnorm_terms)[Ks - 1]
    snorm_partial = np.cumsum(snorm_terms)[Ks - 1]
    # integral majorant of the dropped blocks j >= K
    tail = (2.0 * Ks.astype(float) - 1.0) ** (1.0 - p / 2.0) / (p - 2.0)
    window = Ks >= max(3, k_max // 100)
    lk = np.log(Ks[window].astype(float))
    sl, ic = np.polyfit(lk, snorm_partial[window], 1)
    pred = ic + sl * lk
    res = float(np.max(np.abs(pred - snorm_partial[window]) / snorm_partial[window]))
    fit = FitResult(float(sl), float(ic), res, (float(Ks[window][0]), float(Ks[-1])))
    cols = {"K": Ks.astype(float), "fnorm_p_partial": fnorm_partial,
            "fnorm_p_tail_bound": tail, "snorm_p_partial": snorm_partial}
    return DivergenceReport("direct_sum", p, {"k_max": k_max}, cols,
                            {"snorm_p_partial": fit},
                            notes=("snorm fit is affine in ln K, not a power law",))


def divergence_experiment(family: str, p: float, r: float | None = None,
                          k_max: int = 10 ** 4) -> DivergenceReport:
    fam = family_entry(family, "divergence")
    return fam.divergence(p, k_max, **fam.resolve(p, r=r))


# ---------------------------------------------------------------------------
# extension to the line


def extension_experiment(family: str, p: float, span: int = 4,
                         grid_step: float = 2.0 ** -12, **params) -> dict:
    """Periodize a unit-interval pair to the line and scan the joint A_p
    characteristic at spans `span` and `2 * span` (one shared pass for even
    spans, see ``interval_scans_joint_ap``)."""
    fam = family_entry(family, "extension_x0")
    inst = fam.make(p, **fam.resolve(p, **params))
    ext = extend_to_line(inst, fam.extension_x0)
    scan1, scan2 = interval_scans_joint_ap(ext.w, ext.sigma, p, (span, 2 * span), grid_step)
    unit = dyadic_joint_ap(inst.w, inst.sigma, p, depth=12)
    return {
        "family": family,
        "p": p,
        "span": span,
        "grid_step": grid_step,
        "scan_max": scan1.value,
        "scan_max_doubled": scan2.value,
        "span_doubling_ratio": scan2.value / scan1.value,
        "unit_cell_dyadic": unit.value,
    }
