"""Constructors for the example weight/test-function families.

Each constructor returns a :class:`FamilyInstance` carrying the weight pair,
the symbolically simplified products sigma*f and |f|^p*sigma of the test
function (the two densities every downstream computation integrates; f itself
is never needed), and the closed-form quantities the instance is predicted to
realize.  Stored closed forms are re-verified by integration at construction
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import (
    LN2,
    Constant,
    Density,
    LogPowerOverX,
    LogPowerPlain,
    PeriodicReflect,
    PiecewiseDyadic,
    Power,
    SignModulate,
)

_VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    p: float
    w: Density
    sigma: Density
    sigma_f: Density | None
    fnorm_p_density: Density | None
    predicted: dict = field(default_factory=dict)

    @property
    def fnorm(self) -> float:
        """||f||_{L^p(sigma)} from the verified closed form."""
        return self.predicted["fnorm_p"] ** (1.0 / self.p)


def _verify_fnorm(inst: FamilyInstance) -> None:
    got = inst.fnorm_p_density.integrate(0.0, 1.0)
    want = inst.predicted["fnorm_p"]
    if abs(got - want) > _VERIFY_TOL * abs(want):
        raise AssertionError(
            f"{inst.name}: ||f||^p integrates to {got}, closed form {want}"
        )


def _check_p_beta(p: float, beta: float) -> None:
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def lerner_family(p: float, beta: float) -> FamilyInstance:
    """sigma = x^-beta, w = x^(beta(p-1)), f = 1_[0,1)."""
    _check_p_beta(p, beta)
    inst = FamilyInstance(
        name="lerner",
        p=p,
        w=Power(1.0, beta * (p - 1.0)),
        sigma=Power(1.0, -beta),
        sigma_f=Power(1.0, -beta),
        fnorm_p_density=Power(1.0, -beta),
        predicted={"fnorm_p": 1.0 / (1.0 - beta)},
    )
    _verify_fnorm(inst)
    return inst


def alternating_family(p: float, beta: float) -> FamilyInstance:
    """f = (-1)^floor(-log2 x) x^(-beta/(p-1)), sigma = x^(beta/(p-1)), w = x^-beta.

    The sharpness claim needs p > 2; the constructor itself allows any p > 1.
    """
    _check_p_beta(p, beta)
    g = beta / (p - 1.0)
    inst = FamilyInstance(
        name="alternating",
        p=p,
        w=Power(1.0, -beta),
        sigma=Power(1.0, g),
        sigma_f=SignModulate(Constant(1.0)),
        fnorm_p_density=Power(1.0, -beta),
        predicted={"fnorm_p": 1.0 / (1.0 - beta)},
    )
    _verify_fnorm(inst)
    return inst


def power_pair(p: float, beta: float, variant: str) -> FamilyInstance:
    """The two power-weight pairs with one singularity at 0.

    variant "i":  w = x^-beta, sigma = x^(beta/(p-1)), joint A_p ~ (1-beta)^-1;
    variant "ii": sigma = x^-beta, w = x^(beta(p-1)), joint A_p ~ (1-beta)^(1-p).
    """
    _check_p_beta(p, beta)
    if variant == "i":
        w, sigma = Power(1.0, -beta), Power(1.0, beta / (p - 1.0))
        predicted = {
            "joint_ap_slope": 1.0,
            "spine_product": (1.0 / (1.0 - beta)) * (1.0 + beta / (p - 1.0)) ** (1.0 - p),
        }
    elif variant == "ii":
        w, sigma = Power(1.0, beta * (p - 1.0)), Power(1.0, -beta)
        with np.errstate(over="ignore"):  # inf past the largest double, where float ** raises
            grows = float(np.float64(1.0 - beta) ** (1.0 - p))
        predicted = {
            "joint_ap_slope": p - 1.0,
            "spine_product": (1.0 + beta * (p - 1.0)) ** -1.0 * grows,
        }
    else:
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    return FamilyInstance(
        name=f"power_pair_{variant}",
        p=p,
        w=w,
        sigma=sigma,
        sigma_f=None,
        fnorm_p_density=None,
        predicted=predicted,
    )


def lai_treil_family(p: float, r: float) -> FamilyInstance:
    """The log-power construction on [0, 1):

    f = (-1)^floor(-log2 x) x^(-1/(p-1)) (1 - log2 x)^-r,
    sigma = x^(1/(p-1)),  w = 1/(x (1 - log2 x)^(1-alpha)),  alpha = 2r - 1.
    """
    if p <= 2.0:
        raise ValueError("p must be > 2")
    if not 1.0 / p < r < 0.5:
        raise ValueError(f"r must lie in (1/p, 1/2) = ({1.0/p:.4f}, 0.5), got {r}")
    alpha = 2.0 * r - 1.0
    g = 1.0 / (p - 1.0)

    inst = FamilyInstance(
        name="lai_treil",
        p=p,
        w=LogPowerOverX(1.0, 1.0 - alpha),
        sigma=Power(1.0, g),
        sigma_f=SignModulate(LogPowerPlain(r)),
        fnorm_p_density=LogPowerOverX(1.0, p * r),
        predicted={
            "fnorm_p": LN2 / (p * r - 1.0),
            "w_spine_mass": lambda k: -LN2 / alpha * (k + 1.0) ** alpha,
            "case_a_product": lambda b: -LN2 / alpha * ((p - 1.0) / p) ** (p - 1.0)
            * (1.0 - math.log2(b)) ** alpha,
            "partial_mass_c1": 4.0 ** -p,
            "partial_mass_c2": LN2 * (2.0 ** alpha - 3.0 ** alpha) / (2.0 ** (alpha + 1.0) * alpha ** 2),
        },
    )
    _verify_fnorm(inst)
    return inst


# ---------------------------------------------------------------------------
# direct sum of singularities


def _beta_k(k: int) -> float:
    return 1.0 - 1.0 / k


def direct_sum_coefficient(k: int, p: float) -> float:
    """c_k making the block norm ||f_k||_{L^p(sigma_k)} equal k^(-1/2)."""
    return k ** (-0.5 - 1.0 / p) * 2.0 ** (k / p)


class CoefficientOverflowError(ValueError):
    """A block coefficient on a deep shell is past the largest double."""


def _fnorm_p_block(k: int, p: float) -> Power:
    """The |f|^p sigma block c_k^p u^-beta_k of the direct sum on shell J_k.

    c_k^p grows like 2^k k^(-p/2-1), so on deep shells it, or the block's
    mass c_k^p / (1 - beta_k) on (0, 1), is past the largest double (from
    J_1037 at p = 2.5), though the mass on J_k is k^(-p/2): raised here, not
    left to turn into inf.
    """
    beta = _beta_k(k)
    try:
        c_p = direct_sum_coefficient(k, p) ** p
    except OverflowError:
        c_p = math.inf
    if not math.isfinite(c_p / (1.0 - beta)):
        raise CoefficientOverflowError(
            f"direct_sum |f|^p sigma: the block mass c_{k}^p / (1 - beta_{k}) on shell "
            f"J_{k} overflows a double (p = {p})")
    return Power(c_p, -beta)


def direct_sum_family(p: float) -> FamilyInstance:
    """Glue rescaled one-singularity blocks (beta_k = 1 - 1/k) onto the shells.

    Even shells carry a mirrored copy of the previous block, so every interior
    singularity at 2^-k (k odd) is matched from both sides with the same
    exponent, which keeps the full (non-dyadic) joint A_p characteristic finite.
    """
    if p <= 2.0:
        raise ValueError("p must be > 2")

    def mirrored(block):
        """block(k) on the odd shells k, mirrored from shell k - 1 onto the even ones."""
        return lambda k: (block(k - 1), True) if k % 2 == 0 else (block(k), False)

    def odd(block):
        return lambda k: None if k % 2 == 0 else (block(k), False)

    inst = FamilyInstance(
        name="direct_sum",
        p=p,
        w=PiecewiseDyadic(mirrored(lambda k: Power(1.0 - _beta_k(k), -_beta_k(k))),
                          "direct_sum w"),
        sigma=PiecewiseDyadic(mirrored(lambda k: Power(1.0, _beta_k(k) / (p - 1.0))),
                              "direct_sum sigma"),
        sigma_f=PiecewiseDyadic(odd(lambda k: SignModulate(Constant(direct_sum_coefficient(k, p)))),
                                "direct_sum sigma*f"),
        fnorm_p_density=PiecewiseDyadic(
            odd(lambda k: _fnorm_p_block(k, p)),
            "direct_sum |f|^p sigma"),
        predicted={"block_fnorm_p": lambda k: float(k) ** (-p / 2.0)},
    )
    # closed form is per block here; verify the first blocks by integration
    for k in (1, 3, 5, 11, 25):
        got = inst.fnorm_p_density.piece_mass(k)
        want = inst.predicted["block_fnorm_p"](k)
        if abs(got - want) > _VERIFY_TOL * want:
            raise AssertionError(f"direct_sum block {k}: {got} vs {want}")
    return inst


# ---------------------------------------------------------------------------
# extension to the line

#: Spine depths k, l = 0.._K_GRID probed for hypothesis (ii), whose max ratio
#: is compared with that of the half grid.
_K_GRID = 40


class ExtensionHypothesisError(ValueError):
    """The Lemma-style extension hypotheses failed on the probed grid."""


def check_extension_hypotheses(inst: FamilyInstance, x0: float) -> dict:
    """Numerical check of the extension hypotheses for a [0,1) pair.

    (ii) w(I_k) sigma(I_l)^(p-1) bounded by a constant times (|I_k|+|I_l|)^p:
    verified as stability of the max ratio when the probed (k, l) grid doubles.
    (iii) both weights bounded on [x0, 1).
    """
    p = inst.p
    ks = np.arange(0, _K_GRID + 1)
    wm = np.array([inst.w.spine_mass(int(k)) for k in ks])
    sm = np.array([inst.sigma.spine_mass(int(k)) for k in ks])
    lens = 0.5 ** ks
    total = lens[:, None] + lens[None, :]
    # averages over the joint length, which stay in range where its p-th power
    # does not; a ratio that still overflows, or comes out 0 * inf, raises
    with np.errstate(all="ignore"):
        ratios = wm[:, None] / total * (sm[None, :] / total) ** (p - 1.0)
    if (bad := np.argwhere(~np.isfinite(ratios))).size:
        k, l = bad[0]
        raise ExtensionHypothesisError(
            f"hypothesis (ii) ratio {ratios[k, l]} at (k, l) = ({k}, {l}) is not a finite double")
    half = ratios[: _K_GRID // 2 + 1, : _K_GRID // 2 + 1]
    full_max, half_max = float(ratios.max()), float(half.max())
    if full_max > 1.05 * half_max:
        k, l = np.unravel_index(np.argmax(ratios), ratios.shape)
        raise ExtensionHypothesisError(
            f"hypothesis (ii) ratio still growing at (k, l) = ({k}, {l}): "
            f"{full_max:.4g} vs {half_max:.4g} on the half grid"
        )
    xs = np.linspace(x0, 1.0, 257, endpoint=False)
    wb = float(np.max(inst.w.value(xs)))
    sb = float(np.max(inst.sigma.value(xs)))
    if not (math.isfinite(wb) and math.isfinite(sb)):
        raise ExtensionHypothesisError("hypothesis (iii): weight unbounded on [x0, 1)")
    return {"hyp2_max_ratio": full_max, "x0": x0, "w_bound": wb, "sigma_bound": sb}


def extend_to_line(inst: FamilyInstance, x0: float = 0.5) -> FamilyInstance:
    """Reflective periodization of a [0,1) pair to R (period 2, symmetric about
    every integer), after checking the extension hypotheses with hypothesis
    (iii) on [x0, 1)."""
    if not 0.5 <= x0 < 1.0:
        raise ValueError("x0 must lie in [1/2, 1)")
    checks = check_extension_hypotheses(inst, x0)
    predicted = dict(inst.predicted)
    predicted["extension_checks"] = checks
    return FamilyInstance(
        name=f"extended({inst.name})",
        p=inst.p,
        w=PeriodicReflect(inst.w),
        sigma=PeriodicReflect(inst.sigma),
        sigma_f=inst.sigma_f,
        fnorm_p_density=inst.fnorm_p_density,
        predicted=predicted,
    )
