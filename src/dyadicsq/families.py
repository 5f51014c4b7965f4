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
    AffinePullback,
    Constant,
    Density,
    LogPowerOverX,
    LogPowerPlain,
    PeriodicReflect,
    PiecewiseDyadic,
    Power,
    Scale,
    SignModulate,
)

_VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    p: float
    params: dict
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
        params={"beta": beta},
        w=Power(1.0, beta * (p - 1.0)),
        sigma=Power(1.0, -beta),
        sigma_f=Power(1.0, -beta),
        fnorm_p_density=Power(1.0, -beta),
        predicted={
            "fnorm_p": 1.0 / (1.0 - beta),
            "snorm_slope": 1.0 + 1.0 / p,
            "ratio_slope": 1.0 / p,          # the psi exponent
            "joint_ap_slope": p - 1.0,
            "ainfty_singular_weight": "sigma",
        },
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
        params={"beta": beta},
        w=Power(1.0, -beta),
        sigma=Power(1.0, g),
        sigma_f=SignModulate(Constant(1.0)),
        fnorm_p_density=Power(1.0, -beta),
        predicted={
            "fnorm_p": 1.0 / (1.0 - beta),
            "snorm_slope": 0.5 + 1.0 / p,
            "ratio_slope": 0.5 - 1.0 / p,    # the phi exponent
            "operator_ratio_slope": 0.5,
            "joint_ap_slope": 1.0,
            "ainfty_singular_weight": "w",
        },
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
        predicted = {
            "joint_ap_slope": p - 1.0,
            "spine_product": (1.0 + beta * (p - 1.0)) ** -1.0 * (1.0 - beta) ** (1.0 - p),
        }
    else:
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    return FamilyInstance(
        name=f"power_pair_{variant}",
        p=p,
        params={"beta": beta},
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
        params={"r": r, "alpha": alpha},
        w=LogPowerOverX(1.0, 1.0 - alpha),
        sigma=Power(1.0, g),
        sigma_f=SignModulate(LogPowerPlain(r)),
        fnorm_p_density=LogPowerOverX(1.0, p * r),
        predicted={
            "fnorm_p": LN2 / (p * r - 1.0),
            "spine_diff_lower": lambda k: 1.0 / (4.0 * (k + 2.0) ** r),
            "w_spine_mass": lambda k: -LN2 / alpha * (k + 1.0) ** alpha,
            "case_a_product": lambda b: -LN2 / alpha * ((p - 1.0) / p) ** (p - 1.0)
            * (1.0 - math.log2(b)) ** alpha,
            "partial_mass_c1": 4.0 ** -p,
            "partial_mass_c2": LN2 * (2.0 ** alpha - 3.0 ** alpha) / (2.0 ** (alpha + 1.0) * alpha ** 2),
            "growth_slope": (1.0 - 2.0 * r) * (p / 2.0 - 1.0),
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


def _pullback_onto_shell(inner: Density, k: int, reflect: bool) -> Density:
    """Map a [0,1)-density onto J_k; reflected pieces anchor at the right end."""
    if reflect:
        return AffinePullback(inner, offset=2.0 ** (1 - k), scale=2.0 ** -k, reflected=True)
    return AffinePullback(inner, offset=2.0 ** -k, scale=2.0 ** -k, reflected=False)


def direct_sum_family(p: float) -> FamilyInstance:
    """Glue rescaled one-singularity blocks (beta_k = 1 - 1/k) onto the shells.

    Even shells carry a mirrored copy of the previous block, so every interior
    singularity at 2^-k (k odd) is matched from both sides with the same
    exponent, which keeps the full (non-dyadic) joint A_p characteristic finite.
    """
    if p <= 2.0:
        raise ValueError("p must be > 2")

    def w_piece(k: int) -> Density:
        if k % 2 == 0:
            kk = k - 1
            return _pullback_onto_shell(Power(1.0 - _beta_k(kk), -_beta_k(kk)), k, True)
        return _pullback_onto_shell(Power(1.0 - _beta_k(k), -_beta_k(k)), k, False)

    def sigma_piece(k: int) -> Density:
        if k % 2 == 0:
            kk = k - 1
            return _pullback_onto_shell(Power(1.0, _beta_k(kk) / (p - 1.0)), k, True)
        return _pullback_onto_shell(Power(1.0, _beta_k(k) / (p - 1.0)), k, False)

    def sigma_f_piece(k: int) -> Density | None:
        if k % 2 == 0:
            return None
        return _pullback_onto_shell(Scale(direct_sum_coefficient(k, p), SignModulate(Constant(1.0))), k, False)

    def fnorm_piece(k: int) -> Density | None:
        if k % 2 == 0:
            return None
        c = direct_sum_coefficient(k, p)
        return _pullback_onto_shell(Scale(c ** p, Power(1.0, -_beta_k(k))), k, False)

    inst = FamilyInstance(
        name="direct_sum",
        p=p,
        params={},
        w=PiecewiseDyadic(w_piece, "direct_sum w"),
        sigma=PiecewiseDyadic(sigma_piece, "direct_sum sigma"),
        sigma_f=PiecewiseDyadic(sigma_f_piece, "direct_sum sigma*f"),
        fnorm_p_density=PiecewiseDyadic(fnorm_piece, "direct_sum |f|^p sigma"),
        predicted={
            "block_fnorm_p": lambda k: float(k) ** (-p / 2.0),
            "fnorm_p_partial": lambda n_blocks: sum(
                (2 * j + 1) ** (-p / 2.0) for j in range(n_blocks)
            ),
        },
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
    ratios = wm[:, None] * sm[None, :] ** (p - 1.0) / (lens[:, None] + lens[None, :]) ** p
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
        params=dict(inst.params),
        w=PeriodicReflect(inst.w),
        sigma=PeriodicReflect(inst.sigma),
        sigma_f=inst.sigma_f,
        fnorm_p_density=inst.fnorm_p_density,
        predicted=predicted,
    )
