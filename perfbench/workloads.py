"""The benchmark's workloads: fixed experiment lists, and the seed that orders them.

Each experiment is either a CLI call (``dyadicsq.cli.run(argv)``) or a direct
call into the public API (the criterion-8 oracle checks).  A seed picks the
order of the experiments and, for each one, a ``p`` from its ``ps`` tuple; the
work size (``n_max``, depth, grid) never depends on the seed.

``ps`` is the acceptance grid (2.5, 3, 4) restricted to the values the family
accepts.  ``extension-check`` keeps to ``p = 3``: the interval scan raises to
the power ``p - 1`` by repeated multiplication, one more pass per lag at
``p = 4`` (about 15% more scan time), and switches to ``np.power`` at
``p = 2.5`` (about twice the work), so any other ``p`` would let the seed
change the work size.  Its seed picks only the order.

This module imports nothing from ``dyadicsq`` at import time, so that the
caller can cap BLAS threads before numpy is loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

P_GRID = (2.5, 3.0, 4.0)
FSF_DEPTH = 12


@dataclass(frozen=True)
class Experiment:
    """One entry of a workload; ``kind`` is ``cli``, ``fsf`` or ``ainfty``.

    CLI outputs are checked against the golden file, except where ``oracle``
    names a closed form to check them against instead.
    """

    id: str
    kind: str
    family: str | None
    params: dict
    ps: tuple[float, ...]
    argv: tuple[str, ...] = ()
    oracle: str | None = None


def _cli(id_, family, params, ps, *argv):
    return Experiment(id_, "cli", family, params, ps, tuple(argv))


WORKLOADS: dict[str, tuple[Experiment, ...]] = {
    # the README deep-spine set: Gauss-Legendre shells, the 70-tap fold and
    # the radial A_infty loop do almost all of the work
    "deep_spine": (
        _cli("divergence_lai_treil", "lai_treil", {"r": 0.4}, (3.0, 4.0),
             "divergence", "--family", "lai_treil", "--r", "0.4", "--k-max", "1000000"),
        _cli("divergence_direct_sum", "direct_sum", {}, P_GRID,
             "divergence", "--family", "direct_sum", "--k-max", "10000"),
        _cli("scaling_alternating", "alternating", {"beta": 0.875}, P_GRID,
             "scaling", "--family", "alternating", "--beta-grid", "j=3..8"),
        _cli("scaling_lerner", "lerner", {"beta": 0.875}, P_GRID,
             "scaling", "--family", "lerner", "--beta-list", "0.875,0.9375,0.96875"),
        _cli("square_function_lerner", "lerner", {"beta": 0.875}, P_GRID,
             "square-function", "--family", "lerner", "--beta", "0.875", "--n-max", "2048"),
        # overflows from j = 11 at the seed (exit 3); kept, so the defect shows
        Experiment("ainfty_growth", "cli", None, {"j": (3, 12)}, P_GRID,
                   ("ainfty-growth", "--beta-grid", "j=3..12"), oracle="ainfty_growth"),
    ),
    # the acceptance criterion 7 scans: the interval scan is almost all of
    # the work, and the density layer is used only through vectorized
    # `cumulative`
    "line_scan": (
        _cli("extension_lai_treil", "lai_treil", {"r": 0.4}, (3.0,),
             "extension-check", "--family", "lai_treil", "--r", "0.4",
             "--span", "4", "--grid-log2", "12"),
        _cli("extension_power_pair_i", "power_pair_i", {"beta": 0.5}, (3.0,),
             "extension-check", "--family", "power_pair_i", "--beta", "0.5",
             "--span", "4", "--grid-log2", "12"),
    ),
    # the density layer used pointwise, through the scalar `primitive` loops
    "tree_oracle": (
        _cli("characteristics_direct_sum", "direct_sum", {}, P_GRID,
             "characteristics", "--family", "direct_sum", "--depth", "14"),
        _cli("characteristics_power_pair_i", "power_pair_i", {"beta": 0.5}, P_GRID,
             "characteristics", "--family", "power_pair_i", "--beta", "0.5", "--depth", "16"),
        Experiment("fsf_alternating", "fsf", "alternating", {"beta": 0.5}, P_GRID),
        Experiment("fsf_lai_treil", "fsf", "lai_treil", {"r": 0.4}, (3.0, 4.0)),
        Experiment("fsf_direct_sum", "fsf", "direct_sum", {}, P_GRID),
        Experiment("ainfty_full_tree", "ainfty", None, {"beta": 0.5, "depth": 14}, (None,)),
    ),
}


@dataclass(frozen=True)
class Step:
    """One experiment with the ``p`` the seed drew for it."""

    exp: Experiment
    p: float | None

    @property
    def key(self) -> str:
        """Golden-file key: experiment id and p."""
        return self.exp.id if self.p is None else f"{self.exp.id}@p={self.p:g}"

    def argv(self, out: str) -> list[str]:
        return [*self.exp.argv, "--p", repr(self.p), "--out", out, "--no-timestamp"]


def plan(workload: str, seed: int) -> list[Step]:
    """The experiment order and the p of each experiment, drawn from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    steps = [Step(e, rng.choice(e.ps)) for e in WORKLOADS[workload]]
    rng.shuffle(steps)
    return steps


def all_steps():
    """Every (workload, step) the seed can draw: what the golden file covers."""
    for name, exps in WORKLOADS.items():
        for e in exps:
            for p in e.ps:
                yield name, Step(e, p)


def build_family(step: Step):
    """The family instance an experiment starts from (constructor, with its
    closed-form verification); None for the power-weight experiments."""
    from dyadicsq import families

    e, p = step.exp, step.p
    if e.family is None:
        return None
    if e.family == "lerner":
        return families.lerner_family(p, e.params["beta"])
    if e.family == "alternating":
        return families.alternating_family(p, e.params["beta"])
    if e.family == "power_pair_i":
        return families.power_pair(p, e.params["beta"], "i")
    if e.family == "lai_treil":
        return families.lai_treil_family(p, e.params["r"])
    if e.family == "direct_sum":
        return families.direct_sum_family(p)
    raise ValueError(f"unknown family {e.family!r}")


def run_step(step: Step, out: str):
    """Run one experiment; returns the CLI exit code, or the computed arrays
    of a direct-call oracle experiment."""
    from dyadicsq import cli
    from dyadicsq.characteristics import dyadic_ainfty
    from dyadicsq.density import Power
    from dyadicsq.squarefn import full_square_function, spine_profile

    kind = step.exp.kind
    if kind == "cli":
        return cli.run(step.argv(out))
    if kind == "fsf":
        inst = build_family(step)
        leaf = full_square_function(inst.sigma_f, FSF_DEPTH)
        prof = spine_profile(inst.sigma_f, FSF_DEPTH)
        return leaf.values, prof.s
    if kind == "ainfty":
        return dyadic_ainfty(Power(1.0, -step.exp.params["beta"]),
                             depth=step.exp.params["depth"], mode="full_tree").value
    raise ValueError(f"unknown experiment kind {kind!r}")
