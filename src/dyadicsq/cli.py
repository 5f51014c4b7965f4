"""Command-line front end: experiment dispatch and CSV emission.

Every ``--family`` is checked against ``experiments.FAMILIES``: the family
must support the subcommand (square-function needs a test function of finite
snorm, scaling a beta sweep, divergence a divergence table, extension-check a
line extension), and ``--beta`` and ``--r`` must be the parameters it takes.
A parameter left out takes its default (lai_treil's r), and the CSV metadata
records the value used.  An unknown family, an unsupported subcommand, and a
parameter the family does not take or lacks (without a default) all exit 3.

Exit codes: 0 success, 2 usage error, 3 parameter/precondition failure,
4 uncertified series tail, 5 I/O failure, 6 internal check failed (a failed
closed-form verification, which is a bug).  Failures also print a single
machine-readable line ``# error code=N type=T message="..."`` to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

from . import __version__
from .characteristics import dyadic_ainfty, dyadic_joint_ap, spine_joint_ap
from .experiments import (
    DivergenceReport,
    ScalingReport,
    ainfty_growth_experiment,
    default_beta_grid,
    divergence_experiment,
    extension_experiment,
    family_entry,
    scaling_experiment,
)
from .squarefn import FULL_TREE_MAX_DEPTH, TailNotCertifiedError, weighted_snorm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_UNCERTIFIED = 4
EXIT_IO = 5
EXIT_INTERNAL = 6

OUTDIR_ENV = "DYADICSQ_OUTDIR"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_csv(path: str, metadata: dict, header: list[str], rows,
             fits: dict | None = None, timestamp: bool = True) -> None:
    """UTF-8 CSV: '#'-prefixed metadata, header, data rows, '#fit' footer.

    The file appears complete or not at all.
    """
    lines = [f"# tool: dyadicsq {__version__}"]
    for k, v in metadata.items():
        lines.append(f"# {k}: {_fmt(v)}")
    if timestamp:
        lines.append(f"# timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    for name, fit in (fits or {}).items():
        lines.append(
            f"#fit,name={name},slope={_fmt(fit.slope)},intercept={_fmt(fit.intercept)},"
            f"max_residual={_fmt(fit.max_residual)},"
            f"window_lo={_fmt(fit.window[0])},window_hi={_fmt(fit.window[1])}"
        )
    # write beside the target and rename, so a failed write leaves no file
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), path)


def _parse_beta_grid(args) -> list[float]:
    if args.beta_list:
        betas = [float(t) for t in args.beta_list.split(",")]
    else:
        spec = args.beta_grid
        if not spec.startswith("j=") or ".." not in spec:
            raise ValueError(f"grid spec must look like j=3..8, got {spec!r}")
        lo, hi = spec[2:].split("..", 1)
        a, b = int(lo), int(hi)
        if b < a:
            raise ValueError("empty grid range")
        betas = list(default_beta_grid(range(a, b + 1)))
    for b in betas:
        if not 0.0 < b < 1.0:
            raise ValueError(f"beta {b} outside (0, 1)")
    return betas


def _family(args, capability: str | None = None):
    """The table entry of --family, which must have ``capability``, and its
    parameters from --beta and --r, checked against the ones it takes."""
    fam = family_entry(args.family, capability)
    return fam, fam.resolve(args.p, beta=args.beta, r=args.r)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_characteristics(args) -> None:
    fam, params = _family(args)
    inst = fam.make(args.p, **params)
    if not 1 <= args.depth <= FULL_TREE_MAX_DEPTH:
        raise ValueError(f"depth must lie in [1, {FULL_TREE_MAX_DEPTH}]")
    n_max = max(4 * args.depth, 256)
    joint = dyadic_joint_ap(inst.w, inst.sigma, args.p, args.depth)
    spine = spine_joint_ap(inst.w, inst.sigma, args.p, n_max)
    aw = dyadic_ainfty(inst.w, mode="radial", n_max=n_max)
    asig = dyadic_ainfty(inst.sigma, mode="radial", n_max=n_max)
    emit_csv(args.out, {"family": args.family, "p": args.p, **params, "depth": args.depth,
                        "n_max": n_max},
             ["joint_ap_dyadic", "joint_ap_spine", "ainfty_w", "ainfty_sigma"],
             [(joint.value, spine.value, aw.value, asig.value)],
             timestamp=not args.no_timestamp)


def _cmd_square_function(args) -> None:
    fam, params = _family(args, "test_function")
    family_entry(args.family, "finite_snorm")  # lai_treil, direct_sum: S(sigma f) not in L^p(w)
    inst = fam.make(args.p, **params)
    if args.n_max < 4:
        raise ValueError("n-max must be >= 4")
    snorm = weighted_snorm(inst.sigma_f, inst.w, args.p, n_max=args.n_max,
                           tail_rel_tol=args.tail_rel_tol)
    emit_csv(args.out, {"family": args.family, "p": args.p, **params, "n_max": args.n_max,
                        "tail_rel_tol": args.tail_rel_tol},
             ["snorm_lower", "fnorm"], [(snorm, inst.fnorm)],
             timestamp=not args.no_timestamp)


def _report_rows(report: ScalingReport | DivergenceReport, keys: list[str]):
    cols = [report.columns[k] for k in keys]
    return zip(*(c.tolist() for c in cols))


def _emit_sweep(args, meta: dict, report: ScalingReport, keys: list[str]) -> None:
    """A beta sweep's CSV: one row per beta, and the notes after ``meta``."""
    rows = [(b, *vals) for b, vals in zip(report.params.tolist(), _report_rows(report, keys))]
    emit_csv(args.out, {**meta, "notes": "; ".join(report.notes)}, ["beta"] + keys, rows,
             report.fits, timestamp=not args.no_timestamp)


def _cmd_scaling(args) -> None:
    betas = _parse_beta_grid(args)
    report = scaling_experiment(args.family, args.p, betas)
    _emit_sweep(args, {"command": "scaling", "family": args.family, "p": args.p}, report,
                ["fnorm", "snorm", "ap_joint", "ainfty_w", "ainfty_sigma", "ratio"])


def _cmd_divergence(args) -> None:
    report = divergence_experiment(args.family, args.p, args.r, args.k_max)
    keys = list(report.columns)
    rows = list(_report_rows(report, keys))
    meta = {"command": "divergence", "family": args.family, "p": args.p,
            **report.params, "notes": "; ".join(report.notes)}
    emit_csv(args.out, meta, keys, rows, report.fits, timestamp=not args.no_timestamp)


def _cmd_extension_check(args) -> None:
    _, params = _family(args, "extension_x0")
    if args.span < 1:
        raise ValueError("span must be >= 1")
    res = extension_experiment(args.family, args.p, args.span,
                               2.0 ** -args.grid_log2, **params)
    meta = {"command": "extension-check", "family": args.family, "p": args.p, **params,
            "grid_step": 2.0 ** -args.grid_log2}
    keys = ["span", "scan_max", "scan_max_doubled", "span_doubling_ratio",
            "unit_cell_dyadic"]
    emit_csv(args.out, meta, keys, [tuple(res[k] for k in keys)],
             timestamp=not args.no_timestamp)


def _cmd_ainfty_growth(args) -> None:
    betas = _parse_beta_grid(args)
    report = ainfty_growth_experiment(args.p, betas)
    _emit_sweep(args, {"command": "ainfty-growth", "p": args.p}, report,
                ["n_max", "ainfty_w", "ainfty_sigma"])


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadicsq",
        description="numerical experiments on two-weight dyadic square function bounds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, family=True, beta=False, r=False):
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--out", required=True, help="output CSV path "
                        f"(relative paths resolve under ${OUTDIR_ENV})")
        sp.add_argument("--no-timestamp", action="store_true")
        if family:
            sp.add_argument("--family", required=True)
        if beta:
            sp.add_argument("--beta", type=float, default=None)
        if r:
            sp.add_argument("--r", type=float, default=None)

    sp = sub.add_parser("characteristics", help="A_p / A_infty estimates for one pair")
    common(sp, beta=True, r=True)
    sp.add_argument("--depth", type=int, default=14)
    sp.set_defaults(fn=_cmd_characteristics)

    sp = sub.add_parser("square-function", help="certified weighted snorm lower bound")
    common(sp, beta=True, r=True)
    sp.add_argument("--n-max", type=int, default=256)
    sp.add_argument("--tail-rel-tol", type=float, default=1e-9)
    sp.set_defaults(fn=_cmd_square_function)

    sp = sub.add_parser("scaling", help="beta sweep with exponent fits")
    common(sp)
    sp.add_argument("--beta-grid", default="j=3..8")
    sp.add_argument("--beta-list", default=None)
    sp.set_defaults(fn=_cmd_scaling)

    sp = sub.add_parser("divergence", help="partial-mass / partial-sum divergence tables")
    common(sp, r=True)
    sp.add_argument("--k-max", type=int, default=10 ** 4)
    sp.set_defaults(fn=_cmd_divergence)

    sp = sub.add_parser("extension-check", help="periodized pair interval scans")
    common(sp, beta=True, r=True)
    sp.add_argument("--span", type=int, default=4)
    sp.add_argument("--grid-log2", type=int, default=12)
    sp.set_defaults(fn=_cmd_extension_check)

    sp = sub.add_parser("ainfty-growth", help="radial A_infty growth sweep")
    common(sp, family=False)
    sp.add_argument("--beta-grid", default="j=3..8")
    sp.add_argument("--beta-list", default=None)
    sp.set_defaults(fn=_cmd_ainfty_growth)
    return parser


def _fail(code: int, exc: BaseException) -> int:
    msg = str(exc).replace('"', "'")
    print(f'# error code={code} type={type(exc).__name__} message="{msg}"',
          file=sys.stderr)
    return code


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.p <= 1.0:
        return _fail(EXIT_PRECONDITION, ValueError("p must be > 1"))
    args.out = _resolve_out(args.out)
    try:
        args.fn(args)
    except TailNotCertifiedError as e:
        return _fail(EXIT_UNCERTIFIED, e)
    except ValueError as e:  # NonIntegrableError, ExtensionHypothesisError, NonFinite{Candidate,Term}Error
        return _fail(EXIT_PRECONDITION, e)
    except AssertionError as e:  # a failed internal check (closed-form verification): a bug
        return _fail(EXIT_INTERNAL, e)
    except OSError as e:
        return _fail(EXIT_IO, e)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
