"""Command-line front end: parse the arguments, run the subcommand's
experiment (one function of ``experiments``) and write its Report as a CSV.

Every ``--family`` is checked against ``experiments.FAMILIES``: the family
must support the subcommand (square-function and scaling need a test function
of finite snorm, divergence a divergence table, extension-check a line
extension), and ``--beta`` and ``--r`` must be the parameters it takes.
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
from .experiments import (
    Report,
    ainfty_growth_experiment,
    characteristics_experiment,
    default_beta_grid,
    divergence_experiment,
    extension_check_experiment,
    scaling_experiment,
    square_function_experiment,
)
from .squarefn import TailNotCertifiedError

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


def emit_csv(path: str, report: Report, timestamp: bool) -> None:
    """UTF-8 CSV: '#'-prefixed metadata, header, data rows, '#fit' footer.

    The file appears complete or not at all.
    """
    lines = [f"# tool: dyadicsq {__version__}"]
    lines += [f"# {k}: {_fmt(v)}" for k, v in report.meta.items()]
    if timestamp:
        lines.append(f"# timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    lines.append(",".join(report.columns))
    lines += [",".join(_fmt(v) for v in row) for row in report.rows()]
    for name, fit in report.fits.items():
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


def _parse_beta_grid(args) -> list[float] | None:
    """The betas of --beta-list or --beta-grid; None (the experiment's
    default grid) if neither is given."""
    if args.beta_list:
        betas = [float(t) for t in args.beta_list.split(",")]
    elif args.beta_grid:
        spec = args.beta_grid
        if not spec.startswith("j=") or ".." not in spec:
            raise ValueError(f"grid spec must look like j=3..8, got {spec!r}")
        lo, hi = spec[2:].split("..", 1)
        a, b = int(lo), int(hi)
        if b < a:
            raise ValueError("empty grid range")
        betas = list(default_beta_grid(range(a, b + 1)))
    else:
        return None
    for b in betas:
        if not 0.0 < b < 1.0:
            raise ValueError(f"beta {b} outside (0, 1)")
    return betas


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
            sp.add_argument("--beta", type=float)
        if r:
            sp.add_argument("--r", type=float)

    sp = sub.add_parser("characteristics", help="A_p / A_infty estimates for one pair")
    common(sp, beta=True, r=True)
    sp.add_argument("--depth", type=int, default=14)
    sp.set_defaults(fn=lambda a: characteristics_experiment(a.family, a.p, a.depth,
                                                          beta=a.beta, r=a.r))

    sp = sub.add_parser("square-function", help="certified weighted snorm lower bound")
    common(sp, beta=True, r=True)
    sp.add_argument("--n-max", type=int, default=256)
    sp.add_argument("--tail-rel-tol", type=float, default=1e-9)
    sp.set_defaults(fn=lambda a: square_function_experiment(
        a.family, a.p, a.n_max, a.tail_rel_tol, beta=a.beta, r=a.r))

    sp = sub.add_parser("scaling", help="beta sweep with exponent fits")
    common(sp)
    sp.add_argument("--beta-grid")
    sp.add_argument("--beta-list")
    sp.set_defaults(fn=lambda a: scaling_experiment(a.family, a.p, _parse_beta_grid(a)))

    sp = sub.add_parser("divergence", help="partial-mass / partial-sum divergence tables")
    common(sp, r=True)
    sp.add_argument("--k-max", type=int, default=10 ** 4)
    sp.set_defaults(fn=lambda a: divergence_experiment(a.family, a.p, a.r, k_max=a.k_max))

    sp = sub.add_parser("extension-check", help="periodized pair interval scans")
    common(sp, beta=True, r=True)
    sp.add_argument("--span", type=int, default=4)
    sp.add_argument("--grid-log2", type=int, default=12)
    sp.set_defaults(fn=lambda a: extension_check_experiment(
        a.family, a.p, a.span, 2.0 ** -a.grid_log2, beta=a.beta, r=a.r))

    sp = sub.add_parser("ainfty-growth", help="radial A_infty growth sweep")
    common(sp, family=False)
    sp.add_argument("--beta-grid")
    sp.add_argument("--beta-list")
    sp.set_defaults(fn=lambda a: ainfty_growth_experiment(a.p, _parse_beta_grid(a)))
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
        emit_csv(args.out, args.fn(args), not args.no_timestamp)
    except TailNotCertifiedError as e:
        return _fail(EXIT_UNCERTIFIED, e)
    # NonIntegrableError, ExtensionHypothesisError, NonFinite{Candidate,Term}Error,
    # CoefficientOverflowError
    except ValueError as e:
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
