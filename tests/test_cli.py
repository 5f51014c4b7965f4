import math
import os
import warnings

import numpy as np
import pytest

from dyadicsq.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_UNCERTIFIED,
    EXIT_USAGE,
    run,
)
from dyadicsq.experiments import FAMILIES, default_r


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_scaling_csv_schema(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["scaling", "--family", "alternating", "--p", "3",
                "--beta-grid", "j=3..8", "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    lines = _read(out).strip().split("\n")
    meta = [l for l in lines if l.startswith("# ")]
    assert any("dyadicsq" in l for l in meta)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "beta,fnorm,snorm,ap_joint,ainfty_w,ainfty_sigma,ratio"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 6
    assert data[0].split(",")[0] == "0.875"
    fits = [l for l in lines if l.startswith("#fit")]
    assert len(fits) == 2 and all("slope=" in l for l in fits)


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["ainfty-growth", "--p", "3", "--beta-grid", "j=3..6", "--no-timestamp"]
    assert run(argv + ["--out", str(a)]) == EXIT_OK
    assert run(argv + ["--out", str(b)]) == EXIT_OK
    assert _read(a) == _read(b)


def test_timestamp_line_is_the_only_difference(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["characteristics", "--family", "power_pair_i", "--p", "2",
            "--beta", "0.5", "--depth", "10"]
    assert run(argv + ["--out", str(a)]) == EXIT_OK
    assert run(argv + ["--out", str(b)]) == EXIT_OK
    la = [l for l in _read(a).split("\n") if not l.startswith("# timestamp")]
    lb = [l for l in _read(b).split("\n") if not l.startswith("# timestamp")]
    assert la == lb
    assert any(l.startswith("# timestamp") for l in _read(a).split("\n"))


def test_characteristics_example_row(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["characteristics", "--family", "power_pair_i", "--p", "2",
                "--beta", "0.5", "--depth", "16", "--out", str(out),
                "--no-timestamp"]) == EXIT_OK
    lines = [l for l in _read(out).strip().split("\n") if not l.startswith("#")]
    joint = float(lines[1].split(",")[0])
    assert 2.0 / math.e <= joint <= 2.0 + 1e-12


def test_missing_flag_usage_error(tmp_path, capsys):
    out = tmp_path / "missing.csv"
    code = run(["scaling", "--family", "alternating", "--p", "3"])
    capsys.readouterr()
    assert code == EXIT_USAGE
    assert not out.exists()


def test_unknown_family_precondition(tmp_path, capsys):
    code = run(["characteristics", "--family", "nope", "--p", "2",
                "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "# error code=3" in err


def test_bad_p_precondition(tmp_path, capsys):
    code = run(["scaling", "--family", "lerner", "--p", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_PRECONDITION
    assert "# error code=3" in capsys.readouterr().err


def test_uncertified_tail_exit(tmp_path, capsys):
    code = run(["square-function", "--family", "lerner", "--p", "3",
                "--beta", "0.99", "--n-max", "64", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_UNCERTIFIED
    assert "# error code=4" in capsys.readouterr().err


def test_io_failure(tmp_path, capsys):
    code = run(["characteristics", "--family", "power_pair_i", "--p", "2",
                "--beta", "0.5", "--depth", "6",
                "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
    assert code == EXIT_IO
    assert "# error code=5" in capsys.readouterr().err


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADICSQ_OUTDIR", str(tmp_path))
    assert run(["characteristics", "--family", "power_pair_i", "--p", "2",
                "--beta", "0.5", "--depth", "6", "--out", "rel.csv",
                "--no-timestamp"]) == EXIT_OK
    assert (tmp_path / "rel.csv").exists()


def test_beta_list_and_bad_grid(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run(["ainfty-growth", "--p", "3", "--beta-list", "0.5,0.75,0.875,0.9375",
                "--out", str(out), "--no-timestamp"]) == EXIT_OK
    code = run(["ainfty-growth", "--p", "3", "--beta-grid", "wat",
                "--out", str(tmp_path / "h.csv")])
    assert code == EXIT_PRECONDITION
    capsys.readouterr()


@pytest.mark.parametrize("command", [["scaling", "--family", "alternating"], ["ainfty-growth"]])
def test_a_beta_grid_with_a_beta_list_is_a_usage_error(tmp_path, capsys, command):
    # one sweep is asked for: a grid and a list together never sweep one of them
    out = tmp_path / "g.csv"
    code = run([*command, "--p", "3", "--beta-grid", "j=3..5", "--beta-list", "0.5,0.6,0.7",
                "--out", str(out), "--no-timestamp"])
    assert code == EXIT_USAGE
    assert "argument --beta-list: not allowed with argument --beta-grid" in capsys.readouterr().err
    assert not out.exists()


def test_divergence_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["divergence", "--family", "lai_treil", "--p", "3", "--r", "0.4",
                "--k-max", "5000", "--out", str(out), "--no-timestamp"]) == EXIT_OK
    lines = _read(out).strip().split("\n")
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "k,partial_mass,paper_bound,ratio"
    assert any(l.startswith("#fit,name=partial_mass") for l in lines)


def test_failed_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    import dyadicsq.cli as cli

    class DiskFull:
        """A file that takes the first bytes of a write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
    code = run(["characteristics", "--family", "power_pair_i", "--p", "2",
                "--beta", "0.5", "--depth", "6", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_IO
    assert "# error code=5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nan_characteristic_is_a_precondition_error(tmp_path, monkeypatch, capsys):
    # a NaN spine in place of the averages at beta = 1 - 2^-11 (n_max 32768)
    from dyadicsq.density import Power

    build = Power.spine_averages

    def holed(self, n_max):
        if n_max < 32768:
            return build(self, n_max)
        return np.full(n_max + 1, np.nan, dtype=np.longdouble)

    monkeypatch.setattr(Power, "spine_averages", holed)
    out = tmp_path / "g.csv"
    code = run(["ainfty-growth", "--p", "3", "--beta-grid", "j=9..11",
                "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "type=NonFiniteCandidateError" in err and "n_max 32768" in err
    assert not out.exists()


def test_nan_in_the_interval_scan_is_a_precondition_error(tmp_path, monkeypatch, capsys):
    from dyadicsq.density import PeriodicReflect

    cumulative = PeriodicReflect.cumulative

    def holed(self, xs, x0):
        out = cumulative(self, xs, x0)
        if np.ndim(x0) == 0:  # the scan grid, not the probes (one anchor each)
            out[out.size // 3] = math.nan
        return out

    monkeypatch.setattr(PeriodicReflect, "cumulative", holed)
    out = tmp_path / "e.csv"
    code = run(["extension-check", "--family", "power_pair_i", "--beta", "0.5", "--p", "3",
                "--span", "1", "--grid-log2", "6", "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "type=NonFiniteCandidateError" in err and "step 2^-6" in err
    assert not out.exists()


def test_a_non_finite_snorm_term_is_a_precondition_error(tmp_path, capsys):
    # the extended-precision spine averages of x^-0.875 overflow past shell
    # 2^13, so terms there come out NaN or +inf, and none may drop out of the
    # sum; once the spine is kept in a scaled form, this call must give a
    # finite certified norm instead
    out = tmp_path / "s.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["square-function", "--family", "lerner", "--p", "3", "--beta", "0.875",
                    "--n-max", "131072", "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "type=NonFiniteTermError" in err and "n_max 131072" in err
    assert not out.exists()


def test_an_ainfty_growth_sweep_past_the_overflow_prints_only_its_error_line(tmp_path, capsys):
    # the spine of the j = 11 weight x^-beta passes the extended-precision
    # range; its NaN candidate exits 3 with the error line alone, no numpy
    # warning above it (the radial A_infty forms no inf * 0)
    out = tmp_path / "ag.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["ainfty-growth", "--p", "3", "--beta-grid", "j=3..12", "--out", str(out)])
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err == ("# error code=3 type=NonFiniteCandidateError "
                                       'message="NaN candidate at root I_0, n_max 32768"\n')
    assert not out.exists()


def test_an_ainfty_growth_sweep_with_an_inf_candidate_exits_3(tmp_path, capsys):
    # at beta = 0.99902439 (n_max 16400) the spine of x^-beta overflows before
    # the weights vanish, so the radial sum is inf: an inf A_infty is no
    # supremum and no fit, and exits 3 with the error line alone
    out = tmp_path / "ag.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["ainfty-growth", "--p", "3", "--beta-list", "0.5,0.75,0.99902439",
                    "--out", str(out), "--no-timestamp"])
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err == ("# error code=3 type=NonFiniteCandidateError "
                                       'message="inf candidate at root I_0, n_max 16400"\n')
    assert not out.exists()


# exit-3 paths past the double or extended-precision range: the error line
# alone on stderr, no traceback and no numpy warning above it
_OUT_OF_RANGE = {
    # (1 - beta)^(1 - p) of the spine-product closed form is inf, not an
    # OverflowError; the dyadic joint A_p raises on its inf product
    "characteristics_p160": (
        ["characteristics", "--family", "power_pair_ii", "--beta", "0.99", "--p", "160",
         "--depth", "10"],
        "NonFiniteCandidateError", "inf candidate at roots of level 0, depth 10"),
    "characteristics_p150": (
        ["characteristics", "--family", "power_pair_ii", "--beta", "0.99", "--p", "150",
         "--depth", "10"],
        "NonFiniteCandidateError", "inf candidate at roots of level 1, depth 10"),
    # hypothesis (ii): the ratio's factors over- and underflow, which no
    # check may pass on
    "hypothesis_ii_p40": (
        ["extension-check", "--family", "power_pair_ii", "--beta", "0.9", "--p", "40",
         "--span", "1", "--grid-log2", "6"], "ExtensionHypothesisError",
        "hypothesis (ii) ratio inf at (k, l) = (27, 27) is not a finite double"),
    # a singular probe whose float power overflows is an inf candidate
    "singular_probe_p30": (
        ["extension-check", "--family", "power_pair_ii", "--beta", "0.8", "--p", "30",
         "--span", "1", "--grid-log2", "6"], "NonFiniteCandidateError",
        "inf candidate at singular probe [-2, -1.9999999999997726), span 2"),
    # the direct-sum series past p = 100
    "divergence_p150": (
        ["divergence", "--family", "direct_sum", "--p", "150", "--k-max", "1000"],
        "NonFiniteTermError", "non-finite snorm term nan of block 1, p 150.0"),
    # overflowed spines: square differences, and the spine joint A_p
    "square_function_lerner": (
        ["square-function", "--family", "lerner", "--p", "3", "--beta", "0.875",
         "--n-max", "131072"], "NonFiniteTermError",
        "non-finite snorm term inf at shell J_9360, n_max 131072"),
    "scaling_lerner": (
        ["scaling", "--family", "lerner", "--p", "3", "--beta-grid", "j=3..9"],
        "NonFiniteTermError", "non-finite snorm term inf at shell J_8200, n_max 16384"),
    "scaling_alternating": (
        ["scaling", "--family", "alternating", "--p", "1.5", "--beta-grid", "j=3..10"],
        "NonFiniteCandidateError", "NaN candidate at spine interval I_16391, n_max 32768"),
}


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
def test_an_out_of_range_command_prints_only_its_error_line(tmp_path, capsys, name):
    argv, kind, message = _OUT_OF_RANGE[name]
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--out", str(out), "--no-timestamp"])
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err == f'# error code=3 type={kind} message="{message}"\n'
    assert not out.exists()


# spines past the cap 2^22 exit 3 before any is built; all but the first
# once asked numpy for 14.6 to 466 TiB and died with a MemoryError traceback
_OVERSIZED = {
    "square_function_at_the_cap": (
        ["square-function", "--family", "lerner", "--p", "3", "--beta", "0.875",
         "--n-max", str(2 ** 22 + 1)],
        "n-max needs a spine of depth 4194305, past the cap 2^22"),
    "square_function": (
        ["square-function", "--family", "lerner", "--p", "3", "--beta", "0.875",
         "--n-max", "1000000000000"],
        "n-max needs a spine of depth 1000000000000, past the cap 2^22"),
    "ainfty_growth": (
        ["ainfty-growth", "--p", "3", "--beta-list", "0.5,0.75,0.999999999999"],
        "beta 0.999999999999 needs a spine of depth 16000353955353, past the cap 2^22"),
    "scaling_lerner": (
        ["scaling", "--family", "lerner", "--p", "3", "--beta-list", "0.5,0.75,0.999999999999"],
        "beta 0.999999999999 needs a spine of depth 32000707910705, past the cap 2^22"),
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED))
def test_a_spine_past_the_cap_exits_3_before_it_is_built(tmp_path, name):
    # in a fresh process with 2 GB of address space, so that a spine built
    # after all fails at once instead of filling the memory
    import subprocess
    import sys

    argv, message = _OVERSIZED[name]
    out = tmp_path / "x.csv"
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9,) * 2); "
            "from dyadicsq.cli import run; sys.exit(run(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == \
        (EXIT_PRECONDITION, f'# error code=3 type=ValueError message="{message}"\n')
    assert not out.exists()


@pytest.mark.parametrize("cmd", [
    ["characteristics", "--family", "lerner", "--p", "3", "--beta", "0.875", "--depth", "6"],
    ["characteristics", "--family", "direct_sum", "--p", "4", "--depth", "6"],
])
def test_failed_internal_check_is_its_own_exit_code(tmp_path, monkeypatch, capsys, cmd):
    # a negative tolerance fails every closed-form verification of a family
    import dyadicsq.families as families

    monkeypatch.setattr(families, "_VERIFY_TOL", -1.0)
    out = tmp_path / "x.csv"
    assert run([*cmd, "--out", str(out), "--no-timestamp"]) == EXIT_INTERNAL
    assert "# error code=6 type=AssertionError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _fresh_python(code: str, *args: str) -> str:
    """The stdout of ``python -c code *args`` in a new interpreter."""
    import subprocess
    import sys

    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def test_cli_import_leaves_scipy_signal_out():
    # no module of the package imports scipy, scipy.signal included
    _fresh_python("import dyadicsq.cli, sys; "
                  "assert not [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]")


# a fresh process in which every import of scipy raises ImportError
_NO_SCIPY = "import sys; sys.modules['scipy'] = None; "

_SUBCOMMANDS_IN_A_FRESH_PROCESS = """
import os, sys
from dyadicsq.cli import run
out = sys.argv[1]
for cmd in (
    "characteristics --family direct_sum --p 3 --depth 6",
    "square-function --family lerner --p 3 --beta 0.875 --n-max 256",
    "scaling --family alternating --p 3 --beta-grid j=3..5",
    "ainfty-growth --p 3 --beta-grid j=3..5",
    "extension-check --family lai_treil --p 3 --r 0.4 --span 1 --grid-log2 6",
    "divergence --family lai_treil --p 3 --r 0.4 --k-max 1000",
    "divergence --family direct_sum --p 4 --k-max 10000",
):
    assert run([*cmd.split(), "--out", os.path.join(out, "x.csv")]) == 0, cmd
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_start_up_and_small_commands_load_no_scipy(tmp_path):
    # with scipy importable, no subcommand loads it, the direct-sum divergence
    # included
    assert _fresh_python(_SUBCOMMANDS_IN_A_FRESH_PROCESS, str(tmp_path)).strip() == "[]"


def test_every_subcommand_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency
    _fresh_python(_NO_SCIPY + _SUBCOMMANDS_IN_A_FRESH_PROCESS, str(tmp_path))


def test_a_fresh_process_without_scipy_gives_the_in_process_values(tmp_path):
    from dyadicsq.density import LogPowerPlain

    ds = ["divergence", "--family", "direct_sum", "--p", "4", "--k-max", "1000", "--no-timestamp"]
    assert run([*ds, "--out", str(tmp_path / "here.csv")]) == EXIT_OK
    _fresh_python(_NO_SCIPY + "from dyadicsq.cli import run; assert run(sys.argv[1:]) == 0",
                  *ds, "--out", str(tmp_path / "fresh.csv"))
    assert _read(tmp_path / "fresh.csv") == _read(tmp_path / "here.csv")

    # an off-zero LogPowerPlain integral is a difference of primitives
    got = _fresh_python(_NO_SCIPY + "from dyadicsq.density import LogPowerPlain; "
                        "print(LogPowerPlain(0.4).integrate(0.25, 0.5).hex())")
    assert float.fromhex(got.strip()) == LogPowerPlain(0.4).integrate(0.25, 0.5)


# ---------------------------------------------------------------------------
# every family against every subcommand, from the family table


# the capabilities each subcommand needs of its family, in the order it checks
# them, and its flags at small sizes
_SUBCOMMANDS = {
    "characteristics": ((), ["--depth", "6"]),
    "square-function": (("finite_snorm",), ["--n-max", "256"]),
    "scaling": (("finite_snorm",), ["--beta-grid", "j=3..5"]),
    "divergence": (("divergence",), ["--k-max", "1000"]),
    "extension-check": (("extension_x0",), ["--span", "1", "--grid-log2", "6"]),
}
# the parameter flags each subcommand has, and a value each family accepts
_PARAM_FLAGS = {"characteristics": ("beta", "r"), "square-function": ("beta", "r"),
                "scaling": (), "divergence": ("r",), "extension-check": ("beta", "r")}
_PARAM_VALUES = {"beta": "0.5", "r": "0.4"}


@pytest.mark.parametrize("command, family", [(c, f) for c in _SUBCOMMANDS for f in FAMILIES])
def test_every_subcommand_with_every_family(tmp_path, capsys, command, family):
    capabilities, flags = _SUBCOMMANDS[command]
    fam = FAMILIES[family]
    params = [a for k in fam.params if k in _PARAM_FLAGS[command]
              for a in (f"--{k}", _PARAM_VALUES[k])]
    out = tmp_path / "x.csv"
    code = run([command, "--family", family, "--p", "3", *params, *flags,
                "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    # lai_treil and direct_sum, whose S(sigma f) is not in L^p(w), have a test
    # function but no finite snorm: square-function and scaling exit 3 for
    # them, not 4, as for the families without a test function
    if missing := [c for c in capabilities if not getattr(fam, c)]:
        assert code == EXIT_PRECONDITION
        assert f'message="family {family} has no {missing[0].replace("_", " ")}"' in err
        assert not out.exists()
    else:
        assert code == EXIT_OK, err
        assert f"# family: {family}" in _read(out)


@pytest.mark.parametrize("family", ["lai_treil", "direct_sum"])
def test_square_function_refuses_a_divergent_family_at_any_tolerance(tmp_path, capsys, family):
    # a tolerance of 0.5 used to "certify" a partial sum of the divergent series
    out = tmp_path / "x.csv"
    assert run(["square-function", "--family", family, "--p", "3", "--n-max", "8192",
                "--tail-rel-tol", "0.5", "--out", str(out), "--no-timestamp"]) == EXIT_PRECONDITION
    assert f'message="family {family} has no finite snorm"' in capsys.readouterr().err
    assert not out.exists()


def test_characteristics_of_the_constant_pair_are_one(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["characteristics", "--family", "constant", "--p", "3", "--depth", "8",
                "--out", str(out), "--no-timestamp"]) == EXIT_OK
    row = _read(out).strip().split("\n")[-1]
    assert [float(v) for v in row.split(",")] == pytest.approx([1.0] * 4, rel=1e-12)


@pytest.mark.parametrize("argv, flag", [
    (["characteristics", "--family", "lai_treil", "--beta", "0.5", "--depth", "6"], "beta"),
    (["square-function", "--family", "lerner", "--beta", "0.5", "--r", "0.3"], "r"),
    (["extension-check", "--family", "direct_sum", "--beta", "0.9", "--span", "1",
      "--grid-log2", "6"], "beta"),
    (["divergence", "--family", "direct_sum", "--r", "0.4", "--k-max", "1000"], "r"),
])
def test_a_parameter_the_family_does_not_take_exits_3(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    assert run([*argv, "--p", "3", "--out", str(out), "--no-timestamp"]) == EXIT_PRECONDITION
    assert (f'# error code=3 type=ValueError message="family {argv[2]} takes no --{flag}"'
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["characteristics", "--family", "power_pair_i", "--depth", "6"],
    ["square-function", "--family", "lerner"],
    ["extension-check", "--family", "power_pair_i", "--span", "1", "--grid-log2", "6"],
])
def test_a_missing_beta_exits_3_in_every_subcommand(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run([*argv, "--p", "3", "--out", str(out), "--no-timestamp"]) == EXIT_PRECONDITION
    assert (f'# error code=3 type=ValueError message="family {argv[2]} requires --beta"'
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["characteristics", "--family", "lai_treil", "--depth", "6"],
    ["extension-check", "--family", "lai_treil", "--span", "1", "--grid-log2", "6"],
    ["divergence", "--family", "lai_treil", "--k-max", "1000"],
])
def test_the_default_r_is_written_and_is_the_r_used(tmp_path, argv):
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    r = default_r(3.0)
    assert run([*argv, "--p", "3", "--out", str(default), "--no-timestamp"]) == EXIT_OK
    assert f"# r: {r:.17g}" in _read(default).split("\n")
    assert run([*argv, "--p", "3", "--r", f"{r:.17g}", "--out", str(explicit),
                "--no-timestamp"]) == EXIT_OK
    assert _read(default) == _read(explicit)


def test_the_readme_family_table_is_the_family_table():
    from fractions import Fraction

    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    rows = {}
    for line in lines:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 + len(_SUBCOMMANDS) and cells[0].strip("`") in FAMILIES:
            rows[cells[0].strip("`")] = cells
    assert sorted(rows) == sorted(FAMILIES)
    for name, (_, params, *supported) in rows.items():
        fam = FAMILIES[name]
        assert [k for k in ("beta", "r") if f"--{k}" in params] == list(fam.params)
        for cell, (capabilities, _) in zip(supported, _SUBCOMMANDS.values()):
            assert cell.startswith("yes") == all(getattr(fam, c) for c in capabilities)
        if fam.extension_x0 is not None:
            assert Fraction(supported[-1].split("x0 = ")[1]) == fam.extension_x0
