"""dyadicsq benchmark: time each workload end to end, trace it layer by layer,
and gate every output for correctness.

    python3 perfbench/run.py --workload deep_spine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run sets up, then repeats passes over the workload's experiment list for
``--seconds`` seconds in one process (a closed loop of one caller).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports its per-layer metrics.
Times are scaled to a fixed host speed by a reference kernel timed between
experiments and between set-up runs (``calib.py``); the record keeps the
wall times too.
``--workload all`` runs every workload both ways, one child process at a
time.  The last line of standard output is the JSON result; a fuller record
(provenance, quartiles, sample counts, failures) goes to
``.bench_out/<workload>-seed<n>-trace<t>.json`` and the spans of the last
traced pass to ``.bench_out/<workload>-seed<n>.spans.npz``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calib  # noqa: E402
import check  # noqa: E402
import env  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = os.path.join(env.ROOT, ".bench_out")
SETUP_RUNS = 5
PROBE = os.path.join(env.HERE, "setup_probe.py")
MODULES = ("dyadic", "density", "squarefn", "characteristics", "families",
           "experiments", "cli")

#: Per-layer shares of traced pass time: metric -> (span name or module
#: prefix ending in ".", label or None for every label).
SELF_FRAC = {
    "density.self_frac": ("density.", None),
    "density.spine_averages.self_frac": ("density.spine_averages", None),
    "density.spine_averages.SignModulate.self_frac": ("density.spine_averages", "SignModulate"),
    "density.spine_averages.PiecewiseDyadic.self_frac": ("density.spine_averages", "PiecewiseDyadic"),
    "density.spine_averages.Power.self_frac": ("density.spine_averages", "Power"),
    "density.primitive.self_frac": ("density.primitive", None),
    "density.primitive.SignModulate.self_frac": ("density.primitive", "SignModulate"),
    "density.primitive.PiecewiseDyadic.self_frac": ("density.primitive", "PiecewiseDyadic"),
    "density.integrate.self_frac": ("density.integrate", None),
    "density.cumulative.self_frac": ("density.cumulative", None),
    "squarefn.self_frac": ("squarefn.", None),
    "squarefn.spine_profile.self_frac": ("squarefn.spine_profile", None),
    "squarefn.partial_mass_profile.self_frac": ("squarefn.partial_mass_profile", None),
    "squarefn.level_averages.self_frac": ("squarefn.level_averages", None),
    "squarefn.full_square_function.self_frac": ("squarefn.full_square_function", None),
    "squarefn.weighted_snorm.self_frac": ("squarefn.weighted_snorm", None),
    "characteristics.self_frac": ("characteristics.", None),
    "characteristics.interval_scan_joint_ap.self_frac": ("characteristics.interval_scan_joint_ap", None),
    "characteristics.dyadic_ainfty.radial.self_frac": ("characteristics.dyadic_ainfty", "radial"),
    "characteristics.dyadic_ainfty.full_tree.self_frac": ("characteristics.dyadic_ainfty", "full_tree"),
    "characteristics.dyadic_joint_ap.self_frac": ("characteristics.dyadic_joint_ap", None),
    "characteristics.spine_joint_ap.self_frac": ("characteristics.spine_joint_ap", None),
    "families.self_frac": ("families.", None),
    "families.build.self_frac": ("families.build", None),
    "families.extend_to_line.self_frac": ("families.extend_to_line", None),
    "experiments.self_frac": ("experiments.", None),
    "cli.run.self_frac": ("cli.run", None),
    "cli.emit_csv.self_frac": ("cli.emit_csv", None),
}

#: Counts per traced pass, computed from call arguments and results.
COUNTS = (
    "density.spine_averages.shells",
    "density.primitive.points",
    "density.integrate.calls",
    "density.piece_mass.calls",
    "density.cumulative.points",
    "squarefn.level_averages.leaves",
    "squarefn.weighted_snorm.uncertified",
    "characteristics.interval_scan_joint_ap.grid_pairs",
    "cli.emit_csv.bytes",
    "cli.exit_nonzero",
)


def _quartiles(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs), "samples": xs}


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the workload's families
    being built, once per setup run (one child process at a time), scaled by
    the reference kernel timed before and after each run; and the wall
    seconds."""
    scaled, wall = [], []
    ref = calib.ref_time()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, PROBE, "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line != "ready":
            raise SystemExit(f"perfbench: setup probe failed (exit {rc})")
        ref_after = calib.ref_time()
        scaled.append(calib.scaled(elapsed, ref, ref_after))
        wall.append(elapsed)
        ref = ref_after
    return scaled, wall


class Tally:
    """Attempted and failed experiments, why they failed, the wall time of
    each experiment and the reference kernel times."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []
        self.step_s: dict[str, list[float]] = {}
        self.ref_s: list[float] = []

    def add(self, verdict: str, messages: list[str]) -> None:
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
            self.wrong += verdict == "wrong"
            if len(self.messages) < 50:
                self.messages.extend(messages)


def run_pass(steps, golden: dict, outdir: str, tally: Tally) -> tuple[float, float]:
    """One pass over the experiment list; returns the summed experiment time,
    scaled to reference host speed, and the summed wall time (output checks
    and reference kernels are not in either)."""
    total = wall = 0.0
    ref = calib.ref_time()
    tally.ref_s.append(ref)
    for i, step in enumerate(steps):
        out = os.path.join(outdir, f"{i}.csv")
        t0 = time.perf_counter()
        try:
            result = workloads.run_step(step, out)
            raised = None
        except Exception as e:  # a raising experiment is a failed one
            raised = ("error", [f"{step.key}: {type(e).__name__}: {e}"])
        elapsed = time.perf_counter() - t0
        ref_after = calib.ref_time()
        tally.ref_s.append(ref_after)
        total += calib.scaled(elapsed, ref, ref_after)
        wall += elapsed
        ref = ref_after
        tally.step_s.setdefault(step.key, []).append(elapsed)
        tally.add(*(raised or check.verify(step, result, out, golden)))
    return total, wall


def _selects(span: str, label: str | None, name: str, lab: str) -> bool:
    hit = name.startswith(span) if span.endswith(".") else name == span
    return hit and label in (None, lab)


def layer_metrics(tracer, pass_s: float) -> dict[str, float]:
    selfs = tracer.self_times()
    return {metric: sum(t for (name, lab), t in selfs.items()
                        if _selects(span, label, name, lab)) / pass_s
            for metric, (span, label) in SELF_FRAC.items()}


def layer_counts(tracer) -> dict[str, int]:
    return {k: tracer.counts[k] for k in (*COUNTS, "density.piece_mass.hits")}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, steps, golden: dict, tracer) -> dict:
    """Passes for ``args.seconds`` seconds; with a tracer, untraced and traced
    passes alternate, starting untraced."""
    tally = Tally()
    plain, traced, plain_wall, fracs, counts = [], [], [], [], []
    os.makedirs(OUT_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    t_start = time.perf_counter()
    try:
        while True:
            if tracer is not None and len(traced) < len(plain):
                tracer.reset()
                tracer.install()
                try:
                    scaled, wall = run_pass(steps, golden, outdir, tally)
                finally:
                    tracer.uninstall()
                traced.append(scaled)
                fracs.append(layer_metrics(tracer, wall))
                counts.append(layer_counts(tracer))
            else:
                scaled, wall = run_pass(steps, golden, outdir, tally)
                plain.append(scaled)
                plain_wall.append(wall)
            if time.perf_counter() - t_start >= args.seconds and (tracer is None or traced):
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"tally": tally, "plain": plain, "traced": traced, "plain_wall": plain_wall,
            "fracs": fracs, "counts": counts}


def end_to_end(m: dict, setup: list[float]) -> dict:
    tally = m["tally"]
    return {
        "pass_s": _quartiles(m["plain"]),
        "setup_s": _quartiles(setup),
        "success_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(m: dict) -> dict:
    traced, plain = m["traced"], m["plain"]
    out = {
        "trace.pass_s": _quartiles(traced),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "wall.pass_s": _quartiles(m["plain_wall"]),
        "host.ref_s": _quartiles(m["tally"].ref_s),
    }
    for name in SELF_FRAC:
        out[name] = _quartiles([f[name] for f in m["fracs"]])
    last = m["counts"][-1]
    out.update((name, last[name]) for name in COUNTS)
    calls = last["density.piece_mass.calls"]
    out["density.piece_mass.hit_ratio"] = last["density.piece_mass.hits"] / calls if calls else 0.0
    return out


def run_workload(args) -> dict:
    units = declared_units(args.trace)
    setup, setup_wall = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    env.use_source_tree()
    import dyadicsq.cli  # noqa: F401  (import cost is in setup_s, not in the passes)

    with open(os.path.join(env.HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["entries"]
    steps = workloads.plan(args.workload, args.seed)
    tracer = Tracer(importlib.import_module(f"dyadicsq.{m}") for m in MODULES) \
        if args.trace else None
    m = measure(args, steps, golden, tracer)
    tally = m["tally"]
    stats = per_layer(m) if args.trace else end_to_end(m, setup)
    if set(stats) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(stats) ^ set(units))} "
                         "do not match BENCHMARK.json")
    values = {k: v["median"] if isinstance(v, dict) else v for k, v in stats.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plan": [s.key for s in steps],
        "provenance": env.provenance(),
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "failures": tally.messages,
        "step_s": {k: _quartiles(v) for k, v in tally.step_s.items()},
        "metrics": {k: {"value": values[k], "unit": units[k],
                        **({"stats": v} if isinstance(v, dict) else {})}
                    for k, v in stats.items()},
    }
    record["wall"] = {"pass_s": _quartiles(m["plain_wall"]), "ref_s": _quartiles(tally.ref_s),
                      **({"setup_s": _quartiles(setup_wall)} if setup_wall else {})}
    if tracer is not None:
        record["counts_repeat"] = all(c == m["counts"][-1] for c in m["counts"])
        tracer.save(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.npz"))
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for msg in tally.messages:
        print(f"# failure: {msg}", file=sys.stderr)
    for k, v in stats.items():
        extra = f"  (q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n {v['n']})" if isinstance(v, dict) else ""
        print(f"{args.workload:12s} {k:52s} {values[k]:.6g} {units[k]}{extra}")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in stats}}


def run_all(args) -> dict:
    """Every workload, untraced then traced, one child process at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                total["metrics"][f"{name}.{k}"] = v
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env.cap_blas_threads()
    if not os.path.isfile(os.path.join(env.SRC, "dyadicsq", "__init__.py")):
        print(f"perfbench: no dyadicsq source tree under {env.SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
