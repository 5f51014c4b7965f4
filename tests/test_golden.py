"""The benchmark's golden gate as a test: every perfbench step at every p,
judged by ``perfbench/check.py`` against ``perfbench/golden.json`` (rel 1e-12).

A refactor that moves a cell (the ``direct_sum`` depth-14 cells are the most
sensitive) fails here before the benchmark runs.
"""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

_PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  os.path.join(_PERFBENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


workloads, check = _load("workloads"), _load("check")
with open(os.path.join(_PERFBENCH, "golden.json"), encoding="utf-8") as fh:
    _GOLDEN = json.load(fh)["entries"]

_OVERFLOW = pytest.mark.xfail(
    strict=True, reason="Power spine averages overflow extended precision from j = 11 "
                        "(n_max 32768): ainfty-growth j=3..12 exits 3")


@pytest.mark.parametrize("step", [
    pytest.param(step, id=step.key,
                 marks=[_OVERFLOW] if step.exp.id == "ainfty_growth" else [])
    for _, step in workloads.all_steps()])
def test_the_golden_gate_passes(tmp_path, step):
    with np.errstate(over="ignore", invalid="ignore"):
        result = workloads.run_step(step, str(tmp_path / "out.csv"))
    verdict, messages = check.verify(step, result, str(tmp_path / "out.csv"), _GOLDEN)
    assert verdict == "ok", messages
