"""Correctness gate: CSV outputs against golden values, and closed-form oracles.

Golden values were produced at the commit that introduced the benchmark
(``make_golden.py``).  A golden entry is a subset of what the program must
produce: every golden column, metadata value and fit field must be present
and agree, and columns or metadata the program adds later are ignored.
Numeric cells agree within a relative 1e-12; nan matches nan.
"""

from __future__ import annotations

import math
import os

REL_TOL = 1e-12
SPINE_SLACK = 1e-11        # criterion 8: full-tree leaf >= spine bound - slack
AINFTY_REL = 0.01          # criterion 8: full-tree A_infty within 1% of radial
GROWTH_REL = 1e-3          # ainfty-growth rows: lower bound within 1e-3


def parse_csv(text: str) -> dict:
    """Split a dyadicsq CSV into metadata, header, rows and fit footers."""
    meta, header, rows, fits = {}, None, [], {}
    for line in text.splitlines():
        if line.startswith("#fit,"):
            fields = dict(f.split("=", 1) for f in line.split(",")[1:])
            fits[fields.pop("name")] = fields
        elif line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return {"meta": meta, "columns": header or [], "rows": rows, "fits": fits}


def _num(s: str) -> float | None:
    try:
        return float(s)
    except ValueError:
        return None


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _cells_agree(got: str, want: str) -> bool:
    g, w = _num(got), _num(want)
    if w is None:
        return got == want
    return g is not None and _close(g, w)


def compare_csv(got: dict, want: dict) -> list[str]:
    """Mismatches of a parsed CSV against its golden entry."""
    bad = []
    for key, value in want["meta"].items():
        if _num(value) is None:
            continue  # free text (tool version, notes) is not a numeric cell
        if key not in got["meta"] or not _cells_agree(got["meta"][key], value):
            bad.append(f"metadata {key}: {got['meta'].get(key)} != {value}")
    cols = got["columns"]
    missing = [c for c in want["columns"] if c not in cols]
    if missing:
        return bad + [f"missing columns {missing}"]
    if len(got["rows"]) != len(want["rows"]):
        return bad + [f"{len(got['rows'])} rows, golden has {len(want['rows'])}"]
    where = [cols.index(c) for c in want["columns"]]
    for i, (grow, wrow) in enumerate(zip(got["rows"], want["rows"])):
        for c, j, wv in zip(want["columns"], where, wrow):
            if j >= len(grow) or not _cells_agree(grow[j], wv):
                bad.append(f"row {i} {c}: {grow[j] if j < len(grow) else None} != {wv}")
    for name, fields in want["fits"].items():
        gf = got["fits"].get(name, {})
        for k, wv in fields.items():
            if k not in gf or not _cells_agree(gf[k], wv):
                bad.append(f"fit {name}.{k}: {gf.get(k)} != {wv}")
    return bad


def check_ainfty_growth(got: dict, j_lo: int, j_hi: int) -> list[str]:
    """Radial A_infty of x^-beta is exactly 1/(2 - 2^beta) (scale invariance):
    each row must be a lower bound of it within GROWTH_REL."""
    cols = got["columns"]
    need = ("beta", "n_max", "ainfty_w")
    if any(c not in cols for c in need):
        return [f"ainfty-growth columns {cols} lack one of {need}"]
    rows = got["rows"]
    if len(rows) != j_hi - j_lo + 1:
        return [f"ainfty-growth has {len(rows)} rows, expected {j_hi - j_lo + 1}"]
    ib, inm, iw = (cols.index(c) for c in need)
    bad = []
    for j, row in zip(range(j_lo, j_hi + 1), rows):
        beta = 1.0 - 2.0 ** -j
        exact = 1.0 / (2.0 - 2.0 ** beta)
        b, nm, aw = (_num(row[i]) for i in (ib, inm, iw))
        if b is None or not _close(b, beta):
            bad.append(f"j={j}: beta {row[ib]} != {beta!r}")
        if nm is None or nm != math.ceil(16.0 / (1.0 - beta)):
            bad.append(f"j={j}: n_max {row[inm]}")
        if aw is None or not (exact * (1.0 - GROWTH_REL) <= aw <= exact * (1.0 + REL_TOL)):
            bad.append(f"j={j}: ainfty_w {row[iw]} is not within {GROWTH_REL} below {exact!r}")
    return bad


def fingerprint(values) -> dict:
    """A golden-sized digest of a leaf vector: moments, extremes and every
    64th value."""
    import numpy as np

    v = np.asarray(values, dtype=float)
    return {"size": int(v.size), "sum": float(v.sum()), "sumsq": float(v @ v),
            "min": float(v.min()), "max": float(v.max()),
            "sample": [float(x) for x in v[::64]]}


def compare_fingerprint(got: dict, want: dict) -> list[str]:
    bad = []
    for k in ("size", "sum", "sumsq", "min", "max"):
        if not _close(got[k], want[k]):
            bad.append(f"{k}: {got[k]!r} != {want[k]!r}")
    if len(got["sample"]) != len(want["sample"]) or not all(
            _close(a, b) for a, b in zip(got["sample"], want["sample"])):
        bad.append("sampled leaf values differ")
    return bad


def check_spine_bound(leaf, s, depth: int) -> list[str]:
    """Criterion 8: on each shell J_n the full-tree square function is at
    least the spine bound s[n]."""
    bad = []
    for n in range(1, depth + 1):
        lo, hi = 2 ** (depth - n), 2 ** (depth - n + 1)
        if not bool((leaf[lo:hi] >= float(s[n]) - SPINE_SLACK).all()):
            bad.append(f"full square function below the spine bound on J_{n}")
    return bad


def check_ainfty_full_tree(value: float, beta: float) -> list[str]:
    """Criterion 8: the full-tree A_infty of x^-beta agrees with the radial
    (exact) value 1/(2 - 2^beta) within AINFTY_REL."""
    exact = 1.0 / (2.0 - 2.0 ** beta)
    if abs(value - exact) / exact < AINFTY_REL:
        return []
    return [f"full-tree A_infty {value!r} vs radial {exact!r}"]


def verify(step, result, out_path: str, golden: dict) -> tuple[str, list[str]]:
    """Judge one experiment: ``ok``, ``error`` (wrong exit code or exception,
    no output to judge) or ``wrong`` (output values fail the gate)."""
    want = golden.get(step.key)
    kind = step.exp.kind
    if kind == "cli":
        expected = 0 if step.exp.oracle else (want or {}).get("exit")
        if expected is None:
            return "wrong", [f"{step.key}: no golden entry"]
        if result != expected:
            return "error", [f"{step.key}: exit {result}, expected {expected}"]
        if result != 0:
            return "ok", []
        with open(out_path, encoding="utf-8") as fh:
            got = parse_csv(fh.read())
        os.remove(out_path)
        if step.exp.oracle == "ainfty_growth":
            bad = check_ainfty_growth(got, *step.exp.params["j"])
        else:
            bad = compare_csv(got, want["csv"])
    elif want is None:
        return "wrong", [f"{step.key}: no golden entry"]
    elif kind == "fsf":
        leaf, s = result
        bad = check_spine_bound(leaf, s, len(s) - 1)
        bad += compare_fingerprint(fingerprint(leaf), want["leaf"])
    else:
        bad = check_ainfty_full_tree(result, step.exp.params["beta"])
        if not _close(result, want["value"]):
            bad.append(f"full-tree A_infty {result!r} != golden {want['value']!r}")
    return ("wrong" if bad else "ok"), [f"{step.key}: {m}" for m in bad]
