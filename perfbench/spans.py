"""Spans and counters recorded at the layer boundaries of dyadicsq.

The layers are the package's modules.  ``Tracer.install`` replaces every
public function and method of each module by a wrapper.  The wrapper records
a span (name, label, parent, start, end) only when the call enters the
module from outside it, from another module or from the benchmark; a call
inside the module runs unrecorded, so its time stays with the call that
entered the layer.  A span's self time is its duration minus that of its
child spans, i.e. the time spent in its own layer on behalf of that call.

A function is replaced wherever it is bound: in its defining module, in every
module that re-binds it with ``from .x import y``, and in module-level dicts
that hold it (``experiments._SCALING_FAMILIES``).  ``uninstall`` restores the
originals, so traced and untraced passes can alternate in one process.

Spans are kept in memory, in flat arrays, with their parent ids.  Counts are
computed from the arguments and results of the recorded calls, never timed.
``PiecewiseDyadic.piece_mass`` gets a counter of every call but no span: one
``direct_sum`` depth-14 run makes about 2*10^6 calls.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from collections import Counter

#: Span names of functions, where they differ from "<module>.<function>".
_RENAME = {
    "families.lerner_family": "families.build",
    "families.alternating_family": "families.build",
    "families.power_pair": "families.build",
    "families.lai_treil_family": "families.build",
    "families.direct_sum_family": "families.build",
}


#: Functions that are a layer of their own rather than part of their module:
#: CSV output is timed apart from CLI dispatch.
_OWN_LAYER = {"cli.emit_csv"}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _grid_pairs(args, kwargs) -> int:
    """Grid pairs ``interval_scan_joint_ap`` visits, from its arguments (the
    loop bounds of ``_pair_scan_max``)."""
    w = _arg(args, kwargs, 0, "w")
    span, h = _arg(args, kwargs, 3, "span"), _arg(args, kwargs, 4, "grid_step")
    periodic = hasattr(w, "cumulative")
    n = round((2 * span if periodic else 1) / h)
    rows = min(round(2 / h), n) if periodic else n
    return rows * (rows + 1) // 2 + (n - rows) * rows


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


#: span name -> (counter, increment from (args, kwargs, result, exception)).
_COUNTS = {
    "density.spine_averages": ("density.spine_averages.shells",
                               lambda a, k, r, e: _arg(a, k, 1, "n_max")),
    "density.primitive": ("density.primitive.points",
                          lambda a, k, r, e: _size(_arg(a, k, 1, "t"))),
    "density.integrate": ("density.integrate.calls", lambda a, k, r, e: 1),
    "density.cumulative": ("density.cumulative.points",
                           lambda a, k, r, e: _size(_arg(a, k, 1, "xs"))),
    "squarefn.level_averages": ("squarefn.level_averages.leaves",
                                lambda a, k, r, e: 2 ** _arg(a, k, 1, "depth")),
    "squarefn.weighted_snorm": ("squarefn.weighted_snorm.uncertified",
                                lambda a, k, r, e: type(e).__name__ == "TailNotCertifiedError"),
    "characteristics.interval_scan_joint_ap": ("characteristics.interval_scan_joint_ap.grid_pairs",
                                               lambda a, k, r, e: _grid_pairs(a, k)),
    "cli.emit_csv": ("cli.emit_csv.bytes",
                     lambda a, k, r, e: 0 if e else os.path.getsize(_arg(a, k, 0, "path"))),
    "cli.run": ("cli.exit_nonzero", lambda a, k, r, e: e is not None or r != 0),
}


def _dyadic_ainfty_mode(args, kwargs) -> str:
    return args[2] if len(args) > 2 else kwargs.get("mode", "full_tree")


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.keys: list[tuple[str, str]] = []    # key id -> (span name, label)
        self._key_ids: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counts."""
        self.parent = array("q")
        self.key = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._layers = [""]

    def _key_id(self, name: str, label: str) -> int:
        kid = self._key_ids.get((name, label))
        if kid is None:
            kid = self._key_ids[(name, label)] = len(self.keys)
            self.keys.append((name, label))
        return kid

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, method: bool):
        tracer = self
        layer = name if name in _OWN_LAYER else name.split(".", 1)[0]
        count = _COUNTS.get(name)
        perf = time.perf_counter
        fixed = None if method else self._key_id(name, "")
        ainfty = name == "characteristics.dyadic_ainfty"

        def wrapper(*args, **kwargs):
            layers = tracer._layers
            if layers[-1] == layer:  # already inside this layer
                return fn(*args, **kwargs)
            if method:
                kid = tracer._key_id(name, type(args[0]).__name__)
            elif ainfty:
                kid = tracer._key_id(name, _dyadic_ainfty_mode(args, kwargs))
            else:
                kid = fixed
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.parent.append(stack[-1])
            tracer.key.append(kid)
            tracer.end.append(0.0)
            stack.append(sid)
            layers.append(layer)
            tracer.start.append(perf())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.end[sid] = perf()
                stack.pop()
                layers.pop()
                if count is not None:
                    tracer.counts[count[0]] += int(count[1](args, kwargs, result, exc))

        wrapper.__wrapped__ = fn
        return wrapper

    def _piece_mass_counter(self, fn):
        tracer = self

        def wrapper(obj, n):
            c = tracer.counts
            c["density.piece_mass.calls"] += 1
            c["density.piece_mass.hits"] += n in obj._masses
            return fn(obj, n)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        replaced: dict[int, object] = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = _RENAME.get(f"{short}.{attr}", f"{short}.{attr}")
                    replaced[id(obj)] = self._span_wrapper(obj, name, method=False)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        if (short, meth) == ("density", "piece_mass"):
                            wrapped = self._piece_mass_counter(fn)
                        else:
                            wrapped = self._span_wrapper(fn, f"{short}.{meth}", method=True)
                        self._patch(obj, meth, fn, wrapped, is_dict=False)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, obj, replaced[id(obj)], is_dict=False)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            self._patch(obj, key, val, replaced[id(val)], is_dict=True)

    def _patch(self, container, key, original, wrapped, is_dict: bool) -> None:
        if is_dict:
            container[key] = wrapped
        else:
            setattr(container, key, wrapped)
        self._patches.append((container, key, original, is_dict))

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time per (span name, label): span time minus child-span time."""
        import numpy as np

        if self._stack != [-1]:
            raise RuntimeError("self times asked for while spans are open")
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        key = np.frombuffer(self.key, dtype=np.int64)
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        per_key = np.bincount(key, weights=dur - child, minlength=len(self.keys))
        return {k: float(v) for k, v in zip(self.keys, per_key)}

    def save(self, path: str) -> None:
        """Write the recorded spans (one traced pass) as a compressed npz."""
        import numpy as np

        np.savez_compressed(
            path, parent=np.frombuffer(self.parent, dtype=np.int64),
            key=np.frombuffer(self.key, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            names=np.array([f"{n}|{lab}" for n, lab in self.keys]))
