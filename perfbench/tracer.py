"""Per-layer tracing installed from the benchmark's side.

The wrappers replace the public functions and methods of the chevalley
modules for the length of a traced run.  Because the modules bind each
other's names with ``from .x import y``, every ``chevalley.*`` namespace that
holds a wrapped function gets the wrapper, not only the defining module.

Two kinds of boundary are recorded:

* spans (name, start, end, parent) for calls that do real work, kept in
  memory and written out at the end;
* counters with accumulated time for the high-frequency boundaries (matrix
  entries, weight lookups, ring element and ideal operations, root-pattern
  updates), where one span per call would cost more than the call.

Both kinds keep a stack, so a layer's self time is its duration minus the
time spent in wrapped calls beneath it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, layer): module-level functions, traced as spans.
FUNCTIONS = [
    ("chevalley.roots", "build_case", "roots.build_case"),
    ("chevalley.weights", "build_weights", "weights.build_weights"),
    ("chevalley.rep", "rep_tables", "rep.rep_tables"),
    ("chevalley.forms", "bilinear_form_signs", "forms.bilinear_form_signs"),
    ("chevalley.forms", "build_pi_form", "forms.build_pi_form"),
    ("chevalley.analysis", "in_normalizer", "analysis.in_normalizer"),
    ("chevalley.analysis", "in_G_sigma", "analysis.in_G_sigma"),
    ("chevalley.analysis", "transporter_check", "analysis.transporter_check"),
    ("chevalley.analysis", "corner_ideals", "analysis.corner_ideals"),
    ("chevalley.analysis", "root_type_failures", "analysis.root_type_failures"),
    ("chevalley.analysis", "chevalley_matsumoto", "analysis.chevalley_matsumoto"),
    ("chevalley.analysis", "replay_trace", "analysis.replay_trace"),
    ("chevalley.analysis", "extract_from_parabolic", "analysis.extract"),
    ("chevalley.analysis", "extract_from_weight_stabilizer", "analysis.extract"),
    ("chevalley.analysis", "extract_from_nilpotent", "analysis.extract"),
    ("chevalley.cli", "main", "cli.main"),
]

# (module, class, attribute, layer, span?): methods; counters where span is False.
METHODS = [
    ("chevalley.matrices", "RMat", "__mul__", "matrices.mul", True),
    ("chevalley.matrices", "RMat", "inv", "matrices.inv", True),
    ("chevalley.matrices", "RMat", "entry", "matrices.entry", False),
    ("chevalley.matrices", "RMat", "apply_x_right", "matrices.apply_x", False),
    ("chevalley.matrices", "RMat", "apply_x_left", "matrices.apply_x", False),
    ("chevalley.rep", "Representation", "element_from_word", "rep.element_from_word", True),
    ("chevalley.rep", "GroupElement", "__mul__", "rep.group_mul", True),
    ("chevalley.rep", "GroupElement", "inverse", "rep.inverse", True),
    ("chevalley.forms", "QuadraticForm", "evaluate", "forms.pi_form_vanishes", True),
] + [
    ("chevalley.weights", "WeightModule", name, "weights.lookup", False)
    for name in ("idx", "index", "shift", "distance", "component_of", "root_between")
] + [
    ("chevalley.rings", "RingElem", name, "rings.elem", False)
    for name in ("__add__", "__neg__", "__sub__", "__mul__", "inv", "is_zero", "is_unit")
] + [
    ("chevalley.rings", "Ideal", name, "rings.ideal", False)
    for name in (
        "from_elems", "__add__", "__mul__", "__and__", "square", "contains",
        "__le__", "__contains__", "is_zero", "is_unit_ideal",
    )
]

MUL_DIMS = (27, 56, 128)


def _mul_kernels(spec) -> int:
    """n x n integer matmuls one RMat product runs: one per zmod or int
    factor, k(k+1)/2 for a poly factor F_p[t]/(t^k)."""
    return sum(f.k * (f.k + 1) // 2 if f.kind == "poly" else 1 for f in spec.factors)


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []  # (id, parent id, layer, start, end)
        self._stack: list[list] = []  # [child time, id of the nearest span]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._last_exc = None
        for _, _, layer in FUNCTIONS:
            self._stat(layer)
        for _, _, _, layer, _ in METHODS:
            self._stat(layer)
        for n in MUL_DIMS:
            self._stat(f"matrices.mul.n{n}").update(ops_computed=0, bytes_computed=0)
        self.stats["analysis.exceptions"] = {"total": 0}
        self.stats["analysis.extract"].update(attempts=0, witnesses=0)
        self.stats["rep.element_from_word"]["atoms"] = 0

    def _stat(self, layer: str) -> dict:
        if layer not in self.stats:
            self.stats[layer] = {"calls": 0, "self_s": 0.0}
        return self.stats[layer]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer: str, span: bool, after=None):
        stat = self._stat(layer)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        is_analysis = layer.startswith("analysis.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_analysis and exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.stats["analysis.exceptions"]["total"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat["calls"] += 1
                stat["self_s"] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans.append((sid, parent, layer, t0, t1))
            if after is not None:
                after(args, result, dur - frame[0])
            return result

        return wrapper

    def _after_mul(self, args, result, self_s):
        mat = args[0]
        n = mat.n
        if n not in MUL_DIMS:
            return
        stat = self.stats[f"matrices.mul.n{n}"]
        kernels = _mul_kernels(mat.spec)
        stat["calls"] += 1
        stat["self_s"] += self_s
        # 2 n^3 multiply-adds per kernel; two int64/float64 operands read and
        # one result written.  Computed from shapes, not measured.
        stat["ops_computed"] += kernels * 2 * n**3
        stat["bytes_computed"] += kernels * 3 * n * n * 8

    def _after_word(self, args, result, self_s):
        self.stats["rep.element_from_word"]["atoms"] += len(args[1])

    def _after_extract(self, args, result, self_s):
        stat = self.stats["analysis.extract"]
        stat["attempts"] += 1
        if type(result).__name__ == "Witness":
            stat["witnesses"] += 1

    # -- install / remove ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("chevalley") and m]
        after = {
            "matrices.mul": self._after_mul,
            "rep.element_from_word": self._after_word,
            "analysis.extract": self._after_extract,
        }
        for modname, fname, layer in FUNCTIONS:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, layer, True, after.get(layer))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for modname, clsname, attr, layer, span in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            hook = after.get(layer)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, span, hook))
            elif isinstance(raw, property):
                new = property(self._wrap(raw.fget, layer, span, hook))
            else:
                new = self._wrap(raw, layer, span, hook)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------------

    def flat(self) -> dict:
        """Every recorded counter as ``layer.field``; mul is reported per
        dimension, so its all-dimension aggregate is left out."""
        out = {}
        for layer, fields in self.stats.items():
            if layer == "matrices.mul":
                continue
            for field, value in fields.items():
                out[f"{layer}.{field}"] = value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, layer, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, layer, t0, t1]) + "\n")
