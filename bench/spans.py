"""Span tracing of akzeta's layers from outside the package.

``install`` wraps each function named in ``LAYERS`` and rebinds the wrapper
in every loaded akzeta namespace that binds the original by name (for
example ``identities`` binds ``zeta_em`` and all the ``eval_*`` functions),
so calls made through any of those names are recorded.  Spans are kept in
memory as ``[name, start, end, parent, op, extra]`` lists and written out
once, when the traced process ends.  ``layer_metrics`` turns span lists into
per-layer call counts, self times and work counts.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> wrapped functions; the layers, top (cli) to bottom
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "identities": ("verify",),
    "evaluator": ("eval_hurwitz_mzv", "eval_t", "eval_li", "eval_ak_lhs",
                  "eval_ak_rhs", "eval_euler_transform", "eval_prop2_series",
                  "_dp_nested", "_outer_arrays"),
    "logasym": ("nested_tail_sum", "ztail", "beta_model", "harmonic_model",
                "bell_p_models"),
    "numerics": ("zeta_em", "clausen", "accelerate_alternating"),
    "harmonic_bell": ("harmonic_table", "bell_modified", "d_operator"),
    "powerseries": ("ak_bernoulli_polys", "series_inverse"),
    "combinatorics": ("dual", "m_coeff"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _dp_elements(args, out):
    weights = args[0]
    return len(weights) * len(weights[0])          # q * N


def _outer_elements(args, out):
    N, m = args[0], args[1]
    return N * (m + m * (m + 1) // 2)              # H columns + Bell products


def _cutoff(args, out):
    return out.cutoff_used                          # Evaluation.cutoff_used


# span name -> extra(args, result), stored as the span's sixth field
_EXTRA = {"evaluator._dp_nested": _dp_elements,
          "evaluator._outer_arrays": _outer_elements,
          "numerics.accelerate_alternating": _cutoff}
_EXTRA.update({f"evaluator.{fn}": _cutoff for fn in LAYERS["evaluator"]
               if fn.startswith("eval_")})


class Recorder:
    """In-memory span store; ``op`` is the id of the operation under way."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn):
        extra = _EXTRA.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, out)
            return out
        return traced

    def dump(self, path: str, **fields) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **fields}, fh)


def install(recorder: Recorder) -> int:
    """Wrap every layer function of the loaded akzeta modules; returns the
    number of namespace bindings replaced."""
    namespaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "akzeta" or name.startswith("akzeta."))]
    rebound = 0
    for mod, fns in LAYERS.items():
        module = sys.modules.get(f"akzeta.{mod}")
        if module is None:
            continue
        for fn in fns:
            orig = getattr(module, fn)
            wrapper = recorder.wrap(f"{mod}.{fn}", orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)
                        rebound += 1
    return rebound


# ------------------------------------------------------------ aggregation

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def layer_metrics(traces: list[list]) -> dict[str, float]:
    """Per-layer metrics over one or more span lists (one per process)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    mzv = mzv_miss = 0
    dp_el = outer_el = alt_terms = 0
    cutoffs: list[int] = []
    for spans in traces:
        has_dp_child = set()
        for name, start, end, parent, op, extra in spans:
            if name == "evaluator._dp_nested" and parent >= 0:
                has_dp_child.add(parent)
        for (name, start, end, parent, op, extra), st in zip(spans, self_times(spans)):
            calls[name] += 1
            self_s[name] += st
            if name == "evaluator._dp_nested":
                dp_el += extra
            elif name == "evaluator._outer_arrays":
                outer_el += extra
            elif name == "numerics.accelerate_alternating":
                alt_terms += extra or 0
            elif name.startswith("evaluator.eval_") and extra is not None:
                cutoffs.append(extra)
        for i, span in enumerate(spans):
            if span[0] == "evaluator.eval_hurwitz_mzv":
                mzv += 1
                mzv_miss += i in has_dp_child
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["evaluator.mzv_cache.hit_ratio"] = (mzv - mzv_miss) / mzv if mzv else 0.0
    out["evaluator._dp_nested.elements"] = dp_el
    out["evaluator._outer_arrays.elements"] = outer_el
    out["evaluator.cutoff_mean"] = sum(cutoffs) / len(cutoffs) if cutoffs else 0.0
    out["numerics.accelerate_alternating.terms"] = alt_terms
    out["trace.self_sum_s"] = sum(self_s.values())
    return out
