"""Per-layer spans recorded from outside the program.

The traced run replaces module globals of ``algseries`` with span
recorders, so every call from one module into another's public functions
is timed.  A span holds its layer name, start, end, parent span and
request id; spans stay in memory until the run ends.  A layer's self time
is its span minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


def _budget_used(args, kwargs):
    budget = kwargs.get("budget")
    return budget.used if budget is not None else None


def _nodes(before, args, kwargs, result):
    if before is None:
        return {}
    return {"nodes": kwargs["budget"].used - before}


def _iterations(before, args, kwargs, result):
    return {"iterations": result.iterations}


def _out_len(before, args, kwargs, result):
    return {"out_len": len(result)}


def _out_bytes(before, args, kwargs, result):
    return {"out_bytes": len(result.encode("utf-8"))}


def _certified(before, args, kwargs, result):
    return {"certified": 1 if result else 0}


# (module, global name, layer, counter before the call, counter after it)
_NODES = (_budget_used, _nodes)
PATCHES = [
    ("cli", "newton_lift", "newton.newton_lift", None, _iterations),
    ("cli", "henselize", "henselization.henselize", None, None),
    ("cli", "branch_data", "henselization.branch_data", None, None),
    ("cli", "order_sequence", "henselization.order_sequence", None, None),
    ("cli", "coefficient_after_branch", "henselization.coefficient_after_branch", None, None),
    ("cli", "fs_coefficient", "flajolet_soria.fs_coefficient", *_NODES),
    ("cli", "closed_form_coefficient", "flajolet_soria.closed_form_coefficient", *_NODES),
    ("cli", "reconstruct", "wilczynski.reconstruct", None, None),
    ("cli", "certify", "wilczynski.certify", None, _certified),
    ("cli", "full_support", "support", None, None),
    ("cli", "load_json", "serialize", None, None),
    ("cli", "poly_from_obj", "serialize", None, None),
    ("cli", "series_from_obj", "serialize", None, None),
    ("cli", "shape_from_obj", "serialize", None, None),
    ("cli", "poly_to_obj", "serialize", None, None),
    ("cli", "series_to_obj", "serialize", None, None),
    ("cli", "rat_to_str", "serialize", None, None),
    ("cli", "dumps", "serialize", None, _out_bytes),
    ("newton", "eval_at_poly", "bivar.eval_at_poly", None, _out_len),
    ("newton", "series_div", "series.series_div", None, None),
    ("newton", "branch_data", "henselization.branch_data", None, None),
    ("newton", "order_sequence", "henselization.order_sequence", None, None),
    ("henselization", "branch_data", "henselization.branch_data", None, None),
    ("henselization", "eval_at_poly", "bivar.eval_at_poly", None, _out_len),
    ("henselization", "substitute_tail", "bivar.substitute", None, None),
    ("henselization", "substitute_shift", "bivar.substitute", None, None),
    ("wilczynski", "build_slab", "wilczynski.build_slab", None, None),
    ("wilczynski", "certify", "wilczynski.certify", None, _certified),
    ("wilczynski", "series_pow", "series.series_pow", None, None),
    ("wilczynski", "eval_at_poly", "bivar.eval_at_poly", None, _out_len),
]

# layers reported even when a workload never enters them, so that every
# traced run emits the same metric names
LAYERS = sorted({layer for _, _, layer, _, _ in PATCHES} | {"cli"})
COUNTERS = {
    "flajolet_soria.closed_form_coefficient": ("nodes",),
    "flajolet_soria.fs_coefficient": ("nodes",),
    "newton.newton_lift": ("iterations",),
    "bivar.eval_at_poly": ("out_len",),
    "serialize": ("out_bytes",),
    "wilczynski.certify": ("certified",),
}


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory.

    The span recorders are built once; ``active()`` puts them in place of
    the module globals for the duration of a traced request only.
    """

    def __init__(self):
        # [layer, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request = 0
        self._stack: list[int] = []
        self._patches = []
        for module, name, layer, before, after in PATCHES:
            mod = sys.modules[f"algseries.{module}"]
            original = getattr(mod, name)
            self._patches.append((mod, name, original, self.wrap(layer, original, before, after)))
        self._main = self.wrap("cli", sys.modules["algseries.cli"].main)

    def wrap(self, layer: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.spans)
            entry = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
            self.spans.append(entry)
            self._stack.append(idx)
            state = before(args, kwargs) if before else None
            entry[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                self._stack.pop()
            if after:
                for name, value in after(state, args, kwargs, result).items():
                    self.counts[layer][name] += value
            return result

        return span

    def main(self, argv):
        """``cli.main`` as one traced request."""
        self.request += 1
        return self._main(argv)

    @contextlib.contextmanager
    def active(self):
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, original, _ in self._patches:
                setattr(mod, name, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, self time in ms and counters per layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"calls": 0, "self_ms": 0.0, **dict.fromkeys(COUNTERS.get(layer, ()), 0)}
               for layer in LAYERS}
        for (layer, start, end, _, _), covered in zip(self.spans, child):
            row = out[layer]
            row["calls"] += 1
            row["self_ms"] += (end - start - covered) * 1000.0
        for layer, counters in self.counts.items():
            out[layer].update(counters)
        return out
