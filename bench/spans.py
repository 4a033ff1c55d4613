"""Per-layer tracing from outside the library.

A :class:`Tracer` wraps each public function of the nine library
modules, in every ``doublesine`` namespace that holds it (so
``convergence.rect_sum_direct`` and ``cli.builtin`` are caught as well as
the package-level names), and wraps the evaluators of the sequence
objects handed to the library.  Every wrapped call records a span:
layer, function, start, end and the index of the enclosing span.  Spans
stay in memory in compact arrays for one pass; a layer's self time is
its spans' durations minus the time their direct child spans cover.

Counts are taken at the same boundaries from the calls' arguments and
results; the library itself is not edited.  One hook is private:
``convergence._probe_arrays`` is counted (not timed) because the
rectangle lattice a probe builds is visible nowhere else.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("sequences", "differences", "majorants", "membership", "kernels",
          "summing", "convergence", "cli", "reports")

# Public majorant functions that evaluate block sums or sup scans.
SCAN_FUNCTIONS = frozenset({
    "block_sum_row", "block_sum_col", "block_sum_double", "single_block_sum",
    "single_window_sum", "single_sup_scan", "double_sup_scan",
})
RECT_FUNCTIONS = frozenset({"rect_sum_direct", "rect_sum_parts", "rect_sum_separable"})
SEQUENCE_CONSTRUCTORS = frozenset({
    "builtin", "separable", "from_table", "single_from_values", "scale",
    "from_expression", "single_from_expression", "parse_sequence_file",
})

# Every per-layer metric, with its unit, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("majorants.self_s", "s"),
    ("majorants.calls", "count"),
    ("majorants.scans", "count"),
    ("majorants.certified_ratio", "ratio"),
    ("majorants.scan_results", "count"),
    ("summing.ksum_calls", "count"),
    ("summing.values_reduced", "count"),
    ("summing.self_s", "s"),
    ("sequences.eval_calls", "count"),
    ("sequences.coeffs_evaluated", "count"),
    ("sequences.self_s", "s"),
    ("kernels.rect_sums", "count"),
    ("kernels.cells", "count"),
    ("kernels.self_s", "s"),
    ("convergence.calls", "count"),
    ("convergence.probe_rects", "count"),
    ("convergence.self_s", "s"),
    ("membership.ratio_rows", "count"),
    ("membership.self_s", "s"),
    ("differences.calls", "count"),
    ("differences.self_s", "s"),
    ("cli.jobs", "count"),
    ("cli.self_s", "s"),
    ("reports.bytes_written", "B"),
    ("reports.self_s", "s"),
)


class Tracer:
    """Span recorder for one pass.  Use as a context manager around the pass."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.func = array("H")       # index into self.names
        self.names: list[tuple[str, str]] = []   # (layer, function)
        self._name_ids: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _name_id(self, layer: str, func: str) -> int:
        key = (layer, func)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _wrap(self, layer: str, func: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` counts work
        and may return a replacement result.  A direct recursive call of the
        same function is not a new span."""
        fid = self._name_id(layer, func)
        stack, starts, ends, parents, funcs = (self._stack, self.start, self.end,
                                                self.parent, self.func)

        def wrapper(*args, **kwargs):
            if stack and funcs[stack[-1]] == fid:
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            funcs.append(fid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                replaced = after(args, kwargs, result)
                if replaced is not None:
                    return replaced
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", func)
        return wrapper

    def instrument(self, seq):
        """Copy of a sequence whose evaluators (and its factors') record spans."""
        from doublesine.sequences import CoefficientSequence, SingleSequence
        if isinstance(seq, dict):
            return {k: self.instrument(v) for k, v in seq.items()}
        if not isinstance(seq, (CoefficientSequence, SingleSequence)):
            return seq
        if getattr(seq.eval, "_bench_tracer", None) is self:
            return seq

        def count(args, kwargs, result):
            self.counts["sequences.eval_calls"] += 1
            self.counts["sequences.coeffs_evaluated"] += int(np.size(result))

        wrapped = self._wrap("sequences", "eval", seq.eval, count)
        wrapped._bench_tracer = self
        if isinstance(seq, SingleSequence):
            return dataclasses.replace(seq, eval=wrapped)
        parts = seq.separable_parts
        if parts is not None:
            parts = tuple(self.instrument(p) for p in parts)
        return dataclasses.replace(seq, eval=wrapped, separable_parts=parts)

    # --- counting hooks ------------------------------------------------------

    def _count(self, layer: str, func: str, args, kwargs, result):
        """Count work at a layer boundary.  A sequence constructor's result
        is replaced by an instrumented copy."""
        counts = self.counts
        if layer == "sequences":
            return self.instrument(result) if func in SEQUENCE_CONSTRUCTORS else None
        if layer == "majorants":
            counts["majorants.calls"] += 1
            counts["majorants.scans"] += func in SCAN_FUNCTIONS
            # Unbounded sup scans are judged where the caller receives the
            # value; such a result carries a tail bound or is truncated.
            outermost = not self._stack or self.names[self.func[self._stack[-1]]][0] != layer
            if outermost and hasattr(result, "truncated") and (
                    result.truncated or result.tail_bound is not None):
                counts["majorants.scan_results"] += 1
                counts["majorants.certified"] += not result.truncated
        elif layer == "summing":
            counts["summing.ksum_calls"] += func == "ksum"
            counts["summing.values_reduced"] += int(np.size(args[0] if args else
                                                            kwargs["values"]))
        elif layer == "kernels" and func in RECT_FUNCTIONS:
            rect = args[1] if len(args) > 1 else kwargs["rect"]
            counts["kernels.rect_sums"] += 1
            counts["kernels.cells"] += (rect.M - rect.m + 1) * (rect.N - rect.n + 1)
        elif layer == "membership" and hasattr(result, "rows"):
            counts["membership.ratio_rows"] += len(result.rows)
        elif layer in ("convergence", "differences"):
            counts[f"{layer}.calls"] += 1
        elif layer == "cli":
            counts["cli.jobs"] += 1
        elif layer == "reports" and func in ("write_json", "write_csv"):
            counts["reports.bytes_written"] += os.path.getsize(args[0] if args
                                                               else kwargs["path"])
        return None

    # --- installation --------------------------------------------------------

    def _set(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        """Patch every loaded ``doublesine`` namespace; undone by :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "doublesine"
                                            or name.startswith("doublesine."))]
        for layer in LAYERS:
            module = sys.modules.get(f"doublesine.{layer}")
            if module is None:
                continue
            for func in module.__all__:
                original = getattr(module, func)
                if isinstance(original, type) or not callable(original):
                    continue
                wrapper = self._wrap(layer, func, original,
                                     functools.partial(self._count, layer, func))
                for ns in namespaces:
                    if getattr(ns, func, None) is original:
                        self._set(ns, func, wrapper)
        convergence = sys.modules.get("doublesine.convergence")
        if convergence is not None:
            probe_arrays = convergence._probe_arrays

            def counted_probe_arrays(probe, *args, **kwargs):
                arrays = probe_arrays(probe, *args, **kwargs)
                self.counts["convergence.probe_rects"] += int(arrays[0].size) * len(probe.xy_grid)
                return arrays

            self._set(convergence, "_probe_arrays", counted_probe_arrays)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results -------------------------------------------------------------

    def arrays(self):
        """(start, end, parent, layer index) as numpy arrays."""
        layer_of = np.array([LAYERS.index(layer) for layer, _ in self.names] or [0],
                            dtype=np.int64)
        func = np.frombuffer(self.func, dtype=np.uint16).astype(np.int64)
        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int64),
                layer_of[func])

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus direct child durations."""
        start, end, parent, layer = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        totals = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        return {name: float(totals[i]) for i, name in enumerate(LAYERS)}

    def nesting_violations(self, slack: float = 1e-9) -> list[str]:
        """Spans that start before or end after their parent, or whose
        direct children together last longer than they do."""
        start, end, parent, _ = self.arrays()
        out = []
        idx = np.nonzero(parent >= 0)[0]
        p = parent[idx]
        bad = idx[(start[idx] < start[p]) | (end[idx] > end[p])]
        out += [f"span {i} ({'.'.join(self.names[self.func[i]])}) outside its parent"
                for i in bad[:10]]
        dur = end - start
        child = np.zeros(len(dur))
        np.add.at(child, p, dur[idx])
        over = np.nonzero(child > dur + slack)[0]
        out += [f"children of span {i} ({'.'.join(self.names[self.func[i]])}) "
                f"last {child[i]:.3g} s > {dur[i]:.3g} s" for i in over[:10]]
        if self._stack:
            out.append(f"{len(self._stack)} span(s) still open")
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of :data:`LAYER_METRICS` for this pass."""
        selfs = self.self_times()
        out = {}
        for name, _unit in LAYER_METRICS:
            layer, metric = name.split(".", 1)
            if metric == "self_s":
                out[name] = selfs[layer]
            elif name == "majorants.certified_ratio":
                base = self.counts["majorants.scan_results"]
                out[name] = self.counts["majorants.certified"] / base if base else 0.0
            else:
                out[name] = float(self.counts[name])
        return out
