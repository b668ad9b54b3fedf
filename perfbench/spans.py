"""Outside-in tracing of the ``nle`` layers from the benchmark's own code.

``Tracer.install`` wraps each layer's public functions in every ``nle``
module namespace that holds them (``hermitian_from_coeffs`` is reached both
as ``nle.gates.hermitian_from_coeffs`` and as ``nle.quantify``'s import), the
validation and check methods of ``PureState``/``Ensemble``, and the
``numpy.linalg`` kernels the program calls. Each wrapped call records a span
(name, start, end, parent span, op id) in memory; ``uninstall`` restores the
originals. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

import numpy as np

LU_MODES = ("ensemble-lu", "per-state-lu")

# (module, attribute, span name); quantifier names are resolved per call
FUNCTIONS = (
    ("nle.quantify", "nonlocal_entropy", None),
    ("nle.quantify", "average_entropy_gap", None),
    ("nle.gates", "hermitian_from_coeffs", "gates.hermitian_from_coeffs"),
    ("nle.gates", "cnot_permutation", "gates.cnot_permutation"),
    ("nle.gates", "apply_cnot", "gates.apply_cnot"),
    ("nle.linalg", "partial_trace", "linalg.partial_trace"),
    ("nle.states", "vn_entropy", "states.entropy"),
    ("nle.states", "entanglement_entropy", "states.entropy"),
    ("nle.states", "marginal_entropies", "states.entropy"),
    ("nle.dissect", "classify", "dissect.classify"),
    ("nle.dissect", "as_product_set", "dissect.as_product_set"),
    ("nle.infobounds", "cnot_bounds", "infobounds.cnot_bounds"),
    ("nle.cli", "main", "cli.main"),
    ("nle.cli", "load_ensemble_file", "cli.load_ensemble_file"),
    ("nle.catalog", "build", "catalog.build"),
)
METHODS = (
    ("PureState", "__post_init__", "states.validate"),
    ("Ensemble", "__post_init__", "states.validate"),
    ("Ensemble", "is_product", "states.checks"),
    ("Ensemble", "is_orthogonal", "states.checks"),
)
KERNELS = ("svd", "eigvalsh", "eigh")

LAYERS = ("quantify", "kernel", "gates", "linalg", "states", "dissect", "infobounds", "cli",
          "catalog")


def _quantifier_span(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode")
    name = "fixed" if mode is None else mode.name
    if name in LU_MODES:
        return "quantify.search"
    return "quantify.assign" if name == "assign" else "quantify.fixed"


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.op = -1            # -1 while setting up
        self.failed: Counter = Counter()
        self.matrices: Counter = Counter()
        self.partitions = 0
        self._undo: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nle" or n.startswith("nle."))]
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, name or _quantifier_span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        states = sys.modules["nle.states"]
        for cls, attr, name in METHODS:
            owner = getattr(states, cls)
            self._set(owner, attr, self._wrap(owner.__dict__[attr], name))
        for attr in KERNELS:
            self._set(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"kernel.{attr}"))
        quantify = sys.modules["nle.quantify"]
        self._set(quantify, "partitions_with_caps", self._counted(quantify.partitions_with_caps))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        """``name`` is a span name, or a function of the call's arguments."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        fixed = isinstance(name, str)
        kernel = fixed and name.startswith("kernel.")

        def traced(*args, **kwargs):
            span = name if fixed else name(args, kwargs)
            if kernel:
                shape = np.shape(args[0])
                self.matrices[span] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[span.split(".")[0]] += 1
                raise
            finally:
                stack.pop()
                spans[index] = (span, start, clock(), parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, gen_fn):
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.partitions += 1
                yield item

        return counted

    def call(self, op_id: int, kind: str, fn):
        """Run one benchmark operation under its own span; layer spans nest below."""
        self.op = op_id
        return self._wrap(fn, f"op.{kind}")()

    # -- reducing ---------------------------------------------------------

    def table(self) -> dict:
        """Span name -> [calls, busy seconds, self seconds]: the self-time reduction.

        Busy time counts nested calls of one name once; self time is a
        span's duration minus the part its child spans cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += (end - start) - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row[1] += end - start
        return table

    def evals(self, ops) -> int | float:
        """Objective evaluations of the lu searches: generator builds inside
        each op divided by the generators one evaluation needs."""
        builds = Counter(op for name, _, _, _, op in self.spans
                         if name == "gates.hermitian_from_coeffs" and op >= 0)
        total = 0.0
        for op_id, count in builds.items():
            mode = ops[op_id].mode
            if mode is not None and mode[0] in LU_MODES:
                total += count / (mode[1] * (2 if mode[4] == "both" else 1))
        return int(total) if total == int(total) else total

    def layer_metrics(self, ops) -> dict:
        """Per-layer metric name -> (value, unit) of this pass."""
        t = self.table()

        def get(name, field):
            return t[name][field] if name in t else (0 if field == 0 else 0.0)

        evals = self.evals(ops)
        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        put("quantify.search.calls", get("quantify.search", 0), "count")
        put("quantify.search.busy_s", get("quantify.search", 1), "s")
        put("quantify.search.self_s", get("quantify.search", 2), "s")
        put("quantify.evals", evals, "count")
        put("quantify.eval_us", get("quantify.search", 1) / evals * 1e6 if evals else 0.0, "us")
        put("quantify.assign.calls", get("quantify.assign", 0), "count")
        put("quantify.assign.busy_s", get("quantify.assign", 1), "s")
        put("quantify.partitions", self.partitions, "count")
        put("quantify.fixed.calls", get("quantify.fixed", 0), "count")
        put("quantify.fixed.busy_s", get("quantify.fixed", 1), "s")
        for k in KERNELS:
            put(f"kernel.{k}.calls", get(f"kernel.{k}", 0), "count")
            put(f"kernel.{k}.matrices", self.matrices[f"kernel.{k}"], "count")
            put(f"kernel.{k}.busy_s", get(f"kernel.{k}", 1), "s")
        calls = sum(get(f"kernel.{k}", 0) for k in KERNELS)
        matrices = sum(self.matrices[f"kernel.{k}"] for k in KERNELS)
        put("kernel.matrices_per_call", matrices / calls if calls else 0.0, "matrices/call")
        for name in ("gates.hermitian_from_coeffs", "gates.cnot_permutation",
                     "linalg.partial_trace", "states.validate", "dissect.classify",
                     "infobounds.cnot_bounds", "catalog.build"):
            put(f"{name}.calls", get(name, 0), "count")
            put(f"{name}.busy_s", get(name, 1), "s")
        for name in ("gates.apply_cnot", "states.checks", "states.entropy",
                     "dissect.as_product_set", "cli.load_ensemble_file"):
            put(f"{name}.busy_s", get(name, 1), "s")
        put("cli.main.calls", get("cli.main", 0), "count")
        put("cli.main.self_s", get("cli.main", 2), "s")
        for layer in LAYERS:
            put(f"{layer}.failed", self.failed[layer], "count")
        return m

    def dump(self, path) -> None:
        """Write the spans, one JSON object a line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
