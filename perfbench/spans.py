"""Outside-in tracing of the vaxcirc pipeline, one span per layer call.

Wrappers go on the names a caller looks up at call time: module globals
such as `vaxcirc.optimize.apply_chromosome`, class attributes such as
`Evaluator.po_bits`, and the `_kernels` module attributes that callers
reach as `_kernels.eval_words`.  Nothing under src/ is edited, and
`Tracer.uninstall` puts every original object back.

Spans are `[id, parent id, name, start, end]` lists kept in memory and
written out once, at the end of the run, next to (never inside) the run
directory.  Counts are gathered by hooks at the same boundaries.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from vaxcirc import _kernels, approx, errsim, harness, netlist, optimize, timing

# Span names whose busy time is a per-layer metric, reported as `<name>_s`.
_BUSY = (
    "harness.tmap", "harness.stale_bound", "harness.candidates", "harness.search",
    "harness.mc", "harness.report", "optimize.eval", "optimize.sort", "optimize.crowding",
    "optimize.archive", "optimize.variation", "approx.apply", "netlist.build",
    "netlist.simplify", "compile.logic", "compile.timing", "errsim.sim", "errsim.metrics",
    "timing.ssta", "timing.mc_cpd", "celllib.sample", "kernels.eval_words",
    "kernels.sta_forward",
)

_MB = 1e6


class Tracer:
    """In-memory span recorder plus the counters hooked at the same calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.genes: set[bytes] = set()
        self.netlists: set[int] = set()
        self.seeds: set[int] = set()
        self.sta_ws_bytes = 0
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` wrapped in a span; `before(args, kwargs)` and `after(result)`
        run outside the span so their cost lands in the caller's self time."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- count hooks ----------------------------------------------------------

    def _count(self, key):
        def hook(args, kwargs):
            self.counts[key] += 1
        return hook

    def _on_eval(self, args, kwargs):
        genes = kwargs["genes"] if "genes" in kwargs else args[2]
        self.genes.add(np.asarray(genes, dtype=np.int8).tobytes())

    def _on_apply_result(self, n):
        self.counts["approx.apply_calls"] += 1
        self.netlists.add(hash((n.outputs, tuple(g.key() for g in n.gates))))

    def _on_sample(self, args, kwargs):
        seeds = kwargs["seeds"] if "seeds" in kwargs else args[1]
        if not isinstance(seeds, (range, list, tuple)):
            raise TypeError("traced sample_matrix needs re-iterable seeds")
        self.counts["celllib.sample_rows"] += len(seeds)
        self.seeds.update(seeds)

    def _on_eval_words(self, args, kwargs):
        ops, words = args[0], args[5]
        n_words = words.shape[1]
        self.counts["kernels.eval_words_calls"] += 1
        self.counts["kernels.eval_words_gate_words"] += ops.shape[0] * n_words
        # Computed traffic: each gate reads its fanin rows and writes one row.
        one_in = int(np.count_nonzero(ops <= _kernels.OP_BUF))
        three_in = int(np.count_nonzero(ops == _kernels.OP_MUX2))
        rows = 2 * one_in + 4 * three_in + 3 * (ops.shape[0] - one_in - three_in)
        self.counts["kernels.eval_words_bytes"] += rows * n_words * 8

    def _on_sta_forward(self, args, kwargs):
        src, delays, arrivals = args[0], args[5], args[6]
        edge_rows = src.shape[0] * delays.shape[0]
        self.counts["kernels.sta_forward_calls"] += 1
        self.counts["kernels.sta_forward_edge_rows"] += edge_rows
        # Computed traffic per edge and row: two delays and two source
        # arrivals read, two destination arrivals read and written.
        self.counts["kernels.sta_forward_bytes"] += edge_rows * 8 * 8
        self.sta_ws_bytes = max(self.sta_ws_bytes, arrivals.nbytes + delays.nbytes)

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap each layer's public functions where the pipeline binds them."""
        p = self.patch
        p(harness, "annotate_edge_transitions", "harness.tmap")
        p(harness, "ssta_traverse", "timing.ssta", before=self._count("timing.ssta_calls"))
        p(harness, "ssta_traverse", "harness.candidates")
        p(harness, "build_candidates", "harness.candidates")
        p(harness, "stale_nmed_bound", "harness.stale_bound")
        p(harness, "nsga2_run", "harness.search")
        p(harness, "monte_carlo_evaluate", "harness.mc")
        p(harness, "cpd_over_delays", "timing.mc_cpd")
        for owner in (harness, timing):
            p(owner, "compile_timing", "compile.timing",
              before=self._count("compile.timing_calls"))
            p(owner, "sample_matrix", "celllib.sample", before=self._on_sample)
        p(optimize, "evaluate_individual", "optimize.eval", before=self._on_eval)
        p(optimize, "apply_chromosome", "approx.apply", after=self._on_apply_result)
        p(optimize, "_metrics_from_bits", "errsim.metrics")
        p(optimize, "ssta_traverse", "timing.ssta", before=self._count("timing.ssta_calls"))
        p(optimize, "nondominated_sort", "optimize.sort")
        p(optimize, "crowding_assign", "optimize.crowding")
        p(optimize, "pareto_front_indices", "optimize.archive")
        p(optimize, "mutate", "optimize.variation")
        p(approx, "simplify_constants", "netlist.simplify")
        p(netlist.Netlist, "__init__", "netlist.build", before=self._count("netlist.builds"))
        p(errsim, "compile_logic", "compile.logic", before=self._count("compile.logic_calls"))
        p(errsim.Evaluator, "po_bits", "errsim.sim", before=self._count("errsim.sim_calls"))
        p(_kernels, "eval_words", "kernels.eval_words", before=self._on_eval_words)
        p(_kernels, "sta_forward", "kernels.sta_forward", before=self._on_sta_forward)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, f)

    # -- derived metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this traced pass (trace.* are filled by the caller)."""
        spans = self.spans
        child_time = defaultdict(float)
        for sid, parent, _name, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start

        busy = defaultdict(float)
        self_time = defaultdict(float)
        for sid, parent, name, start, end in spans:
            self_time[name] += end - start - child_time[sid]
            anc = parent
            while anc >= 0 and spans[anc][2] != name:
                anc = spans[anc][1]
            if anc < 0:  # outermost span of its name: count once
                busy[name] += end - start

        c = self.counts
        eval_ms = sorted(
            1e3 * (end - start) for _, _, name, start, end in spans if name == "optimize.eval"
        )
        evals = len(eval_ms)
        m = {f"{name}_s": busy[name] for name in _BUSY}
        m.update({
            "harness.optimize_self_s": self_time["harness.optimize"],
            "harness.evaluate_self_s": self_time["harness.evaluate"],
            "optimize.evals": evals,
            "optimize.unique_genes": len(self.genes),
            "optimize.distinct_netlists": len(self.netlists),
            "optimize.repeat_frac": 1.0 - len(self.genes) / evals if evals else 0.0,
            "optimize.eval_ms.p50": statistics.median(eval_ms) if eval_ms else 0.0,
            "optimize.eval_ms.p99": _quantile(eval_ms, 0.99),
            "optimize.eval_ms.samples": evals,
            "approx.apply_calls": c["approx.apply_calls"],
            "netlist.builds": c["netlist.builds"],
            "compile.logic_calls": c["compile.logic_calls"],
            "compile.timing_calls": c["compile.timing_calls"],
            "errsim.sim_calls": c["errsim.sim_calls"],
            "timing.ssta_calls": c["timing.ssta_calls"],
            "celllib.sample_rows": c["celllib.sample_rows"],
            "celllib.distinct_rows": len(self.seeds),
            "kernels.eval_words_calls": c["kernels.eval_words_calls"],
            "kernels.eval_words_gate_words": c["kernels.eval_words_gate_words"],
            "kernels.eval_words_ns_per_gate_word": _ns_per(
                busy["kernels.eval_words"], c["kernels.eval_words_gate_words"]),
            "kernels.eval_words_mb_computed": c["kernels.eval_words_bytes"] / _MB,
            "kernels.sta_forward_calls": c["kernels.sta_forward_calls"],
            "kernels.sta_forward_edge_rows": c["kernels.sta_forward_edge_rows"],
            "kernels.sta_forward_ns_per_edge_row": _ns_per(
                busy["kernels.sta_forward"], c["kernels.sta_forward_edge_rows"]),
            "kernels.sta_forward_mb_computed": c["kernels.sta_forward_bytes"] / _MB,
            "kernels.sta_forward_ws_mb_computed": self.sta_ws_bytes / _MB,
        })
        return m


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1, int(np.ceil(q * len(sorted_values))) - 1))
    return sorted_values[k]


def _ns_per(seconds, units):
    return 1e9 * seconds / units if units else 0.0
