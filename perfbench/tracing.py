"""Outside-in tracing of the sdpoisson layers, installed in the benchmark process only.

The tracer replaces public functions in the namespace of the module that
calls them (``sdpoisson.pmf.poisson_weight`` is what ``pmf`` calls, so that
is the name replaced) and restores them afterwards; no file of the program
changes.  Coarse boundaries record a span each (name, start, end, parent,
op id).  Leaf functions called up to millions of times add a count and busy
time to the enclosing span instead.  A span's self time is its duration
minus the time covered by its child spans and by the outermost leaf calls
made directly under it.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# (calling module, attribute, layer metric key) of the span boundaries.
SPANS = (
    ("sdpoisson.cli", "main", "cli.main"),
    ("sdpoisson.cli", "pmf_table", "pmf.pmf_table"),
    ("sdpoisson.pmf", "pmf_table", "pmf.pmf_table"),
    ("sdpoisson.cli", "joint_pmf", "pmf.joint_pmf"),
    ("sdpoisson.pmf", "joint_pmf", "pmf.joint_pmf"),
    ("sdpoisson.pmf", "quadrature_term", "pmf.quadrature_term"),
    ("sdpoisson.cli", "mc_joint_pmf_grid", "harness.mc_joint_pmf_grid"),
    ("sdpoisson.harness", "mc_joint_pmf_grid", "harness.mc_joint_pmf_grid"),
    ("sdpoisson.process", "simulate_path", "process.simulate_path"),
    ("sdpoisson.cli", "sample_triples", "exponential.sample_triples"),
)

# Leaves.  ``kummer_elementary`` as ``pmf`` sees it is reached only through
# the ``_phi`` cache, so its calls are cache misses; ``kummer_series`` as
# ``special`` sees it is reached only from ``kummer_elementary``, so its calls
# are fallbacks.  The direct Kummer calls of ``sdpoisson verify`` are left
# unwrapped, so that both counts stay those of the pmf evaluators.
LEAVES = (
    ("sdpoisson.pmf", "poisson_weight", "special.poisson_weight"),
    ("sdpoisson.pmf", "poisson_upper_tail", "special.poisson_upper_tail"),
    ("sdpoisson.special", "poisson_upper_tail", "special.poisson_upper_tail"),
    ("sdpoisson.pmf", "binom_weight", "special.binom_weight"),
    ("sdpoisson.pmf", "kummer_elementary", "special.kummer_elementary"),
    ("sdpoisson.special", "kummer_series", "special.kummer_series"),
    ("sdpoisson.pmf", "quad", "pmf.quad"),
    ("sdpoisson.process", "sample_triple", "process.sample_triple"),
    ("sdpoisson.process", "count_at", "process.count_at"),
    ("sdpoisson.copulas", "copula_eval", "copulas.copula_eval"),
    ("sdpoisson.cli", "sample_correlation", "harness.sample_correlation"),
)

# Every per-layer metric with its unit, in report order.  A ratio or
# per-unit metric whose base is zero on a workload reports 0.
PER_LAYER = (
    ("special.poisson_weight.calls", "count"),
    ("special.poisson_weight.busy_s", "s"),
    ("special.poisson_weight.per_cell", "count/cell"),
    ("special.poisson_upper_tail.calls", "count"),
    ("special.poisson_upper_tail.busy_s", "s"),
    ("special.binom_weight.calls", "count"),
    ("special.kummer_elementary.calls", "count"),
    ("special.kummer_elementary.busy_s", "s"),
    ("special.kummer_elementary.per_cell", "count/cell"),
    ("special.kummer_series.fallbacks", "count"),
    ("special.kummer_fallback_ratio", "ratio"),
    ("pmf.pmf_table.calls", "count"),
    ("pmf.pmf_table.busy_s", "s"),
    ("pmf.pmf_table.self_s", "s"),
    ("pmf.joint_pmf.calls", "count"),
    ("pmf.joint_pmf.busy_s", "s"),
    ("pmf.cells_pruned", "count"),
    ("pmf.route.closed", "count"),
    ("pmf.route.quadrature", "count"),
    ("pmf.route.lemma_exact", "count"),
    ("pmf.route.boundary_average", "count"),
    ("pmf.closed_cell_us", "us"),
    ("pmf.quadrature_cell_us", "us"),
    ("pmf.closed_useful_ratio", "ratio"),
    ("pmf.quadrature_term.calls", "count"),
    ("pmf.quadrature_term.busy_s", "s"),
    ("pmf.quad.calls", "count"),
    ("pmf.quad.busy_s", "s"),
    ("pmf.quad.per_term", "count/term"),
    ("pmf.max_err_ratio", "ratio"),
    ("harness.mc_joint_pmf_grid.calls", "count"),
    ("harness.mc_joint_pmf_grid.busy_s", "s"),
    ("harness.renewals_drawn", "count"),
    ("harness.renewals_per_s", "1/s"),
    ("harness.bytes_computed", "B"),
    ("harness.sample_correlation.busy_s", "s"),
    ("process.simulate_path.calls", "count"),
    ("process.simulate_path.busy_s", "s"),
    ("process.sample_triple.calls", "count"),
    ("process.sample_triple.busy_s", "s"),
    ("process.count_at.calls", "count"),
    ("process.count_at.busy_s", "s"),
    ("exponential.sample_triples.calls", "count"),
    ("exponential.sample_triples.busy_s", "s"),
    ("copulas.copula_eval.calls", "count"),
    ("copulas.copula_eval.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_ratio", "ratio"),
)

# Bytes that _count_grid's arrays hold per path and renewal, computed from
# their dtypes: the uniform draws, the acceptance mask, the y and z draws,
# a*y, b*z, x, the cumulative sums of x and y and the scaled S chain
# (9 float64 + 1 bool); each (s, t) point adds two boolean masks.
_MC_BYTES_PER_ELEMENT = 73
_MC_BYTES_PER_POINT = 2


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    leaf_time: float = 0.0  # outermost leaf calls made directly under the span
    children: Counter = field(default_factory=Counter)
    leaves: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time - self.leaf_time


class Tracer:
    """Spans and leaf counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._leaf_depth = 0
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.route_time: Counter = Counter()
        self._handlers = {
            "pmf.joint_pmf": self._on_joint_pmf,
            "pmf.pmf_table": self._on_pmf_table,
            "harness.mc_joint_pmf_grid": self._on_mc_grid,
        }

    # -- spans ------------------------------------------------------------

    def open(self, name: str, op: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = self.spans[parent].op
        span = Span(name, op, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_time += span.duration
            parent.children[span.name] += 1

    def _span_wrapper(self, key: str, fn):
        handler = self._handlers.get(key)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = self.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if handler is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                handler(span, bound.arguments, result)
            return result

        return wrapper

    def _leaf_wrapper(self, key: str, fn):
        total = self.leaves[key]

        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leaf_depth -= 1
                total[0] += 1
                total[1] += dt
                span = self.spans[self._stack[-1]]
                here = span.leaves.setdefault(key, [0, 0.0])
                here[0] += 1
                here[1] += dt
                if self._leaf_depth == 0:
                    span.leaf_time += dt

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced functions in their callers' namespaces."""
        saved = []
        try:
            for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
                for module_name, attr, key in table:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(key, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- per-call bookkeeping ---------------------------------------------

    def _on_joint_pmf(self, span: Span, args: dict, report) -> None:
        route = report.method_used
        self.counts[f"route.{route}"] += 1
        self.route_time[route] += span.duration
        if args["method"] != "auto":
            return
        # auto tries the closed form first inside its index limit; a cell
        # that ends on quadrature there paid for a wasted closed attempt.
        limit = sys.modules["sdpoisson.pmf"].closed_form_stable_limit(args["params"].a)
        if route == "closed" or (
            route == "quadrature" and max(args["m"], args["n"]) + 1 <= limit
        ):
            self.counts["closed_attempted"] += 1
            self.counts["closed_useful"] += route == "closed"

    def _on_pmf_table(self, span: Span, args: dict, table) -> None:
        cells = (args["m_max"] + 1) * (args["n_max"] + 1)
        self.counts["block_cells"] += cells
        self.counts["cells_pruned"] += cells - span.children["pmf.joint_pmf"]

    def _on_mc_grid(self, span: Span, args: dict, freq) -> None:
        params, points = args["params"], args["points"]
        renewals_for_horizon = sys.modules["sdpoisson.harness"].renewals_for_horizon
        k = max(
            renewals_for_horizon(params.lam, max(t for _, t in points)),
            renewals_for_horizon(params.mu, max(s for s, _ in points)),
        )
        elements = args["n_samples"] * k
        self.counts["renewals_drawn"] += elements
        self.counts["bytes_computed"] += elements * (
            _MC_BYTES_PER_ELEMENT + _MC_BYTES_PER_POINT * len(points)
        )

    # -- results ------------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)

    def write(self, path) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "self": s.self_time,
                    "leaves": s.leaves,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metrics of a traced pass.  ``extra`` supplies what the
    benchmark measures around the program: ``bytes_written``,
    ``max_err_ratio`` and the traced and untraced op times."""
    leaf = tracer.leaves
    counts = tracer.counts
    cells = counts["block_cells"]
    routes = {r: counts[f"route.{r}"] for r in
              ("closed", "quadrature", "lemma-exact", "boundary-average")}
    values = {
        "special.poisson_weight.calls": leaf["special.poisson_weight"][0],
        "special.poisson_weight.busy_s": leaf["special.poisson_weight"][1],
        "special.poisson_weight.per_cell": _ratio(leaf["special.poisson_weight"][0], cells),
        "special.poisson_upper_tail.calls": leaf["special.poisson_upper_tail"][0],
        "special.poisson_upper_tail.busy_s": leaf["special.poisson_upper_tail"][1],
        "special.binom_weight.calls": leaf["special.binom_weight"][0],
        "special.kummer_elementary.calls": leaf["special.kummer_elementary"][0],
        "special.kummer_elementary.busy_s": leaf["special.kummer_elementary"][1],
        "special.kummer_elementary.per_cell": _ratio(leaf["special.kummer_elementary"][0], cells),
        "special.kummer_series.fallbacks": leaf["special.kummer_series"][0],
        "special.kummer_fallback_ratio": _ratio(
            leaf["special.kummer_series"][0], leaf["special.kummer_elementary"][0]),
        "pmf.pmf_table.calls": tracer.calls("pmf.pmf_table"),
        "pmf.pmf_table.busy_s": tracer.busy("pmf.pmf_table"),
        "pmf.pmf_table.self_s": tracer.self_time("pmf.pmf_table"),
        "pmf.joint_pmf.calls": tracer.calls("pmf.joint_pmf"),
        "pmf.joint_pmf.busy_s": tracer.busy("pmf.joint_pmf"),
        "pmf.cells_pruned": counts["cells_pruned"],
        "pmf.route.closed": routes["closed"],
        "pmf.route.quadrature": routes["quadrature"],
        "pmf.route.lemma_exact": routes["lemma-exact"],
        "pmf.route.boundary_average": routes["boundary-average"],
        "pmf.closed_cell_us": 1e6 * _ratio(tracer.route_time["closed"], routes["closed"]),
        "pmf.quadrature_cell_us": 1e6 * _ratio(
            tracer.route_time["quadrature"], routes["quadrature"]),
        "pmf.closed_useful_ratio": _ratio(counts["closed_useful"], counts["closed_attempted"]),
        "pmf.quadrature_term.calls": tracer.calls("pmf.quadrature_term"),
        "pmf.quadrature_term.busy_s": tracer.busy("pmf.quadrature_term"),
        "pmf.quad.calls": leaf["pmf.quad"][0],
        "pmf.quad.busy_s": leaf["pmf.quad"][1],
        "pmf.quad.per_term": _ratio(leaf["pmf.quad"][0], tracer.calls("pmf.quadrature_term")),
        "pmf.max_err_ratio": extra["max_err_ratio"],
        "harness.mc_joint_pmf_grid.calls": tracer.calls("harness.mc_joint_pmf_grid"),
        "harness.mc_joint_pmf_grid.busy_s": tracer.busy("harness.mc_joint_pmf_grid"),
        "harness.renewals_drawn": counts["renewals_drawn"],
        "harness.renewals_per_s": _ratio(
            counts["renewals_drawn"], tracer.busy("harness.mc_joint_pmf_grid")),
        "harness.bytes_computed": counts["bytes_computed"],
        "harness.sample_correlation.busy_s": leaf["harness.sample_correlation"][1],
        "process.simulate_path.calls": tracer.calls("process.simulate_path"),
        "process.simulate_path.busy_s": tracer.busy("process.simulate_path"),
        "process.sample_triple.calls": leaf["process.sample_triple"][0],
        "process.sample_triple.busy_s": leaf["process.sample_triple"][1],
        "process.count_at.calls": leaf["process.count_at"][0],
        "process.count_at.busy_s": leaf["process.count_at"][1],
        "exponential.sample_triples.calls": tracer.calls("exponential.sample_triples"),
        "exponential.sample_triples.busy_s": tracer.busy("exponential.sample_triples"),
        "copulas.copula_eval.calls": leaf["copulas.copula_eval"][0],
        "copulas.copula_eval.busy_s": leaf["copulas.copula_eval"][1],
        "cli.main.calls": tracer.calls("cli.main"),
        "cli.main.busy_s": tracer.busy("cli.main"),
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.bytes_written": extra["bytes_written"],
        "trace.overhead_ratio": _ratio(extra["traced_s"], extra["untraced_s"]),
    }
    assert list(values) == [name for name, _ in PER_LAYER]
    return values
