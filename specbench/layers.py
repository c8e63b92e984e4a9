"""Outside-in tracing of specshare's layers.

The tracer replaces the public entry points of each layer with timing
wrappers, in the module where each caller looks the name up, and restores
every original when it is uninstalled. Spans are kept in memory, with their
thread id, parent and operation, and written out when the run ends. Spans
opened in a sweep worker thread, which has no open span of its own, take the
operation's root span as their parent.

Counting integrand evaluations adds a Python call to each of them, so only a
tracer made with ``count_evals=True`` counts them. The benchmark uses one for
its warm-up operation, whose input is fixed, and takes no times from it.

Nothing inside ``src/`` is changed; the wrappers pass every argument through
and return the original result, so traced CSVs are byte-identical.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import statistics
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter

from specshare import analytic, cli, geometry, quadrature, simulate


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    thread: int
    start: float
    end: float
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _mode(arguments, info):
    info["mode"] = arguments["mode"].value


def _count_evals(arguments, info):
    integrand = arguments["f"]
    info["evals"] = 0

    def counted(x):
        info["evals"] += 1
        return integrand(x)

    arguments["f"] = counted


def _trials(arguments, info):
    info["trials"] = arguments["n_trials"]


def _queue(arguments, info):
    info["mode"] = arguments["mode"].value
    info["packets"] = arguments["n_packets"]


def _fields(arguments, info):
    info["fields"] = arguments["n"]
    info["points"] = (arguments["n"] * arguments["density"] * math.pi
                      * arguments["radius"] ** 2)


def _packets(arguments, info):
    info["packets"] = len(arguments["arrival_times"])


# (module where the caller looks the name up, name, span name, argument recorder)
TARGETS = (
    (cli, "parse_config", "model.parse_config", None),
    (cli, "run_sweep", "cli.run_sweep", None),
    (analytic, "outage_no_sharing", "analytic.outage", None),
    (analytic, "outage_with_sharing", "analytic.outage", None),
    (analytic, "delay_report", "analytic.delay_report", _mode),
    (analytic, "truncated_service_moments", "analytic.truncated_service_moments", _mode),
    (analytic, "cdf_moment_integrals", "quadrature.cdf_moment_integrals", None),
    (analytic, "convolve_cdf_pdf", "quadrature.convolve_cdf_pdf", None),
    (quadrature, "integrate", "quadrature.integrate", _count_evals),
    (simulate, "estimate_outage_mc", "simulate.estimate_outage_mc", _trials),
    (simulate, "run_mg1_detailed", "simulate.run_mg1_detailed", _queue),
    (simulate, "lindley_waits", "simulate.lindley_waits", _packets),
    (geometry, "sample_interference_batch", "geometry.sample_interference_batch", _fields),
    (geometry, "sample_service_delays", "geometry.sample_service_delays", None),
)


class Tracer:
    """Collects spans for operations run through `run_op`.

    With count_evals, the integrand of every `quadrature.integrate` call is
    wrapped too, to count its evaluations.
    """

    def __init__(self, count_evals: bool = False):
        self.count_evals = count_evals
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._op = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, info: dict, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, self._op, name,
                                   threading.get_ident(), start, end, info))

    def _wrap(self, original, name: str, record):
        signature = inspect.signature(original) if record else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            info = {}
            if record:
                bound = signature.bind(*args, **kwargs)
                record(bound.arguments, info)
                args, kwargs = bound.args, bound.kwargs
            return self._open(name, info, original, args, kwargs)

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation `op_id` with every layer wrapped."""
        saved = []
        try:
            for module, attr, name, record in TARGETS:
                original = getattr(module, attr, None)
                if original is None:
                    continue  # layer entry point no longer exists: its spans stay empty
                saved.append((module, attr, original))
                if record is _count_evals and not self.count_evals:
                    record = None
                setattr(module, attr, self._wrap(original, name, record))
            self._op = op_id
            root = self._root = next(self._ids)
            stack = self._stack()
            stack.append(root)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                end = perf_counter()
                stack.pop()
                self._root = None
                self.spans.append(Span(root, None, op_id, "cli.main",
                                       threading.get_ident(), start, end))
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _union_seconds(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _rate(spans, key: str) -> float:
    busy = sum(s.seconds for s in spans)
    return sum(s.info[key] for s in spans) / busy if busy > 0 else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class _Tree:
    def __init__(self, spans: list[Span]):
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)
            self.by_name[s.name].append(s)

    def descendants(self, span):
        todo = list(self.children[span.id])
        while todo:
            s = todo.pop()
            todo.extend(self.children[s.id])
            yield s

    def computed_moments(self) -> list[Span]:
        """Moment calls that did work; a call without child spans was a cache hit."""
        return [s for s in self.by_name["analytic.truncated_service_moments"]
                if self.children[s.id]]


def quadrature_counts(count_spans: list[Span]) -> tuple[float, float]:
    """Mean `integrate` calls and integrand evaluations per combined-mode moment
    evaluation, from spans of a tracer made with count_evals=True."""
    tree = _Tree(count_spans)
    calls, evals = [], []
    for s in tree.computed_moments():
        if s.info["mode"] == "combined":
            integrals = [d for d in tree.descendants(s) if d.name == "quadrature.integrate"]
            calls.append(len(integrals))
            evals.append(sum(d.info["evals"] for d in integrals))
    return (statistics.fmean(calls) if calls else 0.0,
            statistics.fmean(evals) if evals else 0.0)


def layer_metrics(spans: list[Span], count_spans: list[Span],
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: times from `spans`, which no integrand counter slowed,
    and quadrature counts from `count_spans` (see quadrature_counts)."""
    tree = _Tree(spans)
    by_name, descendants = tree.by_name, tree.descendants
    roots = by_name["cli.main"]
    n_ops = len(roots)
    computed = tree.computed_moments()
    moment_calls = by_name["analytic.truncated_service_moments"]
    calls, evals = quadrature_counts(count_spans)

    def per_op(name):
        return sum(s.seconds for s in by_name[name]) / n_ops

    parallelism, self_s = [], []
    for root in roots:
        cli_ids = {root.id} | {s.id for s in descendants(root) if s.name.startswith("cli.")}
        layer_children = [s for s in descendants(root)
                          if s.parent in cli_ids and not s.name.startswith("cli.")]
        parallelism.append(sum(s.seconds for s in layer_children) / root.seconds)
        self_s.append(root.seconds - _union_seconds((s.start, s.end) for s in layer_children))

    queue = defaultdict(list)
    for s in by_name["simulate.run_mg1_detailed"]:
        queue[s.info["mode"]].append(s)

    metrics = {
        "quadrature.integrate_calls.combined": calls,
        "quadrature.integrand_evals.combined": evals,
    }
    for mode in ("shared", "proprietary", "combined"):
        metrics[f"analytic.moments_s.{mode}"] = _median(
            [s.seconds for s in computed if s.info["mode"] == mode])
    metrics.update({
        "analytic.moments.calls": len(moment_calls) / n_ops,
        "analytic.moments.hit_ratio": (1.0 - len(computed) / len(moment_calls)
                                       if moment_calls else 0.0),
        "analytic.outage_s": per_op("analytic.outage"),
        "model.parse_s": per_op("model.parse_config"),
        "geometry.fields_per_s": _rate(by_name["geometry.sample_interference_batch"], "fields"),
        "geometry.points_per_s": _rate(by_name["geometry.sample_interference_batch"], "points"),
        "simulate.outage_trials_per_s": _rate(by_name["simulate.estimate_outage_mc"], "trials"),
    })
    for mode in ("shared", "proprietary", "combined"):
        metrics[f"simulate.queue_packets_per_s.{mode}"] = _rate(queue[mode], "packets")
    metrics.update({
        "simulate.lindley_s": per_op("simulate.lindley_waits"),
        "cli.parallelism": statistics.fmean(parallelism),
        "cli.self_s": statistics.fmean(self_s),
        "trace.overhead_s": overhead_s,
    })
    return metrics
