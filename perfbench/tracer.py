"""Spans around the calls into each kolgas layer, for the traced run.

The wrappers are installed at the names the callers look up and removed
again on exit.  ``from .randomness import encode_list`` binds a second
name in ``kolgas.sim``, so every such binding gets its own wrapper.

A span records its name, start, end, parent and op id, plus a tag (the
wall model, or the estimator that set K-hat) and a count (wall events,
or list bits).  Spans stay in memory until :meth:`Tracer.write`.

Per-estimator figures come from probes: after each ``best`` estimate the
wrapper times ``estimate_complexity(enc, estimator=<id>)`` on the same
list.  Probe time is excluded from every span that is open around it, so
no layer, op or overhead figure is charged for it.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

#: Wall model -> label used in metric names.
MODEL_LABELS = {"specular_random_sites": "rough", "smooth_specular": "smooth",
                "langmuir_thermal": "thermal"}

#: Estimators probed one by one; the default "best" pool.
PROBED_ESTIMATORS = ("zlib", "entropy0", "entropy1", "delta")

#: Per-layer metrics of a traced run, with units.  Totals are per op
#: (median over the traced ops); rates are sums over all traced ops.
PER_LAYER = {
    **{f"sim.simulate_s.{m}": "s" for m in MODEL_LABELS.values()},
    "sim.step_to.self_s": "s",
    "sim.wall_scatter.s": "s",
    **{f"sim.step_to.us_per_event.{m}": "us/event"
       for m in MODEL_LABELS.values()},
    "sim.events": "count",
    "sim.wall_scatter.calls": "count",
    "sim.wall_scatter.events_per_call": "events/call",
    "sim.sample_disorder.self_s": "s",
    "randomness.read_list_file.s": "s",
    "randomness.encode_list.s": "s",
    "randomness.estimate_complexity.s": "s",
    "randomness.estimate_complexity.calls": "count",
    "randomness.estimate_complexity.mbit": "Mbit",
    **{f"randomness.est.{e}.s_per_mbit": "s/Mbit" for e in PROBED_ESTIMATORS},
    **{f"randomness.winner.{e}": "count" for e in PROBED_ESTIMATORS},
    "randomness.prefix_trace.self_s": "s",
    "thermo.state_equations.us_per_call": "us/call",
    "thermo.state_equations.calls": "count",
    "cli.main.self_s": "s",
    "trace_overhead_frac": "frac",
}

#: Units of the metrics that are times, scaled to reference speed.
TIME_UNITS = {"s", "us/event", "s/Mbit", "us/call"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag", "count",
                 "excluded", "probe")

    def __init__(self, name, start, parent, op, tag=None, count=0,
                 probe=False):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.tag, self.count = parent, op, tag, count
        self.excluded = 0.0
        self.probe = probe

    @property
    def seconds(self) -> float:
        """Duration without the probe time spent inside the span."""
        return self.end - self.start - self.excluded


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1

    def begin(self, name: str, tag=None, count: int = 0) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent, self.op, tag, count)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def probe(self, name: str, parent: int, count: int, fn) -> None:
        """Time ``fn()`` as a probe child of span number ``parent`` and
        exclude it from every open span."""
        span = Span(name, time.perf_counter(), parent, self.op, count=count,
                    probe=True)
        fn()
        span.end = time.perf_counter()
        self.spans.append(span)
        for i in self._open:
            self.spans[i].excluded += span.end - span.start

    def wrap(self, fn, name: str, tag=None, count=None):
        def traced(*args, **kwargs):
            span = self.begin(name, tag(args) if tag else None,
                              count(args) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def wrap_step_to(self, fn):
        def traced(state, *args, **kwargs):
            span = self.begin("sim.step_to",
                              MODEL_LABELS[state.config.wall_model])
            before = state.n_events
            try:
                return fn(state, *args, **kwargs)
            finally:
                span.count = state.n_events - before
                self.end(span)
        return traced

    def wrap_estimate(self, fn):
        def traced(enc, *args, **kwargs):
            estimator = kwargs.get("estimator", args[0] if args else "best")
            index = len(self.spans)
            span = self.begin("randomness.estimate_complexity",
                              count=enc.l_primitive)
            try:
                report = fn(enc, *args, **kwargs)
            finally:
                self.end(span)
            span.tag = report.estimator_id
            if estimator == "best":
                for est in PROBED_ESTIMATORS:
                    self.probe(f"randomness.est.{est}", index,
                               enc.l_primitive,
                               lambda est=est: fn(enc, estimator=est))
            return report
        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start - t0, s.end - t0,
                                     s.parent, s.op, s.tag, s.count,
                                     s.excluded, s.probe]) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the kolgas call sites with ``tracer`` wrappers; restore the
    originals on exit."""
    from kolgas import cli, randomness, sim

    saved = []

    def patch(module, attr, make):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def model(args):
        return MODEL_LABELS[args[0].wall_model]

    try:
        patch(cli, "main", lambda f: tracer.wrap(f, "cli.main"))
        patch(sim, "simulate",
              lambda f: tracer.wrap(f, "sim.simulate", tag=model))
        patch(sim, "step_to", tracer.wrap_step_to)
        patch(sim, "wall_scatter", lambda f: tracer.wrap(
            f, "sim.wall_scatter",
            tag=lambda a: MODEL_LABELS[a[0].config.wall_model],
            count=lambda a: a[1].size))
        for attr in ("sample_disorder", "relaxation_time",
                     "run_joule_expansion"):
            patch(sim, attr, lambda f, a=attr: tracer.wrap(f, f"sim.{a}"))
        for attr in ("read_list_file", "prefix_trace", "gap_classify"):
            patch(randomness, attr,
                  lambda f, a=attr: tracer.wrap(f, f"randomness.{a}"))
        for module in (sim, randomness):
            patch(module, "encode_list",
                  lambda f: tracer.wrap(f, "randomness.encode_list"))
            patch(module, "estimate_complexity", tracer.wrap_estimate)
        for module in (cli, sim):
            patch(module, "state_equations",
                  lambda f: tracer.wrap(f, "thermo.state_equations"))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics (all of PER_LAYER but trace_overhead_frac)."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None and not s.probe:
            covered[s.parent] += s.seconds
    per_op = {s.op: defaultdict(float) for s in spans if s.name == "op"}
    total = defaultdict(float)
    for i, s in enumerate(spans):
        dur, self_s, acc = s.seconds, s.seconds - covered[i], per_op[s.op]
        if s.probe:
            total[f"{s.name}.s"] += dur
            total[f"{s.name}.bits"] += s.count
        elif s.name == "sim.simulate":
            acc[f"sim.simulate_s.{s.tag}"] += dur
        elif s.name == "sim.step_to":
            acc["sim.step_to.self_s"] += self_s
            total[f"step_to.s.{s.tag}"] += dur
            total[f"step_to.events.{s.tag}"] += s.count
        elif s.name == "sim.wall_scatter":
            acc["sim.wall_scatter.s"] += dur
            acc["sim.wall_scatter.calls"] += 1
            acc["sim.events"] += s.count
            total["wall_scatter.calls"] += 1
            total["wall_scatter.events"] += s.count
        elif s.name == "sim.sample_disorder":
            acc["sim.sample_disorder.self_s"] += self_s
        elif s.name in ("randomness.read_list_file",
                        "randomness.encode_list"):
            acc[f"{s.name}.s"] += dur
        elif s.name == "randomness.estimate_complexity":
            acc[f"{s.name}.s"] += dur
            acc[f"{s.name}.calls"] += 1
            acc[f"{s.name}.mbit"] += s.count / 1e6
            acc[f"randomness.winner.{s.tag}"] += 1
        elif s.name == "randomness.prefix_trace":
            acc["randomness.prefix_trace.self_s"] += self_s
        elif s.name == "thermo.state_equations":
            acc["thermo.state_equations.calls"] += 1
            total["state_equations.s"] += dur
            total["state_equations.calls"] += 1
        elif s.name == "cli.main":
            acc["cli.main.self_s"] += self_s

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    out = {name: statistics.median(acc[name] for acc in per_op.values())
           for name in PER_LAYER if name != "trace_overhead_frac"}
    for m in MODEL_LABELS.values():
        out[f"sim.step_to.us_per_event.{m}"] = ratio(
            total[f"step_to.s.{m}"], total[f"step_to.events.{m}"], 1e6)
    out["sim.wall_scatter.events_per_call"] = ratio(
        total["wall_scatter.events"], total["wall_scatter.calls"])
    for e in PROBED_ESTIMATORS:
        name = f"randomness.est.{e}"
        out[f"{name}.s_per_mbit"] = ratio(total[f"{name}.s"],
                                          total[f"{name}.bits"], 1e6)
    out["thermo.state_equations.us_per_call"] = ratio(
        total["state_equations.s"], total["state_equations.calls"], 1e6)
    return out
