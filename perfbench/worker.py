"""One benchmark process: set up one workload, run its ops in a closed
loop, check every op's artifacts, and write the figures to a JSON file.

run.py starts this in a fresh interpreter for each set-up and each run:

    python3 perfbench/worker.py --workload relax --seed 1 --seconds 20 \
        --trace 0 --size full --workdir DIR --result FILE [--setup-only]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: reference_seconds() on the machine the benchmark was defined on (2
#: vCPUs at 2.1 GHz, Python 3.11.7).  Every reported time is scaled by
#: REFERENCE_S / (reference_seconds() measured beside it).
REFERENCE_S = 0.009


def execute(wl, op: int) -> tuple[dict, dict, list[str]]:
    """Run op ``op``: each CLI call timed alone, with the reference loop
    timed before the first call and after each one.  Return each call's
    wall seconds, its scale to reference speed (from the two reference
    timings beside it), and the op's problems.  A call that raises or
    exits non-zero is a problem of the op, not a crash of the benchmark."""
    from kolgas import cli

    seconds, scales, problems = {}, {}, []
    before = reference_seconds()
    for label, argv in wl.calls(op):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        seconds[label] = time.perf_counter() - t0
        after = reference_seconds()
        scales[label] = REFERENCE_S / ((before + after) / 2)
        before = after
        if code != 0:
            problems.append(f"{label}: exit {code}")
    return seconds, scales, problems


def reference_seconds() -> float:
    """Best of three timings of a fixed interpreter loop that uses no
    kolgas code.  A shared machine's speed drifts by up to 2x over minutes
    as other tenants come and go; op times and this loop drift together,
    so scaling each op by the loop timed beside it removes most of the
    drift.  (Of the kernels tried, pure interpreter work tracked the sim,
    sweep and audit ops best; sort, zlib and small-array numpy less.)"""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(150_000))
        best = min(best, time.perf_counter() - t0)
    return best


def digest(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else ""
            for p in paths]


class Run:
    """Timed and traced phases of one workload in this process."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.next_op = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.raw_op_s: list[float] = []
        self.op_s: list[float] = []
        self.traced_op_s: list[float] = []
        self.traced_scale: list[float] = []
        self.call_s: dict[str, list[float]] = {}
        self.first_digest: list[str] | None = None

    def one_op(self, tracer=None) -> float:
        """Run, time and check the next op; return its wall seconds."""
        op = self.next_op
        self.next_op += 1
        if tracer is None:
            seconds, scales, problems = execute(self.wl, op)
        else:
            tracer.op = op
            span = tracer.begin("op")
            try:
                seconds, scales, problems = execute(self.wl, op)
            finally:
                tracer.end(span)
        scaled = {label: s * scales[label] for label, s in seconds.items()}
        if tracer is None:
            self.op_s.append(sum(scaled.values()))
            self.raw_op_s.append(sum(seconds.values()))
            for label, s in scaled.items():
                self.call_s.setdefault(label, []).append(s)
        else:
            # Probe time is excluded from the op as from every span.
            scale = statistics.median(scales.values())
            self.traced_op_s.append(sum(scaled.values())
                                    - span.excluded * scale)
            self.traced_scale.append(scale)
        problems = problems or self.wl.check(op)
        if op == 0:
            self.first_digest = digest(self.wl.artifacts())
        self.record(op, problems)
        return sum(seconds.values())

    def record(self, op: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"op {op}: " + "; ".join(problems))

    def loop(self, seconds: float, tracer=None) -> None:
        """Closed loop, one client: the next op starts when the last ends,
        until the ops' summed wall time reaches ``seconds``; at least one
        op."""
        busy = 0.0
        while busy < seconds:
            busy += self.one_op(tracer)

    def rerun_first(self) -> None:
        """Run op 0 again; its artifacts must be byte-identical."""
        *_, problems = execute(self.wl, 0)
        if digest(self.wl.artifacts()) != self.first_digest:
            problems.append("rerun of op 0 is not byte-identical")
        self.record(0, problems)


def run(args: argparse.Namespace) -> dict:
    # Import kolgas from this checkout's src, whatever is installed.
    if sys.path[:1] != [str(ROOT / "src")]:
        sys.path.insert(0, str(ROOT / "src"))
    import kolgas
    import numpy
    import scipy
    from kolgas.calibration import load_calibration

    import tracer as tracing
    import workloads

    if not Path(kolgas.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"kolgas imported from {kolgas.__file__}")
    load_calibration()
    schemas = workloads.Schemas(ROOT / "docs" / "schemas")
    make = workloads.WORKLOADS[args.workload]
    wl = make(args.seed, args.size, args.workdir / "ops", schemas)
    wl.prepare()
    # The warm-up op runs at the smoke size so that run.py can afford to
    # repeat the whole set-up in three fresh processes per run.
    warm = make(args.seed, "smoke", args.workdir / "warmup", schemas)
    warm.prepare()
    execute(warm, 0)
    warm.check(0)
    result = {"ready": time.monotonic(), "reference_s": reference_seconds()}
    if args.setup_only:
        return result

    bench = Run(wl)
    traced = bool(args.trace)
    bench.loop(args.seconds / 2 if traced else args.seconds)
    if traced:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            bench.loop(args.seconds / 2, tracer)
        scale = statistics.median(bench.traced_scale)
        layers = tracing.layer_metrics(tracer.spans)
        for name, value in layers.items():
            if tracing.PER_LAYER[name] in tracing.TIME_UNITS:
                layers[name] = value * scale
        layers["trace_overhead_frac"] = (
            statistics.median(bench.traced_op_s)
            / statistics.median(bench.op_s) - 1.0)
        result["layers"] = layers
        tracer.write(ROOT / "perfbench" / ".work" / "spans"
                     / f"{args.workload}.jsonl")
    bench.rerun_first()
    result.update(
        op_s=bench.op_s, raw_op_s=bench.raw_op_s, call_s=bench.call_s,
        attempted=bench.attempted,
        failed=len(bench.problems), problems=bench.problems,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__})
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    args.result.write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
