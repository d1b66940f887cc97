"""kolgas benchmark: one workload, one seed, a closed loop of CLI ops.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): relax, joule, audit, sweep.  One
single-threaded client drives ``kolgas.cli.main`` in-process in a fresh
worker process, with the BLAS/OpenMP thread counts pinned to 1.  Each
op's artifacts are checked outside the timed region, and op 0 is rerun at
the end to check that its artifacts are byte-identical.

Every reported time is in seconds at reference speed.  The speed of a
shared machine drifts by up to 2x over minutes, and a fixed interpreter
loop that uses no kolgas code (worker.reference_seconds) drifts with it,
so each op, and each set-up, is scaled by REFERENCE_S over that loop's
time measured beside it.  The wall-clock median is printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with spans around every layer call, and reports
the per-layer metrics (see tracer.py).  Set-up is measured three times,
in three fresh processes, and reported as the median.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the op count, the failures and the derived criterion
projections.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from worker import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("relax", "joule", "audit", "sweep")
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
SETUPS = 3
DEADLINE_S = 170.0

END_TO_END = {"op_s.p50": "s", "ops_per_s": "1/s", "setup_s": "s",
              "peak_rss_mib": "MiB"}


def source_digest() -> str:
    """SHA-256 over the kolgas sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "kolgas").glob("*")):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def spawn(args: argparse.Namespace, size: str, workdir: Path, index: int,
          setup_only: bool, deadline: float) -> dict:
    """Start one worker process, wait for it, and return its result with
    ``setup_s``: spawn to ready on the system-wide monotonic clock, scaled
    by the reference loop the worker timed once ready."""
    result = workdir / f"result-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", size, "--workdir", str(workdir / f"w{index}"),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_ENV}
    t0 = time.monotonic()
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - t0))
    out = json.loads(result.read_text())
    out["setup_s"] = (out["ready"] - t0) * REFERENCE_S / out["reference_s"]
    return out


def metrics(args: argparse.Namespace, result: dict,
            setup_s: list[float]) -> dict[str, dict]:
    """The metrics of the final line: end-to-end, or per-layer if traced."""
    if args.trace:
        return {name: {"value": result["layers"][name], "unit": unit}
                for name, unit in tracer.PER_LAYER.items()}
    op_s = result["op_s"]
    values = {"op_s.p50": statistics.median(op_s),
              "ops_per_s": len(op_s) / sum(op_s),
              "setup_s": statistics.median(setup_s),
              "peak_rss_mib": result["peak_rss_mib"]}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def report(args: argparse.Namespace, result: dict, setup_s: list[float],
           load_1m: float) -> None:
    """Print the human-readable lines that precede the result line."""
    env = {"git_sha": git_sha(), "source_sha256": source_digest(),
           **result["versions"], "cpu_count": os.cpu_count(),
           "threads": THREAD_ENV, "loadavg_1m_at_start": load_1m}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    op_s, raw = result["op_s"], result["raw_op_s"]
    print(f"set-ups: {len(setup_s)}, setup_s each: "
          + ", ".join(f"{s:.3f}" for s in setup_s))
    print(f"untraced ops: {len(op_s)}, op_s.p50 {statistics.median(op_s):.4f}"
          f" s, min {min(op_s):.4f} s, max {max(op_s):.4f} s; wall-clock "
          f"p50 {statistics.median(raw):.4f} s (machine speed "
          f"{statistics.median(op_s) / statistics.median(raw):.3f} "
          f"of reference)")
    print(f"fail_frac = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4g}")
    for problem in result["problems"][:10]:
        print(f"  failed: {problem}")
    calls = {k: statistics.median(v) for k, v in result["call_s"].items()}
    if args.workload == "relax":
        proj = 100 * (calls["rough"] + calls["smooth"])
        print(f"derived: projected criterion-10 time = 100 x (rough "
              f"{calls['rough']:.3f} s + smooth {calls['smooth']:.3f} s) = "
              f"{proj:.0f} s (cap 600 s, target 120 s)")
    elif args.workload == "joule":
        proj = 100 * statistics.median(op_s)
        print(f"derived: projected criterion-11 time = 100 x op_s.p50 = "
              f"{proj:.0f} s (cap 600 s, target 120 s)")


def main(argv: list[str] | None = None, size: str = "full") -> int:
    p = argparse.ArgumentParser(description="kolgas benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kolgas" / "cli.py").is_file() or \
            not (ROOT / "docs" / "schemas").is_dir():
        print(f"perfbench: no kolgas source tree under {ROOT}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_1m = os.getloadavg()[0]
    work = ROOT / "perfbench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        setups = [spawn(args, size, workdir, i, True, deadline)
                  for i in range(SETUPS - 1)]
        run = spawn(args, size, workdir, SETUPS - 1, False, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = [s["setup_s"] for s in setups + [run]]
    report(args, run, setup_s, load_1m)
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": metrics(args, run, setup_s)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
