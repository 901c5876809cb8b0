"""Benchmark of the asymflat CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in
a fresh process (worker.py) with BLAS pinned to one thread: it imports
asymflat, builds the workload's GBC contexts, then calls the CLI's
`main(argv)` once per generated config file.  Passes repeat, one client in a
closed loop, until the next one would end after S seconds (at least three
passes, four when traced).  Every results JSON is checked against its closed
form and against the bytes of the first pass.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (one operation per invariant or identity check) and
`metrics`, the medians over passes.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` untraced and traced passes alternate and
the metrics are the per-layer ones of the traced passes.  Exit code 1 when a
pass cannot run at all; then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170  # a run gives up this long after it starts
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit, reported with --trace 0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# name -> unit, reported with --trace 1 besides tracer.LAYER_METRICS
RUN_LAYER_METRICS = {"trace.overhead_frac": "ratio", "check.max_err": "abs"}


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


def write_inputs(workload: workloads.Workload, workdir: Path) -> list[Path]:
    paths = []
    for i, cmd in enumerate(workload.commands):
        path = workdir / "inputs" / f"cmd{i}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cmd.config, sort_keys=True))
        paths.append(path)
    return paths


def run_pass(workload: workloads.Workload, inputs: list[Path], workdir: Path,
             index: int, traced: bool, deadline: float) -> dict:
    """Run one pass in a fresh process; return its timings and raw outputs."""
    pdir = workdir / f"pass{index}"
    # the results JSON echoes the config, `out` included, so every pass
    # writes to the same directories
    outs = [workdir / "out" / f"cmd{i}" for i in range(len(inputs))]
    spec = {
        "src": str(SRC),
        "contexts": [list(c) for c in workload.contexts],
        "commands": [[cmd.command, "--config", str(path), "--out", str(out)]
                     for cmd, path, out in zip(workload.commands, inputs, outs)],
        "trace": traced,
        "trace_file": str(pdir / "trace.json"),
        "result_file": str(pdir / "result.json"),
    }
    pdir.mkdir(parents=True)
    spec_path = pdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_ENV})
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(spec_path)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not end within {DEADLINE_S} s of the start")
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(Path(spec["result_file"]).read_text())
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    result["outputs"] = []
    for cmd, out in zip(workload.commands, outs):
        path = out / f"{cmd.command}.json"
        result["outputs"].append(path.read_bytes() if path.exists() else None)
    if traced:
        doc = json.loads(Path(spec["trace_file"]).read_text())
        result["layers"] = tracer.layer_metrics(doc)
        result["missing"] = doc["missing"]
    shutil.rmtree(pdir)
    shutil.rmtree(workdir / "out", ignore_errors=True)
    return result


def check_pass(workload: workloads.Workload, result: dict,
               reference: list) -> list[workloads.Op]:
    """Operations of one pass; `reference` holds the first pass's outputs."""
    ops = []
    for i, cmd in enumerate(workload.commands):
        status, data = result["commands"][i], result["outputs"][i]
        if status["error"] is not None:
            ops += workloads.failed_ops(cmd, status["error"].strip().splitlines()[-1])
        elif status["rc"] != 0:
            ops += workloads.failed_ops(cmd, f"exit code {status['rc']}")
        elif data is None:
            ops += workloads.failed_ops(cmd, "no results JSON written")
        elif reference[i] is not None and data != reference[i]:
            ops += workloads.failed_ops(cmd, "results JSON differs between passes")
        else:
            try:
                ops += workloads.check_results(cmd, json.loads(data))
            except (KeyError, TypeError, ValueError) as exc:
                ops += workloads.failed_ops(cmd, f"malformed results: {exc!r}")
    return ops


def measure(workload: workloads.Workload, seconds: float, trace: bool,
            workdir: Path, deadline: float) -> tuple[list, list]:
    inputs = write_inputs(workload, workdir)
    min_passes = 4 if trace else 3
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, inputs, workdir, len(passes), traced,
                               deadline))
        elapsed = time.monotonic() - start
        if (len(passes) >= min_passes
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    reference = passes[0]["outputs"]
    ops = [op for p in passes for op in check_pass(workload, p, reference)]
    return passes, ops


def summarize(passes: list, ops: list, trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    failed = sum(not op.ok for op in ops)
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": unit}
                   for name, unit in tracer.LAYER_METRICS.items()}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1.0)
        for name, value in (("trace.overhead_frac", overhead),
                            ("check.max_err", workloads.max_err(ops))):
            metrics[name] = {"value": value, "unit": RUN_LAYER_METRICS[name]}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in plain),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so that the running pass is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "asymflat" / "__init__.py").is_file():
        print(f"error: no asymflat source tree under {SRC}", file=sys.stderr)
        return 1

    workload = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        passes, ops = measure(workload, args.seconds, bool(args.trace), workdir,
                              deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(passes, ops, bool(args.trace))
    for name in sorted({op.name for op in ops if not op.ok})[:20]:
        print(f"# FAILED {name}", file=sys.stderr)
    missing = sorted({m for p in passes for m in p.get("missing", [])})
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print("# " + json.dumps({
        "workload": workload.name, "seed": args.seed, "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "fail_frac": summary["failed"] / summary["attempted"],
        "max_err": workloads.max_err(ops),
        "untraced_wall_s": [round(p["wall_s"], 4) for p in passes if not p["traced"]],
        "setup_s": [round(p["setup_s"], 4) for p in passes if not p["traced"]],
        "cpu_s": [round(p["cpu_s"], 4) for p in passes if not p["traced"]],
        "sys_s": [round(p["sys_s"], 4) for p in passes if not p["traced"]],
        "not_traced": missing}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
