"""Benchmark of the regionrules rule search.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. NAME is ``numeric_search``,
``mixed_search``, ``cli_pipeline`` or ``all`` (each workload in turn). The
workload runs in a child process of its own with one thread per numeric
library; ``cli_pipeline`` first writes its CSV files in another child, so that
writing them does not set the measured process's peak RSS.

With ``--trace 0`` the operations run unpatched and the end-to-end metrics are
reported: ``op_s_p50``, ``rows_per_s``, ``peak_rss_mb`` and ``setup_s``.
With ``--trace 1`` the per-layer metrics of ``spans.LAYER_METRICS`` and
``trace_overhead`` are reported instead. Every operation's output is checked
outside the timed interval. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A checkout without
``src/regionrules`` exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("numeric_search", "mixed_search", "cli_pipeline")
DEADLINE_S = 175  # one workload, set-up and checks included
SETUP_REPEATS = 3


class ChildFailed(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{args[:2]} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args[:2]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    try:
        write_s = []
        if name == "cli_pipeline":
            repeats = 1 if trace else SETUP_REPEATS
            write_s = _child(common + ["--write-inputs", str(repeats)], deadline)["write_s"]
        result = _child(
            common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["write_s"] = write_s
    return result


def end_to_end(r: dict) -> dict:
    op = r["op_s"]
    setup = r["import_s"] + statistics.median(r["setup_s"])
    if r["write_s"]:
        setup += statistics.median(r["write_s"])
    return {
        "op_s_p50": {"value": statistics.median(op), "unit": "s", "n": len(op)},
        "rows_per_s": {"value": r["rows"] * len(op) / sum(op), "unit": "rows/s", "n": len(op)},
        "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB", "n": 1},
        "setup_s": {"value": setup, "unit": "s", "n": len(r["setup_s"])},
    }


# the layers each workload was chosen for, as a share of traced op time
DOMINANT = {
    "numeric_search": ("binning.grid_counts.s", "extraction.screen_interval.s"),
    "mixed_search": ("extraction.get_candidate_rules.categorical.s",),
    "cli_pipeline": ("tabular.load_csv.s",),
}


def report(r: dict) -> dict:
    name = r["workload"]
    head = f"[{name} seed={r['seed']} trace={r['trace']}]"
    print(f"{head} fail_ratio = {r['failed']}/{r['attempted']} = "
          f"{r['failed'] / r['attempted']:.4f}")
    for msg in r["failures"]:
        print(f"{head} FAILED {msg}", file=sys.stderr)
    samples = {"op_s": r["op_s"], "setup_s": r["setup_s"], "write_s": r["write_s"],
               "op_s_traced": r.get("op_s_traced", [])}
    print(f"{head} samples " + " ".join(
        f"{k}=[{', '.join(f'{v:.4g}' for v in vs)}]" for k, vs in samples.items() if vs))
    if not r["trace"]:
        metrics = end_to_end(r)
        for key, m in metrics.items():
            print(f"{head} {key} = {m['value']:.6g} {m['unit']} (n={m['n']})")
        return {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}
    metrics = r["layers"]
    for key, m in metrics.items():
        print(f"{head} {key} = {m['value']:.6g} {m['unit']}")
    for qualname in r["absent"]:
        print(f"{head} absent: {qualname}")
    if metrics:
        traced = statistics.median(r["op_s_traced"])
        share = sum(metrics[k]["value"] for k in DOMINANT[name]) / traced
        print(f"{head} {' + '.join(DOMINANT[name])} = {share:.1%} of traced op time "
              f"({traced:.4g} s, n={len(r['op_s_traced'])})")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "regionrules" / "__init__.py").is_file():
        print(f"no regionrules sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    metrics = {}
    for r in results:
        for key, m in report(r).items():
            metrics[key if len(results) == 1 else f"{r['workload']}.{key}"] = m
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and all(r["attempted"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
