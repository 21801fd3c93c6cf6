"""One workload in one process: set up, time operations, check outputs.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and one thread per
numeric library. Prints one JSON object with the raw measurements.

``--write-inputs`` is the separate step that writes the ``cli_pipeline`` CSV
files, so that writing them does not set the measured process's peak RSS.

With ``--trace 0`` nothing is patched. With ``--trace 1`` untraced and traced
operations alternate in pairs, so the traced operations' per-layer numbers
come with the tracing overhead measured against untraced ones in the same
process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np  # noqa: F401  (imported before timing the program's import)

SETUP_REPEATS = 3
MIN_OPS = 3  # untraced operations in a --trace 0 run
MIN_PAIRS = 2  # untraced/traced pairs in a --trace 1 run


def _import_program():
    t0 = time.perf_counter()
    import regionrules  # noqa: F401
    from regionrules import cli, extraction  # noqa: F401

    return time.perf_counter() - t0


def _setup(name: str, seed: int, workdir: Path):
    import workloads

    if name == "cli_pipeline":
        return workloads.CliInputs(seed, workdir)
    return workloads.GENERATORS[name](seed)


def write_inputs(seed: int, workdir: Path, repeats: int) -> dict:
    import workloads

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workloads.write_cli_inputs(seed, workdir)
        times.append(time.perf_counter() - t0)
    return {"write_s": times}


def _verify(work, inputs, out, seed: int) -> str:
    import workloads

    digest = work.verify(inputs, out)
    want = json.loads((Path(__file__).parent / "spec.json").read_text())["digests"].get(work.name)
    if seed == workloads.DEFAULT_SEED and digest != want:
        raise workloads.CheckFailed(f"digest {digest} != recorded {want}")
    return digest


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import_s = _import_program()
    import spans
    import workloads

    work = workloads.WORKLOADS[name]
    rec = spans.Recorder() if trace else None
    setup_root = None
    setup_s = []
    if trace:
        with rec.installed(), rec.root("setup") as setup_root:
            inputs = _setup(name, seed, workdir)
    else:
        for _ in range(SETUP_REPEATS):
            inputs = None  # free the previous inputs before building new ones
            t0 = time.perf_counter()
            inputs = _setup(name, seed, workdir)
            setup_s.append(time.perf_counter() - t0)

    ops = []  # (traced, seconds, output or None, error or None, root id)
    start = time.perf_counter()
    while True:
        # untraced, traced, traced, untraced, ...: drift over the run and the
        # first operation's warm-up do not fall on one side only
        traced = trace and len(ops) % 4 in (1, 2)
        root = None
        t0 = time.perf_counter()
        try:
            if traced:
                with rec.installed(), rec.root("op") as root:
                    out = work.op(inputs)
            else:
                out = work.op(inputs)
            err = None
        except Exception:  # an operation that raises is a failed operation
            out, err = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        ops.append((traced, dt, out, err, root))
        done = len(ops) >= (2 * MIN_PAIRS if trace else MIN_OPS)
        typical = statistics.median(o[1] for o in ops)
        if done and len(ops) % (2 if trace else 1) == 0 and (
            time.perf_counter() - start + typical * (2 if trace else 1) > seconds
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside the timed interval: every distinct output is verified
    # once, and every operation must reproduce the first one's output
    failures: dict[int, str] = {}
    verdicts = {}
    first = next((o[2] for o in ops if o[3] is None), None)
    digest = None
    for i, (traced, _, out, err, root) in enumerate(ops):
        if err is not None:
            failures[i] = f"raised\n{err}"
            continue
        if out not in verdicts:
            try:
                verdicts[out] = (True, _verify(work, inputs, out, seed))
            except Exception:
                verdicts[out] = (False, traceback.format_exc(limit=3))
        ok, detail = verdicts[out]
        if not ok:
            failures[i] = f"check failed\n{detail}"
        elif out != first:
            failures[i] = f"output differs from op 0 ({'traced' if traced else 'untraced'})"
        else:
            digest = detail
        if traced and i not in failures:
            problems = rec.identity_violations(root)
            if problems:
                failures[i] = "; ".join(problems)

    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rows": work.rows,
        "import_s": import_s,
        "setup_s": setup_s,
        "op_s": [o[1] for o in ops if not o[0]],
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
    }
    if trace:
        traced_ops = [(i, o) for i, o in enumerate(ops) if o[0] and o[3] is None]
        summaries = [rec.root_summary(o[4]) for _, o in traced_ops]
        counts = [
            {k: spans.LAYER_METRICS[k][2](s) for k in spans.EXACT_COUNTS} for s in summaries
        ]
        for (i, _), c in zip(traced_ops, counts):
            if c != counts[0]:
                failures.setdefault(i, f"work counts {c} differ from {counts[0]}")
        layers = {}
        if summaries:
            layers = spans.layer_metrics(summaries, rec.root_summary(setup_root))
            traced_p50 = statistics.median(o[1] for _, o in traced_ops)
            layers["trace_overhead"] = {
                "value": traced_p50 / statistics.median(result["op_s"]) - 1, "unit": "ratio",
            }
        result["op_s_traced"] = [o[1] for _, o in traced_ops]
        result["layers"] = layers
        result["absent"] = rec.absent
        rec.dump(workdir.parent / f"spans-{name}-seed{seed}.json",
                 {"workload": name, "seed": seed, "layers": layers})
    result["attempted"] = len(ops)
    result["failed"] = len(failures)
    result["failures"] = [f"op {i}: {msg}" for i, msg in sorted(failures.items())]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--write-inputs", type=int, default=0, metavar="REPEATS",
                   help="write the cli_pipeline CSV files this many times, timing each")
    args = p.parse_args(argv)
    if args.write_inputs:
        result = write_inputs(args.seed, args.workdir, args.write_inputs)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
