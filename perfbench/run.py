"""Benchmark of the latact pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones, as the last
line of standard output: one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

# One BLAS thread: the load is one process, and on a shared 2-CPU machine a
# second BLAS thread is no faster here and adds noise. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def source_hash():
    """Hash of the program and of the benchmark, which pins the configs."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_digests(run, workload, seed):
    """Outputs must be byte-identical to those of earlier runs of the same
    workload and seed on the same sources (manifest timestamps excluded).
    Within a run, rounds are compared as they finish."""
    path = WORK / "digests" / f"{workload}-seed{seed}.json"
    src = source_hash()
    stored = json.loads(path.read_text()) if path.is_file() else {}
    known = stored.get("digests", {}) if stored.get("source") == src else {}
    for label, digest in run.digests.items():
        if known.get(label, digest) != digest:
            run.wrong += 1
            run.errors.append(f"{label}: outputs differ from an earlier run with seed {seed}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"source": src, "digests": {**known, **run.digests}}))
    os.replace(tmp, path)


def untraced(wl, args, work):
    run = wl.Run(args.seed, work)
    setups = [wl.timed_setup(run, args.workload, k) for k in range(wl.SETUP_REPEATS)]
    s = setups[-1][0]
    times = wl.run_window(run, args.workload, s, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.final_checks(run, args.workload)
    return run, {"round_s": statistics.median(times),
                 "setup_s": statistics.median([t for _, t in setups]),
                 "peak_rss_mb": peak_mb}


def traced(wl, args, work):
    import ops
    import tracing
    from latact.rng import stream
    from latact.worldgen import load_dataset

    run = wl.Run(args.seed, work)
    s, _ = wl.timed_setup(run, args.workload, "main")
    tracer = tracing.Tracer()
    missing = tracer.install()
    tracer.uninstall()
    if missing:
        print(f"perfbench: not traced, missing from the program: {missing}", file=sys.stderr)
    pairs = wl.paired_window(run, args.workload, s, args.seconds, tracer)
    # the other workloads' commands, once each and traced, so that every layer is covered
    for other in wl.WORKLOADS:
        if other != args.workload:
            s_other, _ = wl.timed_setup(run, other, "main")
            for op in wl.WORKLOADS[other][1](run, s_other, work / f"{other}-cover"):
                wl.traced_execute(run, op, tracer)
    wl.final_checks(run, args.workload)
    work_done = {"gen": wl.N_EPISODES, "train": wl.PRETRAIN_STEPS + wl.SCAR_STEPS,
                 "eval": 2 * 2 * wl.EVAL_EPISODES, "a2l": run.a2l_steps or 0}
    metrics = tracing.span_metrics(tracer, work_done)
    metrics.update(ops.op_timings(stream(args.seed, "perfbench-ops")))
    metrics.update(ops.model_figures(load_dataset(run.dataset), args.seed))
    metrics.update(overhead(pairs))
    tracer.dump(WORK / "traces" / f"{args.workload}.json")
    return run, metrics


def overhead(pairs):
    """Traced against untraced wall time of the same commands, run back to
    back. The standard error is that of the mean per-command overhead; an
    overhead within two of them is reported as unresolved."""
    ratio = sum(t for _, t in pairs) / sum(u for u, _ in pairs)
    rel = [t / u - 1 for u, t in pairs]
    se = statistics.stdev(rel) / math.sqrt(len(rel)) if len(rel) > 1 else math.inf
    verdict = "resolved" if abs(ratio - 1) > 2 * se else "unresolved, within 2 standard errors"
    print(f"perfbench: tracing overhead {100 * (ratio - 1):+.2f}% "
          f"(standard error {100 * se:.2f}%, {len(pairs)} command pairs): {verdict}",
          file=sys.stderr)
    return {"trace.overhead_ratio": ratio, "trace.overhead_ratio_se": se}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latact" / "cli.py").is_file():
        print(f"perfbench: no latact sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads as wl

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run, values = (traced if args.trace else untraced)(wl, args, work)
        compare_digests(run, args.workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in run.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print("perfbench: command wall times (s): " + json.dumps(
        {k: [round(t, 3) for t in v] for k, v in run.op_times.items()}), file=sys.stderr)
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
