"""flowprover benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train-gfn --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the run sets up, then runs whole rounds of the workload
untraced, as many as fit in ``--seconds`` at the workload's nominal round
time (at least one), and reports the end-to-end metrics over all of them.
The round count depends on ``--seconds`` only, so two commits measure the
same work. With ``--trace 1`` it sets up, runs one untraced and one traced
round, and reports the per-layer metrics with the tracing overhead. Metric
units are those declared in BENCHMARK.json.
The last line of standard output is the result object; a ``record:`` line
before it carries the environment, the set-up and round times and the
``clock="off"`` output digests, and is appended to ``perfbench/out/runs.jsonl``.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads: the matrices are at most
# 164x128, and threaded BLAS on a small shared VM only adds variance.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
MIN_TAIL = 10  # samples that must lie beyond the reported tail percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import flowprover from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "flowprover" / "__init__.py").is_file():
        raise SystemExit(f"error: no flowprover sources under {src}")
    sys.path.insert(0, str(src))
    import flowprover

    if Path(flowprover.__file__).resolve().parent != src / "flowprover":
        raise SystemExit(f"error: flowprover imported from {flowprover.__file__}")


def read_cpu_times():
    """Aggregate CPU jiffies from /proc/stat (None where it is unreadable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return dict(zip(names, (int(x) for x in fields[1:9])))


def environment(numpy) -> dict:
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def steal(before, after) -> dict | None:
    if before is None or after is None:
        return None
    delta = {k: after[k] - before[k] for k in before}
    total = sum(delta.values()) or 1
    return {"steal_jiffies": delta["steal"], "steal_share": delta["steal"] / total,
            "steal_per_user": delta["steal"] / (delta["user"] or 1)}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def end_to_end(rounds, setup) -> dict[str, float]:
    """Figures over every round of the run. Every round repeats the same
    operations, so an operation's latency is the mean of its timings across
    the rounds; the percentiles are taken over these. The throughput is that
    of all rounds together. Operations that raised have no timing and are
    left out of the latencies."""
    op_ms = sorted(statistics.fmean(times) for times in zip(*(r.op_ms for r in rounds)))
    if len(op_ms) < 100 * MIN_TAIL:
        raise RuntimeError(f"{len(op_ms)} timed operations per round; p99 needs {100 * MIN_TAIL}")
    return {
        "ops_per_s": sum(r.ops for r in rounds) / sum(r.seconds for r in rounds),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p99": percentile(op_ms, 0.99),
        "setup_s": statistics.median(setup.seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_round(workload, state, seed: int, workdir: Path):
    from tracing import Tracer

    with Tracer() as tracer:
        rnd = workload.run_round(state, seed, workdir / "traced")
    return rnd, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import numpy

    import layers
    from workloads import WORKLOADS, run_setups

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cpu_before = read_cpu_times()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        setup = run_setups(workload, args.seed, workdir, SETUP_REPEATS)
        repeats = 1 if args.trace else max(1, math.floor(args.seconds / workload.round_s))
        rounds = [workload.run_round(setup.state, args.seed, workdir / f"round{i}")
                  for i in range(repeats)]
        if args.trace:
            rnd, tracer = traced_round(workload, setup.state, args.seed, workdir)
            rounds.append(rnd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    found, failed_ops = workload.checks(setup.state, args.seed, rounds[0])
    problems = found + [f"round {i} outputs differ from round 0"
                        for i, r in enumerate(rounds) if r.digests != rounds[0].digests]
    problems += [f"set-up {i} differs from set-up 0"
                 for i, d in enumerate(setup.digests) if d != setup.digests[0]]
    # every round repeats the checked outputs, so their failures too
    failed = sum(r.failed for r in rounds) + failed_ops * len(rounds)

    if args.trace:
        values, absent = layers.per_layer(workload, rounds[0], rounds[-1], tracer, setup)
    else:
        values, absent = end_to_end(rounds, setup), []
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(numpy),
        "steal": steal(cpu_before, read_cpu_times()),
        "setup_s": setup.seconds, "setup_layers_s": setup.layer_seconds,
        "setup_digests": setup.digests[0],
        "rounds": [{"ops": r.ops, "failed": r.failed, "seconds": r.seconds} for r in rounds],
        "digests": rounds[0].digests, "absent": absent, "problems": problems[:20],
    }
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
