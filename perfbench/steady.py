"""Steadiness check: run each workload N times and summarise every metric.

    python3 perfbench/steady.py --runs 10 [--workload verify ...] [--trace 0|1]
                                [--save set.json] [--against set.json]

Runs ``perfbench/run.py`` one run at a time, seeds ``1 .. N``, with the run
length from BENCHMARK.json. For every metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median
against the metric's bound; a spread above a third of the bound is marked
``wide``, above the bound ``OVER``. ``--against`` compares medians with a
saved earlier set of the same seeds: each must lie within the bound of the
earlier one, either way. It also checks that the ``clock="off"`` digests of
each seed are identical and that the share of failed operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = next((json.loads(line[len("record: "):]) for line in lines
                   if line.startswith("record: ")), {})
    result = json.loads(lines[-1])
    result["digests"] = {**record.get("setup_digests", {}), **record.get("digests", {})}
    return result


def spread_of(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save")
    p.add_argument("--against")
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    saved = {}
    ok = True
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            t0 = time.monotonic()
            results.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr)
        saved[workload] = results
        bad = [r for r in results if not r["correct"]]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, {len(bad)} incorrect, "
              f"failed share {shares}")
        ok &= not bad and len(shares) == 1
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, q1, q3, spread = spread_of(values)
            line = (f"  {name:42s} {med:12.5g} {unit:9s} q1 {q1:10.5g} q3 {q3:10.5g} "
                    f"spread {spread:6.3f}")
            bound = bounds.get(name)
            if bound:
                mark = "ok" if spread <= bound["bound"] / 3 else (
                    "wide" if spread <= bound["bound"] else "OVER")
                line += f" bound {bound['bound']:.3f} {mark}"
                ok &= spread <= bound["bound"]
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"]
                                           for r in earlier[workload])
                change = (med - before) / before if before else 0.0
                line += f" vs earlier {change:+.3f}"
                ok &= not bound or abs(change) <= bound["bound"]
            print(line)
        if workload in earlier:
            old_digests = [r["digests"] for r in earlier[workload]]
            same = old_digests == [r["digests"] for r in results]
            old_shares = sorted({r["failed"] / r["attempted"] for r in earlier[workload]})
            print(f"  digests identical to earlier set: {same}; "
                  f"failed share earlier {old_shares}")
            ok &= same and old_shares == shares
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
