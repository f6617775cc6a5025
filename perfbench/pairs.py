"""Compare two checkouts with identical benchmark code, in alternating pairs.

Each checkout is a source tree (``src/``) with this ``perfbench/``
directory copied in.  Pair i runs checkout A then B when i is even and B
then A when i is odd, so drift in the host's speed hits both sides::

    python3 perfbench/pairs.py --a ../old --b ../new --workload fault-bound \
        --pairs 10 --seconds 20 --seed 1

It prints, for each end-to-end metric, each side's median and quartiles,
how many pairs B won, and the raw values, as one JSON document.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

#: End-to-end metrics where a smaller value is better.
LOWER_IS_BETTER = {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def run_once(root, args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: run in {root} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="baseline checkout root")
    parser.add_argument("--b", required=True, help="candidate checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = {"a": [], "b": []}
    for index in range(args.pairs):
        order = ("a", "b") if index % 2 == 0 else ("b", "a")
        for side in order:
            result = run_once(getattr(args, side), args)
            if not result["correct"]:
                raise SystemExit(f"error: {side} produced incorrect results")
            runs[side].append({k: m["value"] for k, m in result["metrics"].items()})
            print(f"pair {index} {side}: wall_s "
                  f"{runs[side][-1]['wall_s']:.3f}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs, "metrics": {}}
    for name in runs["a"][0]:
        a = [run[name] for run in runs["a"]]
        b = [run[name] for run in runs["b"]]
        sign = -1 if name in LOWER_IS_BETTER else 1
        report["metrics"][name] = {
            "a": summarize(a),
            "b": summarize(b),
            "b_wins": sum(1 for x, y in zip(a, b) if sign * (y - x) > 0),
            "a_values": a,
            "b_values": b,
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
