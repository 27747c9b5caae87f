"""Run perfbench on two checkouts in alternating pairs and compare them.

`bench_pairs.py OLD NEW --workload exact --seeds 41 42 43 --seconds 60`
runs `perfbench/run.py` of each checkout once per seed, OLD first on odd
pairs and NEW first on even ones. From each run's last JSON line it prints,
per end-to-end metric, each side's median [quartiles], the pairs NEW won
and a verdict, with each metric's direction and bound taken from NEW's
BENCHMARK.json:
- unresolved: OLD's quartile spread is wider than the bound times its
  median, and not every NEW run is better than every OLD run;
- regression: NEW's median is worse than OLD's by more than the bound
  times OLD's median;
- gain: NEW won at least 9 in 10 pairs, ties counting for neither, and
  its median is better than OLD's by more than OLD's quartile spread;
- else within bound."""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])["metrics"]


def spread(values: list) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(old: list, new: list, wins: int, up: bool, bound: float) -> str:
    q1, median, q3 = statistics.quantiles(old, n=4, method="inclusive")
    # the gap of NEW's median over OLD's, positive when NEW is better
    gap = (statistics.median(new) - median) * (1 if up else -1)
    apart = min(new) > max(old) if up else max(new) < min(old)
    if q3 - q1 > bound * median and not apart:
        return "unresolved"
    if gap < -bound * median:
        return "regression"
    if wins >= 0.9 * len(old) and gap > q3 - q1:
        return "gain"
    return "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="CHECKOUT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    bench = json.loads(Path(args.trees[1], "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"] == "higher", m["bound"])
               for m in bench["end_to_end"]}
    pairs = []
    for i, seed in enumerate(args.seeds, 1):
        order = args.trees if i % 2 else args.trees[::-1]
        got = {tree: run(tree, args.workload, seed, args.seconds)
               for tree in order}
        old, new = got[args.trees[0]], got[args.trees[1]]
        pairs.append((old, new))
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{name} {old[name]['value']:.4g} -> {new[name]['value']:.4g}"
            for name in metrics), flush=True)
    for name, (up, bound) in metrics.items():
        old = [a[name]["value"] for a, _ in pairs]
        new = [b[name]["value"] for _, b in pairs]
        wins = sum((b > a) if up else (b < a) for a, b in zip(old, new))
        print(f"{name}: {spread(old)} -> {spread(new)}, "
              f"wins {wins}/{len(pairs)}, "
              f"{verdict(old, new, wins, up, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
