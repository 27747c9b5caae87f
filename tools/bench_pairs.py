"""Run perfbench on two checkouts in alternating pairs and compare them.

`bench_pairs.py OLD NEW --workload exact --seeds 41 42 43 --seconds 60`
runs `perfbench/run.py` of each checkout once per seed, OLD first on odd
pairs and NEW first on even ones. From each run's last JSON line it prints,
per end-to-end metric, each side's median [quartiles] and the pairs NEW
won, with the direction of each metric taken from NEW's BENCHMARK.json."""

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="CHECKOUT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    bench = json.loads(Path(args.trees[1], "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    pairs = []
    for i, seed in enumerate(args.seeds, 1):
        order = args.trees if i % 2 else args.trees[::-1]
        got = {tree: run(tree, args.workload, seed, args.seconds)
               for tree in order}
        old, new = got[args.trees[0]], got[args.trees[1]]
        pairs.append((old, new))
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{name} {old[name]['value']:.4g} -> {new[name]['value']:.4g}"
            for name in higher), flush=True)
    for name, up in higher.items():
        old = [a[name]["value"] for a, _ in pairs]
        new = [b[name]["value"] for _, b in pairs]
        wins = sum((b > a) if up else (b < a) for a, b in zip(old, new))
        print(f"{name}: {spread(old)} -> {spread(new)}, "
              f"wins {wins}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
