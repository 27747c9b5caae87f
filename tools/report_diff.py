"""Print every perfbench job whose report differs between two src/ trees.

`report_diff.py OLD_SRC NEW_SRC --seeds 1 2 3 --argv verify` runs the
`solve` and `exact` pools of each seed (perfbench/workloads.py) and one job
per --argv line through `bealloc.cli.main` in process, one fresh
interpreter per tree. Exits 1 if an exit code, stdout or stderr differs."""

import argparse
import json
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, build_pool  # noqa: E402

CHILD = """import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from bealloc import cli
def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (SystemExit, Exception) as exc:  # argparse's exit, or a crash
            code = exc.code if isinstance(exc, SystemExit) else repr(exc)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
json.dump([run(argv) for argv in json.load(sys.stdin)], sys.stdout)"""


def run(src: str, argvs: list) -> list:
    return json.loads(subprocess.run(
        [sys.executable, "-c", CHILD, src], input=json.dumps(argvs),
        capture_output=True, text=True, check=True).stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="SRC")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--argv", action="append", default=[])
    args = parser.parse_args()
    jobs = {line: line.split() for line in args.argv}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in product(WORKLOADS, args.seeds):
            (workdir := Path(tmp, f"{workload}-{seed}")).mkdir()
            jobs.update((f"{workload} seed {seed} {job.id}", list(job.argv))
                        for job in build_pool(workload, seed, workdir))
        old, new = (run(src, list(jobs.values())) for src in args.trees)
    differ = [f"{name}: {', '.join(k for k in a if a[k] != b[k])} differ"
              for name, a, b in zip(jobs, old, new) if a != b]
    print("\n".join([*differ, f"{len(differ)} of {len(jobs)} jobs differ"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
