#!/usr/bin/env python3
"""Compare two trees on one benchmark workload in alternating pairs of runs.

For each seed, run ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` once in each tree, each from its own root, one after
the other; the side that runs first alternates from pair to pair, so a
drift of the host does not favour one side.  The run length S, the metric
names, their better direction and their bounds come from the parent tree's
BENCHMARK.json; the script refuses to run when the change tree's file gives
other metrics or another run length.  The JSON written to --out holds, for
each end-to-end metric, every run, the median and quartiles of each side,
and the number of pairs each side won, and each tree's ``src/`` line count
(the lines of ``src/**/*.py``).

usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           --seeds A-B --out BENCH.json
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def load_benchmark(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def src_lines(tree: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _line in f)
    return total


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict, metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
    wins = {side: 0 for side in SIDES}
    for p, c in zip(values["parent"], values["change"]):
        if p != c:
            wins["change" if (c > p) == higher else "parent"] += 1
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side in SIDES:
        out[side] = {"runs": values[side], **summary(values[side])}
    out["pairs_won"] = wins
    parent = out["parent"]
    out["median_change"] = (out["change"]["median"] - parent["median"]) / parent["median"]
    out["parent_spread"] = (parent["q3"] - parent["q1"]) / parent["median"]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="an inclusive range A-B, B > A")
    ap.add_argument("--out", required=True, help="JSON file; a workload already in it is replaced")
    args = ap.parse_args()

    bench = load_benchmark(args.parent)
    other = load_benchmark(args.change)
    for key in ("end_to_end", "run_seconds"):
        if bench[key] != other[key]:
            sys.exit(f"the two trees' BENCHMARK.json differ in {key!r}; refusing to compare")
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    first, last = (int(x) for x in args.seeds.split("-"))
    if last <= first:
        sys.exit("--seeds needs at least two seeds, for quartiles")
    trees = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for k, seed in enumerate(range(first, last + 1)):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed, seconds))
            print(f"{args.workload} seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed N "
        f"--seconds {seconds:g} --trace 0",
        "seeds": [first, last],
        "first_in_pair": [SIDES[k % 2] for k in range(last - first + 1)],
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "all_correct": all(r["correct"] and r["failed"] == 0 for s in SIDES for r in runs[s]),
        "runs": runs,
        "metrics": {m["name"]: compare(runs, m) for m in metrics},
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
