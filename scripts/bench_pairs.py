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
(the lines of ``src/**/*.py``).  It also records whether both trees ran the
same harness: a digest of each tree's BENCHMARK.json and ``perfbench/*.py``,
and ``harness_identical``.  A difference is recorded, not refused, since a
change that claims no gain may change the harness; one that claims a gain
should read true.

Each metric also states the two rules a comparison is judged by.
``gain_shown``: the change won at least nine in ten of the pairs (a tie
counts for neither side), and its median moved the better way by more than
the parent's quartile spread q3 - q1.  ``within_bound``: the change's median
is not worse than the parent's by more than the metric's bound, a fraction
of the parent's median.  ``unresolved`` records when the runs spread too
widely for ``within_bound`` to tell: either side's quartile spread, (q3 -
q1) / median, exceeds the bound, and not every change run beats every parent
run.  It is recorded, not refused.

Each workload also records each side's ``failed_share``, its failed ops over
its attempted ops summed across its runs, and ``failed_share_rose``, whether the
change's share is higher than the parent's.  A rise is recorded, not refused.

usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           --seeds A-B --out BENCH.json
"""

import argparse
import glob
import hashlib
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


def harness_digest(tree: str) -> str:
    """SHA-256 over the tree's BENCHMARK.json and perfbench/*.py, each file's
    relative path, size and bytes, in path order."""
    paths = ["BENCHMARK.json"] + sorted(
        os.path.relpath(path, tree).replace(os.sep, "/")
        for path in glob.glob(os.path.join(tree, "perfbench", "*.py"))
    )
    digest = hashlib.sha256()
    for rel in paths:
        with open(os.path.join(tree, rel), "rb") as f:
            data = f.read()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def harness(trees: dict) -> dict:
    digests = {side: harness_digest(trees[side]) for side in SIDES}
    return {"harness_digest": digests, "harness_identical": digests["parent"] == digests["change"]}


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


def failures(runs: dict) -> dict:
    """Each side's failed ops over its attempted ops across its runs (None when it
    attempted none), and whether the change's share is higher."""
    share = {}
    for side in SIDES:
        attempted = sum(r["attempted"] for r in runs[side])
        share[side] = sum(r["failed"] for r in runs[side]) / attempted if attempted else None
    rose = None not in share.values() and share["change"] > share["parent"]
    return {"failed_share": share, "failed_share_rose": rose}


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
    gain = (out["change"]["median"] - parent["median"]) * (1 if higher else -1)
    out["gain_shown"] = (
        10 * wins["change"] >= 9 * len(values["change"]) and gain > parent["q3"] - parent["q1"]
    )
    out["within_bound"] = -gain <= metric["bound"] * parent["median"]
    spreads = [(out[side]["q3"] - out[side]["q1"]) / out[side]["median"] for side in SIDES]
    sign = 1 if higher else -1
    apart = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
    out["unresolved"] = max(spreads) > metric["bound"] and not apart
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
        **harness(trees),
        "all_correct": all(r["correct"] and r["failed"] == 0 for s in SIDES for r in runs[s]),
        **failures(runs),
        "runs": runs,
        "metrics": {m["name"]: compare(runs, m) for m in metrics},
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
