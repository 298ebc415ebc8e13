#!/usr/bin/env python3
"""Check that two trees print the same bytes for every benchmark op.

The ops of the scan2d, scan3d and docs6 workloads are generated once, by
the parent's ``perfbench/gen.py`` loaded by path, into a temporary
directory.  Then each tree runs every op once, one subprocess per tree and
workload, through that tree's own ``perfbench/run.py`` executor, and
reports a digest of each op's (exit code, output); an op that raises is
digested as its exception.  The script prints the number of ops compared
per workload and the first ops whose digests differ, and exits 1 when any
op differs.  No bytecode or other file is written into either tree.

usage: python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR [--seed N]
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("scan2d", "scan3d", "docs6")
SHOWN = 10  # differing ops printed at most

# Run in a subprocess with the ops directory as the working directory:
# argv is the tree, then the file the digests go to.
_RUNNER = r"""
import hashlib, json, os, sys
tree, out = sys.argv[1:3]
sys.path.insert(0, os.path.join(tree, "perfbench"))
import run
execute = run.make_executor(run.import_package())
with open("ops.json") as f:
    ops = json.load(f)["ops"]
results = []
for op in ops:
    try:
        code, text = execute(op)
    except Exception as exc:
        code, text = "raised", f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(json.dumps([code, text]).encode()).hexdigest()
    results.append([code, digest])
with open(out, "w") as f:
    json.dump(results, f)
"""


def load_generator(tree: str):
    """The tree's perfbench/gen.py as a module, loaded by path without
    writing its bytecode."""
    path = os.path.join(tree, "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = saved
    return gen


def run_ops(tree: str, ops_dir: str, out: str) -> List[Tuple[object, str]]:
    """(exit code, digest) of every op in ops_dir/ops.json, run by tree; the
    digests pass through the file out."""
    argv = [sys.executable, "-B", "-c", _RUNNER, os.path.abspath(tree), out]
    subprocess.run(argv, cwd=ops_dir, check=True)
    with open(out) as f:
        return [tuple(r) for r in json.load(f)]


def describe(op: dict) -> str:
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return f"fibre_correspondence {op['data']} {op['polytope']} {op['xi']}"


def compare(
    parent: str, change: str, workloads: Sequence[str] = WORKLOADS, seed: int = 1
) -> Tuple[Dict[str, int], List[str]]:
    """The number of ops compared per workload, and one line per differing op."""
    gen = load_generator(parent)
    counts: Dict[str, int] = {}
    diffs: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            ops_dir = os.path.join(tmp, workload)
            ops = gen.generate(workload, seed, ops_dir)
            before = run_ops(parent, ops_dir, os.path.join(tmp, f"{workload}-parent.json"))
            after = run_ops(change, ops_dir, os.path.join(tmp, f"{workload}-change.json"))
            counts[workload] = len(ops)
            for k, (op, p, c) in enumerate(zip(ops, before, after)):
                if p != c:
                    diffs.append(
                        f"{workload} op {k}: {describe(op)}: exit {p[0]} -> {c[0]}"
                        f"{'' if p[0] != c[0] else ', output differs'}"
                    )
    return counts, diffs


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    counts, diffs = compare(args.parent, args.change, WORKLOADS, args.seed)
    for workload, n in counts.items():
        print(f"{workload}: {n} ops")
    for line in diffs[:SHOWN]:
        print(line)
    print(f"{len(diffs)} differing ops")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
