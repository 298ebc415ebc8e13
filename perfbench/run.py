"""The hamfano benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload {scan2d,scan3d,docs6} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  The
caller replays a seeded cycle of ops (``gen.py``) through
``hamfano.cli.run(argv)`` and a few library calls, and checks every output
(``oracles.py``); a repeated op must print byte-identical output.

``--trace 0`` measures for S seconds of wall time with tracing off and
prints the end-to-end metrics, corrected for the host's speed
(``HostSpeed``).  ``--trace 1`` replays one cycle untraced and once under
the outside-in tracer (``tracer.py``) and prints the per-layer metrics; the
spans go to ``perfbench/_work/spans-<workload>.tsv``.  The last line of
stdout is the result object; progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

import gen  # noqa: E402  (benchmark-local modules, found next to this file)
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 15

# Per-layer names reported by the traced run, beyond "<module>.calls",
# "<module>.self_ms" and "<module>.share" for every traced module.
NAMED = {
    "cli": ["run", "load_document", "parse_fixed_point_data", "parse_polytope", "render_fixed_point_data"],
    "toric": [
        "LatticePolytope",
        "fixed_data_from_polytope",
        "delzant_check",
        "LatticePolytope.vertex_edges",
        "boundary_selfint_2d",
        "delpezzo_lemma_suite",
        "karshon_graph",
        "primitive_directions",
    ],
    "fixed_data": ["validate", "FixedComponent", "FixedPointData", "as_rational"],
    "localization": ["abbv_sum_4d", "abbv_sum_6d", "weight_sum_normalize", "chi_y", "gradient_sphere_area"],
    "dh": ["dh_function_toric", "positivity_check", "reduced_volume"],
    "fano6": [
        "surface_graph",
        "maximal_downward_chains",
        "type_abc_classify",
        "small_hamiltonian_suite",
        "cycle_inequality",
        "fibre_correspondence",
        "sphere_area_vs_fibre",
    ],
    "graphs": ["first_isomorphism", "is_mapping_isomorphism", "nontrivial_involutions"],
}


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "directions_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for mod in tracing.MODULES:
        units.update({f"{mod}.calls": "count", f"{mod}.self_ms": "ms", f"{mod}.share": "ratio"})
        for name in NAMED[mod]:
            units.update({f"{mod}.{name}.calls": "count", f"{mod}.{name}.self_ms": "ms"})
    units.update(
        {
            "cli.out_bytes": "bytes",
            "toric.supported_ratio": "ratio",
            "graphs.LabelledGraph.edge_weight.calls": "count",
            "trace.untraced_ops_per_s": "1/s",
            "trace.traced_ops_per_s": "1/s",
        }
    )
    return units


# -- the program under test ---------------------------------------------------------


def import_package():
    """Import hamfano from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "hamfano", "cli.py")):
        sys.exit(f"run.py: no hamfano sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import hamfano.cli

    if not os.path.abspath(hamfano.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported hamfano from {hamfano.cli.__file__}, not from {SRC}")
    return hamfano


def make_executor(hamfano) -> Callable[[dict], Tuple[int, str]]:
    cli = hamfano.cli

    def execute(op: dict) -> Tuple[int, str]:
        if op["kind"] == "cli":
            return cli.run(op["argv"])
        # The fibre correspondence has no CLI command: call the library the
        # way a user's script would and render what it returns.
        data = cli.load_fixed_point_data(op["data"])
        fibre = cli.load_polytope(op["polytope"])
        graph, _ = hamfano.fano6.surface_graph(data)
        result = hamfano.fano6.fibre_correspondence(graph, hamfano.toric.karshon_graph(fibre, tuple(op["xi"])))
        return 0, json.dumps(
            {
                "case": result.case,
                "mapping": dict(sorted(result.mapping.items())),
                "ok": result.report.ok,
                "violations": [v.code for v in result.report.violations],
            }
        )

    return execute


class Checker:
    """Checks each op's first output with the oracles and every repeat for
    byte equality with the first; counts attempts and failures."""

    def __init__(self, ops: List[dict]):
        self.ops = ops
        self.digests: Dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, k: int, outcome: Optional[Tuple[int, str]], error: Optional[str]) -> None:
        self.attempted += 1
        if error is None:
            code, text = outcome
            digest = hashlib.blake2b(f"{code}\n{text}".encode(), digest_size=16).digest()
            if k not in self.digests:
                self.digests[k] = digest
                problems = oracles.check(self.ops[k], code, text)
            elif self.digests[k] != digest:
                problems = ["output differs from the first run of the same op"]
            else:
                problems = []
        else:
            problems = [error]
        if problems:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED op {k} {self._describe(k)}: {problems[:3]}", file=sys.stderr)

    def _describe(self, k: int) -> str:
        op = self.ops[k]
        return " ".join(op["argv"]) if op["kind"] == "cli" else f"fibre_correspondence {op['data']}"


def timed_call(execute, op) -> Tuple[int, Optional[Tuple[int, str]], Optional[str]]:
    t0 = time.perf_counter_ns()
    try:
        outcome, error = execute(op), None
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - t0, outcome, error


# -- host speed ------------------------------------------------------------------------
#
# The benchmark runs on shared hosts whose speed drifts by up to 80% over
# seconds to minutes, for all code alike, and no run is long enough to
# average that out.  The caller therefore also times a reference loop:
# fixed pure-Python work of the kinds the package does, in the benchmark's
# own code, so no change to the package moves it.  About REF_SHARE of the
# run goes to it, in short bursts between ops.  The op times of each cycle
# are scaled by REF_MS over the mean reference time during that cycle: a
# reported time is the op's time on a host where the loop takes REF_MS.

REF_MS = 1.0
REF_SHARE = 0.1
REF_ROUNDS = 300  # sized so the loop takes about REF_MS on a 2-CPU Xeon host


def reference_loop() -> int:
    """Fixed work: exact rationals, tuples, dicts, sorting and JSON text."""
    acc = Fraction(0)
    table: Dict[Tuple[int, int], int] = {}
    for i in range(1, REF_ROUNDS + 1):
        v = (i % 7 - 3, i % 5 - 2)
        acc += Fraction(v[0] * i, i % 11 + 1)
        table[v] = table.get(v, 0) + v[0] * v[1] + acc.numerator % 5
    return len(json.dumps(sorted(table.items()))) + acc.denominator % 3


class HostSpeed:
    """Times the reference loop between ops and turns the times of one
    cycle into the factor that scales that cycle's op times."""

    def __init__(self) -> None:
        self.owed_ns = 0.0
        self.cycle_ns: List[int] = []  # reference times since the last factor
        self.means_ns: List[float] = []  # one per factor taken

    def settle(self, op_ns: int) -> None:
        """Owe REF_SHARE of the time to the reference loop; pay what is owed."""
        self.owed_ns += op_ns * REF_SHARE / (1 - REF_SHARE)
        while self.owed_ns > 0:
            self.measure()

    def measure(self) -> None:
        t0 = time.perf_counter_ns()
        reference_loop()
        dt = time.perf_counter_ns() - t0
        self.cycle_ns.append(dt)
        self.owed_ns -= dt

    def take_factor(self) -> float:
        """REF_MS over the mean reference time since the last call.

        The mean, not the median: op times add up the host's slow and fast
        stretches in proportion, and so does the mean, while the median
        jumps to whichever state holds for most of the cycle.
        """
        if not self.cycle_ns:
            self.measure()
        self.means_ns.append(sum(self.cycle_ns) / len(self.cycle_ns))
        self.cycle_ns = []
        return REF_MS * 1e6 / self.means_ns[-1]


# -- end-to-end run ---------------------------------------------------------------------


def measure_setup() -> float:
    """Median wall time of a fresh interpreter through `import hamfano.cli`,
    each launch corrected for host speed like an op."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import hamfano.cli"]
    subprocess.run(cmd, check=True)  # leaves the bytecode cache warm, as installed code has
    host = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        subprocess.run(cmd, check=True)
        dt = time.perf_counter_ns() - t0
        host.settle(dt)
        times.append(dt / 1e9 * host.take_factor())
    return statistics.median(times)


def percentile(sorted_ns: List[float], q: float) -> float:
    """Nearest-rank percentile in milliseconds."""
    k = max(0, min(len(sorted_ns) - 1, int(round(q * len(sorted_ns))) - 1))
    return sorted_ns[k] / 1e6


def end_to_end(ops: List[dict], execute, seconds: float) -> Tuple[Checker, Dict[str, float]]:
    """Closed loop over the op cycle for `seconds` of wall time.

    Every complete cycle does the same work, so each metric is the median
    over complete cycles of that cycle's value, from op times corrected
    for host speed (see HostSpeed).  Only one cycle of latencies is held at
    a time, so the caller's memory does not grow with the number of ops.
    """
    checker = Checker(ops)
    n = len(ops)
    cycle_dirs = sum(op["dirs"] for op in ops)
    per_cycle: Dict[str, List[float]] = {"ops_per_s": [], "directions_per_s": [], "op_p50_ms": [], "op_p90_ms": []}
    uncorrected: List[float] = []
    host = HostSpeed()
    latencies: List[int] = []
    k = 0
    deadline = time.perf_counter_ns() + seconds * 1e9
    while time.perf_counter_ns() < deadline:
        dt, outcome, error = timed_call(execute, ops[k % n])
        checker.record(k % n, outcome, error)
        host.settle(dt)
        latencies.append(dt)
        k += 1
        if k % n == 0 or (k < n and time.perf_counter_ns() >= deadline):
            # a run slower than one cycle uses its partial cycle
            uncorrected.append(len(latencies) / (sum(latencies) / 1e9))
            dirs = cycle_dirs if k % n == 0 else sum(op["dirs"] for op in ops[:k])
            factor = host.take_factor()
            _add_cycle(per_cycle, [dt * factor for dt in latencies], dirs)
            latencies = []
    print(
        f"{k} ops, {k // n} complete cycles of {n}; reference loop "
        f"{statistics.median(host.means_ns) / 1e6:.3f} ms, uncorrected ops_per_s "
        f"{statistics.median(uncorrected):.4g} (medians over cycles)",
        file=sys.stderr,
    )
    return checker, {name: statistics.median(values) for name, values in per_cycle.items()}


def _add_cycle(per_cycle: Dict[str, List[float]], latencies: List[float], dirs: int) -> None:
    seconds = sum(latencies) / 1e9
    latencies.sort()
    per_cycle["ops_per_s"].append(len(latencies) / seconds)
    per_cycle["directions_per_s"].append(dirs / seconds)
    per_cycle["op_p50_ms"].append(percentile(latencies, 0.50))
    per_cycle["op_p90_ms"].append(percentile(latencies, 0.90))


# -- traced run -----------------------------------------------------------------------------


def traced(ops: List[dict], execute, workload: str) -> Tuple[Checker, Dict[str, float]]:
    """Replay one cycle untraced, then once traced; per-layer totals."""
    checker = Checker(ops)
    untraced_ns = 0
    for k, op in enumerate(ops):
        dt, outcome, error = timed_call(execute, op)
        checker.record(k, outcome, error)
        untraced_ns += dt

    tr = tracing.Tracer()
    out_bytes = 0
    tr.install()
    try:
        for k, op in enumerate(ops):
            dt, outcome, error = tr.run_op(k, lambda: timed_call(execute, op))
            checker.record(k, outcome, error)
            if op["kind"] == "cli" and outcome is not None:
                out_bytes += len(outcome[1].encode())
    finally:
        tr.uninstall()
    tr.write(os.path.join(WORK, f"spans-{workload}.tsv"))

    calls, self_ns = tr.totals()
    op_ns = sum(self_ns.values())  # self times add up to the op spans' durations
    metrics: Dict[str, float] = {}
    for mod in tracing.MODULES:
        mod_calls = sum(v for name, v in calls.items() if name.startswith(mod + "."))
        mod_ns = sum(v for name, v in self_ns.items() if name.startswith(mod + "."))
        metrics[f"{mod}.calls"] = mod_calls
        metrics[f"{mod}.self_ms"] = mod_ns / 1e6
        metrics[f"{mod}.share"] = mod_ns / op_ns
        for name in NAMED[mod]:
            metrics[f"{mod}.{name}.calls"] = calls[f"{mod}.{name}"]
            metrics[f"{mod}.{name}.self_ms"] = self_ns[f"{mod}.{name}"] / 1e6
    fd_calls = calls["toric.fixed_data_from_polytope"]
    fd_raised = tr.raised["toric.fixed_data_from_polytope"]
    metrics["cli.out_bytes"] = out_bytes
    metrics["toric.supported_ratio"] = (fd_calls - fd_raised) / fd_calls if fd_calls else 0.0
    metrics["graphs.LabelledGraph.edge_weight.calls"] = calls["graphs.LabelledGraph.edge_weight"]
    metrics["trace.untraced_ops_per_s"] = len(ops) / (untraced_ns / 1e9)
    metrics["trace.traced_ops_per_s"] = len(ops) / (op_ns / 1e9)
    return checker, metrics


# -- command line -------------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    hamfano = import_package()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    ops = gen.generate(args.workload, args.seed, work)
    os.chdir(work)  # ops name their input files relative to it
    execute = make_executor(hamfano)

    if args.trace:
        checker, values = traced(ops, execute, args.workload)
        units = per_layer_units()
    else:
        setup_s = measure_setup()
        checker, values = end_to_end(ops, execute, args.seconds)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
