"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bose_roots --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

Run it from anywhere inside a checkout that holds src/szilard.

With --trace 0 a run times SETUP_RUNS fresh interpreters that import
szilard.cli and build and validate the workload's specs, then repeats passes
over the workload's sweeps for --seconds.  It reports the end-to-end metrics
as medians: `setup_s` over the interpreters, the rest over the passes.
Every time is taken at the reference speed (see `_probe`): the cores are
shared with other tenants, and raw times swing by 2x from one minute to the
next.  With --trace 1 a run alternates plain and traced passes for
--seconds and reports the per-layer metrics of the traced ones (tracer.py)
plus the tracing overhead.

After the clocks stop, the first pass's CSVs are compared row by row with
the committed references (reference.py); every later pass's CSV bytes,
traced passes too, must equal bytes that matched, or are compared row by
row again.  The last line of standard output is one JSON object: correct,
attempted (grid points evaluated), failed (rows that did not match the
reference) and metrics.  The exit code is 0 only when every row matched.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from reference import Table, compare, key_columns, reference_path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_RUNS = 5
MIN_PASSES = 3
# _probe() on an otherwise idle core of the reference machine (Intel Xeon,
# 2.1 GHz, 2 vCPUs): about 20 ms, against about 33 ms when a neighbour
# shares the core.
PROBE_REF_S = 0.020

END_TO_END = {
    "sweep_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import szilard.cli
from szilard.sweeps import validate
from workloads import workload_specs
sys.exit(not all(validate(s).ok for s in workload_specs(sys.argv[3], int(sys.argv[4]))))
"""


def _time_setup(name, seed):
    started = perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE),
                    name, str(seed)], check=True, timeout=120, cwd=HERE)
    return perf_counter() - started


class Workload:
    """One workload's specs, references and the checks of its passes."""

    def __init__(self, name, specs):
        self.name = name
        self.specs = specs
        self.keys = {s.target: key_columns(s) for s in self.specs}
        self.expected = {s.target: Table.read(reference_path(s.target),
                                              self.keys[s.target])
                         for s in self.specs}
        self.outdir = WORK / name
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.checked = {}       # target -> CSV bytes that matched the reference
        self.points = 0         # grid points of one pass
        self.error_rows = 0     # of them, rows the program reports as failed
        self.max_rel_err = 0.0
        self.probe_s = 0.0      # median _probe() time of the run
        self.attempted = 0
        self.failed = 0

    def run_pass(self):
        """(wall s, CPU s, outcomes) of one pass, checked after the clocks stop."""
        import szilard.sweeps as sweeps

        wall, cpu = perf_counter(), process_time()
        outcomes = [sweeps.run_sweep(s, str(self.outdir / f"{s.target}.csv"))
                    for s in self.specs]
        wall, cpu = perf_counter() - wall, process_time() - cpu
        if not self.points:
            self.points = sum(o.points for o in outcomes)
            self.error_rows = sum(o.failed for o in outcomes)
        for outcome in outcomes:
            self._check(outcome)
        return wall, cpu, outcomes

    def _check(self, outcome):
        target = outcome.spec.target
        self.attempted += outcome.points
        data = Path(outcome.csv_path).read_bytes()
        if self.checked.get(target) == data:
            return
        produced = Table(data.decode("utf-8"), self.keys[target])
        err, bad = compare(produced, self.expected[target])
        self.max_rel_err = max(self.max_rel_err, err)
        self.failed += bad
        if not bad and target not in self.checked:
            self.checked[target] = data


def _probe():
    """Seconds taken by a fixed slice of interpreter and small-numpy work.

    The machine's cores are shared, and neighbours slow every process on a
    core by up to 2x for seconds at a time.  The probe runs before and after
    each timed interval; see `_at_reference_speed`.
    """
    started = perf_counter()
    total = 0.0
    for i in range(2000):
        levels = np.arange(1, 27 + i % 5) + 0.5
        x = np.minimum(levels ** 1.3 * (1.0 + i * 1e-6), 700.0)
        total += float(np.sum(1.0 / np.expm1(x)))
        total += math.lgamma(1.5 + i * 1e-3) + sum(k * 0.5 for k in range(10))
    return perf_counter() - started


def _at_reference_speed(times, probes):
    """Each time scaled by PROBE_REF_S over the mean of the probes around it.

    probes[i] ran just before times[i] and probes[i + 1] just after, so a
    time reads as it would on a core running at the reference speed.
    """
    return [t * 2.0 * PROBE_REF_S / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


def run_workload(name, seed, seconds, trace):
    """(metrics dict, Workload) for one workload."""
    from workloads import workload_specs

    work = Workload(name, workload_specs(name, seed))
    if trace:
        return _traced_metrics(work, seconds), work
    probes = [_probe()]
    setup = []
    for _ in range(SETUP_RUNS):
        setup.append(_time_setup(name, seed))
        probes.append(_probe())
    walls, cpus = [], []
    started = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - started < seconds:
        wall, cpu, _ = work.run_pass()
        probes.append(_probe())
        walls.append(wall)
        cpus.append(cpu)
    setup = _at_reference_speed(setup, probes[:SETUP_RUNS + 1])
    walls = _at_reference_speed(walls, probes[SETUP_RUNS:])
    cpus = _at_reference_speed(cpus, probes[SETUP_RUNS:])
    work.probe_s = statistics.median(probes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sweep_s": statistics.median(walls),
        "points_per_s": statistics.median(work.points / w for w in walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
    }, work


def _traced_metrics(work, seconds):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    probes = [_probe()]
    walls, layers = [], []
    started = perf_counter()
    while len(layers) < MIN_PASSES or perf_counter() - started < seconds:
        walls.append(work.run_pass()[0])
        probes.append(_probe())
        with tracer:
            wall, _, outcomes = work.run_pass()
        probes.append(_probe())
        walls.append(wall)
        spans = tracer.drain()
        layers.append(layer_metrics(spans, outcomes))
    spans.write_csv(WORK / f"{work.name}-spans.csv")
    walls = _at_reference_speed(walls, probes)
    work.probe_s = statistics.median(probes)
    metrics = {key: statistics.median(m[key] for m in layers)
               for key in layers[0]}
    metrics["sweeps.failed_share"] = work.error_rows / work.points
    metrics["sweeps.max_rel_err"] = work.max_rel_err
    metrics["trace_overhead"] = (statistics.median(walls[1::2])
                                 / statistics.median(walls[0::2]) - 1.0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "szilard" / "__init__.py").is_file():
        print(f"perfbench: no szilard package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import PER_LAYER
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; know "
                     f"{', '.join(WORKLOADS)}, all")
    units = PER_LAYER if args.trace else END_TO_END
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        values, work = run_workload(name, args.seed, args.seconds, args.trace)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (unit, _) in units.items():
            print(f"{name:14s} {key:44s} {values[key]:.6g} {unit}")
            report["metrics"][prefix + key] = {"value": values[key],
                                               "unit": unit}
        print(f"{name:14s} failed_share {work.error_rows}/{work.points},"
              f" checked {work.attempted} rows: {work.failed} mismatched,"
              f" max_rel_err {work.max_rel_err:.3g},"
              f" median probe {1e3 * work.probe_s:.1f} ms")
        report["correct"] &= work.failed == 0
        report["attempted"] += work.attempted
        report["failed"] += work.failed
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
