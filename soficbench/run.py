"""Run one soficlab benchmark workload and print its metrics.

    python3 soficbench/run.py --workload sofic-ladder --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run times set-up, then repeats the workload's operation list
for ``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
spends half the time untraced and half with every public function of the
package wrapped, reports the per-layer metrics (medians over the traced
passes) and the tracing overhead, then runs the reach probes and the
known-defect probes untraced.  The last line of standard output is one JSON
object; a record with the environment, every failure message and, for traced
runs, every span goes to ``soficbench/out/``.
"""

import os

# One thread: pin the BLAS pools before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "soficbench" / "out"
SETUP_REPEATS = 7
MIN_PASSES = 3


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        caches = {
            k.strip(): v.strip()
            for k, _, v in (line.partition(":") for line in lscpu.splitlines())
            if "cache" in k.lower()
        }
    except (OSError, subprocess.SubprocessError):
        caches = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def run_passes(wl, seconds: float, min_passes: int, pause=None, after_pass=None) -> list:
    """Repeat the operation list until ``seconds`` have passed (at least
    ``min_passes`` times)."""
    from soficbench.workloads import Ops

    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        ops = Ops(pause, wl.memory_bound)
        wl.run_pass(ops)
        passes.append(ops)
        if after_pass is not None:
            after_pass(ops)
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "soficlab").is_dir():
        print(f"soficbench: no package sources at {SRC / 'soficlab'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Set-up should time an import from bytecode, as a user's import is: the
    # first set-up compiles and caches (in src/soficlab/__pycache__), whatever
    # PYTHONDONTWRITEBYTECODE says, and the median skips it.
    sys.dont_write_bytecode = False
    from soficbench import layers, workloads
    from soficbench.recorder import Recorder

    if args.workload == "all":
        # one process per workload, so that each reports its own peak RSS
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"soficbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    setup_times, setup_raw = [], []

    def timed_setup(*_):
        _, secs, scaled = workloads.timed(wl.setup, wl.memory_bound)
        setup_raw.append(secs)
        setup_times.append(scaled)

    for _ in range(SETUP_REPEATS):
        timed_setup()
    if not Path(wl.sl.groups.__file__).resolve().is_relative_to(SRC):
        print(f"soficbench: imported soficlab from {wl.sl.groups.__file__}", file=sys.stderr)
        return 2
    wl.make_inputs(args.seed)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    log_lines: list[str] = []

    def log(line):
        log_lines.append(line)
        print(line, flush=True)

    probe_ops, defect_ops = workloads.Ops(), workloads.Ops()
    if not args.trace:
        # one more set-up after every pass, so that the set-up median samples
        # the machine over the whole run, as the pass median does
        passes = run_passes(wl, args.seconds, MIN_PASSES, after_pass=timed_setup)
        units = dict(layers.END_TO_END)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.wall for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        plain = run_passes(wl, args.seconds / 2, 2)
        rec = Recorder()
        per_pass, spans = [], []

        def collect(ops):
            per_pass.append(layers.layer_metrics(rec.spans, ops.failures))
            spans.append(rec.span_records())
            rec.reset()

        rec.install(vars(wl.sl), layers.extra_targets(wl.sl), layers.ANNOTATORS)
        try:
            traced = run_passes(wl, args.seconds / 2, 2, rec.paused, collect)
        finally:
            rec.uninstall()
        passes = plain + traced
        units = dict(layers.PER_LAYER)
        values = {name: statistics.median(p[name] for p in per_pass) for name in units if name in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
            p.wall for p in plain
        )
        reach = wl.reach(probe_ops, log) if hasattr(wl, "reach") else {}
        for mode in workloads.REACH_FAMILIES:
            values[f"reach_d.{mode}"] = reach.get(f"reach_d.{mode}", 0.0)
        if hasattr(wl, "defect_probes"):
            wl.defect_probes(defect_ops)
        for module, _ in probe_ops.failures + defect_ops.failures:
            values[f"{module}.failed"] += 1
        record["spans"] = spans

    attempted = sum(p.attempted for p in passes) + probe_ops.attempted
    failures = [f for p in passes for f in p.failures] + probe_ops.failures
    for _, message in failures:
        log(f"failed: {message}")
    for _, message in defect_ops.failures:
        log(f"known defect: {message}")
    record.update(
        environment=environment(),
        setup_times=setup_times,
        setup_raw=setup_raw,
        walls=[p.wall for p in passes],
        raw_walls=[p.raw_wall for p in passes],
        op_seconds=[[t for _, t in p.times] for p in passes],
        op_names=[n for n, _ in passes[0].times],
        failures=[m for _, m in failures],
        known_defects=[m for _, m in defect_ops.failures],
        log=log_lines,
    )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str))
    print(f"env: {json.dumps(record['environment'])}")
    print(
        f"measured (not reference-speed) seconds: setup {statistics.median(setup_raw):.6g} s, "
        f"pass {statistics.median(p.raw_wall for p in passes):.6g} s"
    )
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
