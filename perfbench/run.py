"""Run one benchmark workload against the ``filaments`` package in ``src/``.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

The workloads (census, scan, hunt, dynamics) live in ``workloads.py``.
A run sets up (import, catalogue rules, inputs built from the seed), then
repeats the workload's pass until ``--seconds`` have gone by and reports
medians over the passes. Every output of every pass is checked against a
known answer; ``attempted`` and ``failed`` count the checked operations.
One caller, one process, no worker threads: the host has two cores and
shares them with others.

With ``--trace 0`` the run prints the end-to-end metrics named in
``BENCHMARK.json``. With ``--trace 1`` it alternates untraced and traced
passes, adds one ``tracemalloc`` pass for peak memory and the workload's
extra per-layer calls, and prints the per-layer metrics; a layer the
workload never calls reads 0. The tracing overhead is the median traced
pass minus the median untraced pass.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (run header,
every pass, any failed checks and, when traced, every span) is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(PERFBENCH, "out")

WORKLOADS = ("census", "scan", "hunt", "dynamics")
# Set-up is timed in this many fresh interpreters and the median reported:
# a single import varies by tens of percent on a shared host.
SETUP_SAMPLES = 5
MIN_PASSES = 3


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``filaments``."""
    if not os.path.isfile(os.path.join(SRC, "filaments", "__init__.py")):
        raise SystemExit(f"no filaments package under {SRC}: run from a full checkout")
    sys.path.insert(0, SRC)
    import filaments

    if not os.path.abspath(filaments.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported filaments from {filaments.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from importing the package to having the inputs built."""
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.BUILDERS[workload](seed, workloads.load_catalogue())
    return time.perf_counter() - start


def setup_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_header(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process",
    }


class Tally:
    """Checked operations, the failed ones, and what was wrong with them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, list[str]]] = []

    def check(self, ops, outputs, expected=None) -> int:
        """Check one pass's outputs and return the work they did.

        ``expected`` holds the summaries of an untraced pass; an output
        whose summary differs from it fails too.
        """
        work = 0
        for i, (op, out) in enumerate(zip(ops, outputs)):
            self.attempted += 1
            if isinstance(out, Exception):
                problems = [f"raised {out!r}"]
            else:
                try:
                    problems = op.check(out)
                    work += op.work(out)
                    if expected is not None and op.summary(out) != expected[i]:
                        problems.append("output differs from the untraced pass")
                except Exception as exc:  # a broken output must not stop the run
                    problems = [f"check raised {exc!r}"]
            if problems:
                self.failed += 1
                self.problems.append((op.label, problems))
        return work


def run_pass(ops) -> tuple[float, list]:
    outputs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.call())
        except Exception as exc:  # counted as a failed operation
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def summaries(ops, outputs) -> list:
    return [None if isinstance(out, Exception) else op.summary(out)
            for op, out in zip(ops, outputs)]


def end_to_end(setup: list[float], walls: list[float], rates: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "states_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(job, seconds: float, tally: Tally) -> tuple[list[float], list[float]]:
    walls, rates = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, outputs = run_pass(job.ops)
        work = tally.check(job.ops, outputs)
        walls.append(wall)
        rates.append(work / wall)
    return walls, rates


def measure_traced(job, seconds: float, tally: Tally, tracer):
    """Alternate untraced and traced passes; return both pass lists."""
    plain, traced, rates, pass_ids = [], [], [], []
    expected = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        wall, outputs = run_pass(job.ops)
        rates.append(tally.check(job.ops, outputs) / wall)
        plain.append(wall)
        if expected is None:
            expected = summaries(job.ops, outputs)
        tracer.run_id = f"pass-{len(traced)}"
        with tracer:
            wall, outputs = run_pass(job.ops)
        tally.check(job.ops, outputs, expected)
        traced.append(wall)
        pass_ids.append(tracer.run_id)
    return plain, traced, rates, pass_ids


def layer_metrics(tracer, times, memory, pass_ids, setup_ids, layer_ids, overhead) -> dict:
    from workloads import SCAN_LAYER_LENGTHS


    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def total(name, ids=pass_ids, part=0) -> float:
        return median(times[rid][name][part] if name in times[rid] else 0.0 for rid in ids)

    def count(key, ids=pass_ids) -> float:
        return median(tracer.counts[rid][key] for rid in ids)

    m = {}
    for name in ("engine.classify_functional_graph", "engine.successor_array",
                 "engine.all_states_matrix", "analysis.census", "engine.step_array",
                 "engine.detect_cycle", "population.run_population",
                 "search.hunt_viable_3state"):
        m[f"{name}.s"] = total(name)
    for name in ("engine.successor_array", "analysis.census", "engine.detect_cycle",
                 "population.run_population"):
        m[f"{name}.self_s"] = total(name, part=1)
    for key in ("engine.classify_functional_graph.nodes", "analysis.census.states",
                "engine.step_array.calls", "engine.step_array.rows",
                "engine.detect_cycle.steps", "population.run_population.ticks",
                "population.run_population.filament_steps", "search.search_type_a.witnesses",
                "search.hunt_viable_3state.candidates_total",
                "search.hunt_viable_3state.candidates_interesting",
                "search.hunt_viable_3state.viable"):
        m[key] = count(key)
    for name in ("engine.successor_array", "engine.detect_cycle"):
        m[f"{name}.peak_mb"] = memory.peak_mb.get(name, 0.0)
    for n in SCAN_LAYER_LENGTHS:
        ids = [f"layer-n{n}"] if f"layer-n{n}" in layer_ids else []
        m[f"search.search_type_a.s.n{n}"] = total("search.search_type_a", ids)
        m[f"search.search_type_a.fingerprint_states.n{n}"] = count(
            f"search.search_type_a.fingerprint_states.n{n}", ids)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    m["engine.step_array.rows_per_s"] = ratio(m["engine.step_array.rows"], m["engine.step_array.s"])
    m["search.search_type_a.type_a_ratio"] = ratio(
        count("search.search_type_a.type_a_fingerprints"),
        count("search.search_type_a.fingerprints"))
    m["search.hunt_viable_3state.viable_ratio"] = ratio(
        m["search.hunt_viable_3state.viable"], m["search.hunt_viable_3state.candidates_interesting"])
    m["rules.rule_named.s"] = total("rules.rule_named", setup_ids)
    m["core.lookup_table.s"] = total("core.lookup_table", setup_ids)
    m["trace.overhead_s"] = overhead
    return m


def self_times(times, ids) -> dict:
    names = sorted({name for rid in ids for name in times[rid]})
    return {
        name: statistics.median(times[rid][name][1] if name in times[rid] else 0.0 for rid in ids)
        for name in names
    }


def run_traced(job, seconds, tally, setup, record) -> dict:
    import tracemalloc

    import workloads
    from tracer import Tracer

    tracer = Tracer()
    setup_ids = []
    for k in range(SETUP_SAMPLES):
        tracer.run_id = f"setup-{k}"
        with tracer:
            workloads.load_catalogue(tracer.span)
        setup_ids.append(tracer.run_id)

    plain, traced, rates, pass_ids = measure_traced(job, seconds, tally, tracer)
    overhead = statistics.median(traced) - statistics.median(plain)

    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        with memory:
            _, outputs = run_pass(job.ops)
    finally:
        tracemalloc.stop()
    tally.check(job.ops, outputs)

    layer_ids = []
    for key, op in job.layer_ops.items():
        tracer.run_id = f"layer-{key}"
        with tracer:
            _, outputs = run_pass([op])
        tally.check([op], outputs)
        layer_ids.append(tracer.run_id)

    record["end_to_end"] = end_to_end(setup, plain, rates)
    record["passes"] = {"untraced_s": plain, "traced_s": traced}
    times = tracer.times()
    record["self_s"] = {**self_times(times, setup_ids), **self_times(times, pass_ids)}
    record["spans"] = [list(span) for span in tracer.spans]
    return layer_metrics(tracer, times, memory, pass_ids, setup_ids, layer_ids, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    setup = setup_samples(args.workload, args.seed)

    import workloads

    job = workloads.BUILDERS[args.workload](args.seed, workloads.load_catalogue())
    record = {"header": run_header(args), "setup_s": setup}
    for key, value in record["header"].items():
        print(f"# {key}: {value}")
    tally = Tally()
    if args.trace:
        values = run_traced(job, args.seconds, tally, setup, record)
        wanted = spec["per_layer"]
    else:
        walls, rates = measure(job, args.seconds, tally)
        values = end_to_end(setup, walls, rates)
        record["passes"] = {"untraced_s": walls}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fp:
        json.dump(record, fp)
    for label, problems in tally.problems[:10]:
        print(f"# FAILED {label}: {'; '.join(problems)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        idle = [name for name, metric in metrics.items() if metric["value"] == 0]
        print(f"# not called by this workload (read 0): {' '.join(idle) or 'none'}")
        for name, seconds in record["self_s"].items():
            print(f"# self {name} {seconds:.6g} s")
    print(json.dumps({
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
