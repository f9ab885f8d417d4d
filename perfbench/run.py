"""Benchmark of the `fracspec` command line: time to a correct result per CLI
step, and which layer package the time went to.

    python3 perfbench/run.py --workload exact-levels --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the program from `src/` and
writes only under `.perfbench/`.  The load model is a closed loop with one
client: samples run one after another, each in a fresh interpreter
(child.py), and `--jobs` is never passed.  A run first makes one untimed
import to compile bytecode, then SETUP_CHILDREN timed import-only
children, then samples while the slowest sample so far would still end
within `--seconds` (at least one).

All times are scaled to a reference CPU speed measured while they ran
(child.py says why and how); the unscaled medians are printed as well.
`--trace 0` reports the end-to-end metrics, medians over the run's
samples: setup_s, the elapsed time of importing `fracspec.cli`; wall_s,
the elapsed time of all steps; cpu_s, the CPU time of all steps, every
thread of the process counted; peak_rss_mb; and step1_s, step2_s,
step3_s, the CPU times of the three steps in the workload's `headline`.
The steps are timed on the CPU clock because their elapsed times spread
up to twice as much from run to run on a shared host; wall_s keeps
any waiting, or work moved onto other threads, in view.

`--trace 1` alternates untraced and traced samples and reports the
per-layer metrics: layer spans (CPU seconds) and counts from the traced
samples, and the tracing overhead as the difference of the traced and
untraced medians of wall_s.  It also leaves
`.perfbench/<workload>/trace/spans.jsonl` and `layers.tsv`.

Every step passes a correctness gate (exit code, no traceback, report flags
and checks, the verify pass map, and artifact SHA-256 hashes equal to
reference.json at the default seed or, at other seeds, equal across the
run's own samples, traced or not).  A step that fails it counts in
`failed`.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK_DIR = ".perfbench"
SETUP_CHILDREN = 1
# A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0
# Mean time of child.py's SpeedSampler micro-task on the machine in
# machine.json.  Times are reported at that speed: seconds times
# PROBE_REFERENCE_S over the mean micro-task time seen while they ran.
PROBE_REFERENCE_S = 8e-5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "step1_s": "s",
    "step2_s": "s",
    "step3_s": "s",
}

# Per-layer metrics read from the traced samples: "<span>.<key>", where the
# span is "<layer>.<function>" and the key is s or a work count.
CALL_METRICS = (
    "cantor.build_level.s",
    "cantor.build_level.calls",
    "cantor.build_level.intervals",
    "cantor.write_level_csv.s",
    "cantor.write_level_csv.bytes",
    "cantor.natural_measure.s",
    "cantor.natural_measure.atoms",
    "cantor.product_minkowski_bounds.s",
    "geometry.upper_density_estimate.s",
    "geometry.upper_density_estimate.calls",
    "geometry.minkowski_ratio_sweep.s",
    "geometry.minkowski_ratio_sweep.rows",
    "geometry.box_dimension_estimate.s",
    "geometry.covering_number.s",
    "geometry.covering_number.calls",
    "geometry.packing_number.s",
    "geometry.packing_number.calls",
    "geometry.eps_neighborhood_volume.s",
    "fourier.cantor_fourier_grid.s",
    "fourier.cantor_fourier_grid.calls",
    "fourier.cantor_fourier_grid.xi",
    "fourier.lq_annulus_diagnostics.s",
    "fourier.mollifier_sum.s",
    "tauberian.circulant_rank.s",
    "tauberian.circulant_rank.calls",
    "tauberian.span_dimension_oracle.s",
    "tauberian.dft_zero_set.s",
    "tauberian.spherical_zero_radii.s",
    "experiments.write_csv.s",
    "experiments.write_csv.bytes",
)
LAYERS = ("cantor", "geometry", "fourier", "tauberian")
PER_LAYER = (
    ("setup.numpy_import_s", "setup.scipy_import_s", "setup.fracspec_import_s")
    + CALL_METRICS
    + tuple(f"{layer}.s" for layer in LAYERS)
    + ("experiments.self_s", "acceptance.self_s")
    + ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


class BenchError(Exception):
    """The program could not be measured at all."""


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool = False):
        self.root = root
        self.workload = WORKLOADS[workload](seed, tiny)
        self.work = Path(WORK_DIR) / (f"tiny-{workload}" if tiny else workload)
        self.started = perf_counter()
        reference = {}
        if seed == DEFAULT_SEED and not tiny and REFERENCE.is_file():
            reference = json.loads(REFERENCE.read_text()).get(workload, {})
        self.expected_hashes = dict(reference)
        self.hash_source = "reference.json" if reference else "the run's first sample"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._children = 0
        shutil.rmtree(root / self.work, ignore_errors=True)
        (root / self.work / "configs").mkdir(parents=True)
        self.configs = {}
        for step in self.workload.steps:
            if step.config:
                path = self.work / "configs" / f"{step.id}.cfg"
                (root / path).write_text(step.config)
                self.configs[step.id] = path

    def child(self, steps, traced: bool, sample_dir: Path | None = None):
        """Run child.py on a plan; return its result, or None if it failed."""
        self._children += 1
        plan_path = self.work / f"plan{self._children:03d}.json"
        result_path = self.work / f"result{self._children:03d}.json"
        plan = {"trace": traced, "src": str(self.root / "src"), "steps": []}
        for step in steps:
            out = ""
            argv = list(step.argv)
            if not step.is_verify:
                out = str(sample_dir / step.id)
                argv += ["--config", str(self.configs[step.id]), "--out", out]
            plan["steps"].append({"id": step.id, "argv": argv, "out": out})
        (self.root / plan_path).write_text(json.dumps(plan))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        remaining = RUN_BUDGET_S - (perf_counter() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(plan_path), str(result_path)],
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.problems.append("a child process ran past the run's time budget")
            return None
        if proc.returncode != 0 or not (self.root / result_path).is_file():
            tail = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
            self.problems.append(f"child exited with code {proc.returncode}: {tail}")
            return None
        result = json.loads((self.root / result_path).read_text())
        (self.root / plan_path).unlink()
        (self.root / result_path).unlink()
        return result

    def setup_only(self, traced: bool) -> dict:
        result = self.child((), traced)
        if result is None:
            raise BenchError(self.problems[-1])
        return result

    def sample(self, index: int, traced: bool):
        sample_dir = self.work / f"s{index:02d}"
        steps = self.workload.steps
        self.attempted += len(steps)
        result = self.child(steps, traced, sample_dir)
        if result is None:
            self.failed += len(steps)
            return None
        for step, record in zip(steps, result["steps"]):
            problems = step_problems(step, record)
            expected = self.expected_hashes.setdefault(step.id, record["hashes"])
            if record["hashes"] != expected:
                problems.append(f"artifact hashes differ from {self.hash_source}")
            if problems:
                self.failed += 1
                kind = "traced" if traced else "untraced"
                self.problems.append(f"sample {index} ({kind}) {step.id}: " + "; ".join(problems))
        shutil.rmtree(self.root / sample_dir, ignore_errors=True)
        return result


def step_problems(step, record) -> list:
    """What is wrong with one step's outcome; empty when it is correct."""
    problems = []
    if record["exit"] != step.expect_exit:
        problems.append(f"exit code {record['exit']}, expected {step.expect_exit}")
    if record["traceback"]:
        problems.append("traceback: " + record["traceback"].strip().splitlines()[-1])
    if step.is_verify:
        try:
            summary = json.loads(record["stdout_last"])
        except ValueError:
            summary = {}
        if not isinstance(summary, dict) or summary.get("criteria") != step.criteria:
            problems.append(f"verify outcome {record['stdout_last']!r}, expected {step.criteria}")
        return problems
    report = record["report"]
    if not report:
        return problems + ["no report.json"]
    flags = report.get("flags", {})
    for flag in step.flags:
        if flags.get(flag) is not True:
            problems.append(f"flag {flag} is {flags.get(flag)!r}")
    metrics = report.get("metrics", {})
    for key, op, value in step.checks:
        got = metrics.get(key)
        ok = isinstance(got, (int, float)) and (got <= value if op == "<=" else got == value)
        if not ok:
            problems.append(f"{key} = {got!r}, expected {op} {value}")
    if not record["hashes"]:
        problems.append("no data artifacts")
    return problems


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run samples of a workload for `seconds`; return (run, setups, samples).

    `samples` holds (traced, child result) pairs; with `trace` they
    alternate untraced and traced, starting untraced, and there are at
    least two.
    """
    run = Run(root, workload, seed, tiny)
    deadline = run.started + seconds
    run.setup_only(False)  # compiles bytecode in a fresh checkout; not timed
    setups = [run.setup_only(trace) for _ in range(SETUP_CHILDREN)]
    samples = []
    durations = []
    while True:
        traced = trace and len(durations) % 2 == 1
        began = perf_counter()
        result = run.sample(len(durations), traced)
        durations.append(perf_counter() - began)
        if result is None:
            break
        samples.append((traced, result))
        if trace and len(durations) < 2:
            continue
        if perf_counter() + max(durations) > deadline:
            break
    return run, setups, samples


def child_scale(result) -> float:
    """PROBE_REFERENCE_S over the mean micro-task time of a whole child."""
    timings = [t for t in [result["setup"]] + result["steps"] if t["probes"]]
    probes = sum(t["probes"] for t in timings)
    return PROBE_REFERENCE_S * probes / sum(t["probe_s"] * t["probes"] for t in timings)


def scaled(timing, result, clock="elapsed_s") -> float:
    """Seconds of one timed interval at the reference speed.

    An interval too short to hold a sample takes the child's mean.
    """
    if timing["probes"]:
        return timing[clock] * PROBE_REFERENCE_S / timing["probe_s"]
    return timing[clock] * child_scale(result)


def _total(result, clock="elapsed_s") -> float:
    return sum(scaled(step, result, clock) for step in result["steps"])


def _step(result, step_id) -> float:
    return next(scaled(s, result, "cpu_s") for s in result["steps"] if s["id"] == step_id)


def end_to_end_metrics(workload, setups, samples) -> dict:
    results = [result for _, result in samples]
    values = {
        "setup_s": [scaled(r["setup"], r) for r in setups + results],
        "wall_s": [_total(r) for r in results],
        "cpu_s": [_total(r, "cpu_s") for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    for i, step_id in enumerate(workload.headline, start=1):
        values[f"step{i}_s"] = [_step(r, step_id) for r in results]
    return values


def per_layer_metrics(workload, setups, samples) -> dict:
    traced = [r for is_traced, r in samples if is_traced]
    untraced = [r for is_traced, r in samples if not is_traced]
    verify_steps = {step.id for step in workload.steps if step.is_verify}
    values = {name: [] for name in PER_LAYER}
    for r in [s for s in setups if "split" in s["setup"]] + traced:
        setup = r["setup"]
        # Scale the split so that its parts add up to setup_s.
        factor = scaled(setup, r) / sum(setup["split"].values())
        for key, value in setup["split"].items():
            values[f"setup.{key}"].append(value * factor)
    for r in traced:
        names, steps = r["layers"]["names"], r["layers"]["steps"]
        factor = child_scale(r)
        for metric in CALL_METRICS:
            span, key = metric.rsplit(".", 1)
            value = names.get(span, {}).get(key, 0)
            values[metric].append(value * factor if key == "s" else value)
        for layer in LAYERS:
            values[f"{layer}.s"].append(
                factor * sum(v["s"] for n, v in names.items() if n.startswith(layer + "."))
            )
        values["experiments.self_s"].append(
            factor * sum(v["self_s"] for n, v in steps.items() if n not in verify_steps)
        )
        values["acceptance.self_s"].append(
            factor * sum(v["self_s"] for n, v in steps.items() if n in verify_steps)
        )
        values["trace.traced_wall_s"].append(_total(r))
    for r in untraced:
        values["trace.untraced_wall_s"].append(_total(r))
    values["trace.overhead_s"] = [
        median(values["trace.traced_wall_s"]) - median(values["trace.untraced_wall_s"])
    ]
    return values


def write_trace(run: Run, samples, values) -> Path:
    """Write the spans of the traced samples and the per-layer table."""
    trace_dir = run.root / run.work / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = [(i, r) for i, (is_traced, r) in enumerate(samples) if is_traced]
    with open(trace_dir / "spans.jsonl", "w") as fh:
        for index, result in traced:
            for name, start, end, parent, step in result["spans"]:
                record = {"sample": index, "name": name, "start": start, "end": end,
                          "parent": parent, "step": step}
                fh.write(json.dumps(record) + "\n")
    total = median([_total(r, "cpu_s") for _, r in traced])
    rows = ["kind\tname\ts\tself_s\tshare_of_cpu_s\tcounts"]
    names = sorted({n for _, r in traced for n in r["layers"]["names"]})
    for name in names:
        entries = [r["layers"]["names"].get(name, {}) for _, r in traced]
        factors = [child_scale(r) for _, r in traced]
        s = median([e.get("s", 0.0) * f for e, f in zip(entries, factors)])
        self_s = median([e.get("self_s", 0.0) * f for e, f in zip(entries, factors)])
        keys = sorted({k for e in entries for k in e} - {"s", "self_s"})
        counts = ",".join(f"{k}={median([e.get(k, 0) for e in entries]):.12g}" for k in keys)
        rows.append(f"span\t{name}\t{s:.6f}\t{self_s:.6f}\t{s / total if total else 0:.4f}\t{counts}")
    for step in run.workload.steps:
        entries = [(r["layers"]["steps"][step.id], child_scale(r)) for _, r in traced]
        s = median([e["s"] * f for e, f in entries])
        self_s = median([e["self_s"] * f for e, f in entries])
        rows.append(f"step\t{step.id}\t{s:.6f}\t{self_s:.6f}\t{s / total if total else 0:.4f}\t")
    overhead = values["trace.overhead_s"][0]
    rows.append(f"overhead\ttraced_minus_untraced_wall_s\t{overhead:.6f}\t\t\t")
    (trace_dir / "layers.tsv").write_text("\n".join(rows) + "\n")
    return trace_dir


def machine_line() -> str:
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package}={metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package}=missing")
    return (
        f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
        + " ".join(versions)
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fracspec" / "cli.py").is_file():
        print("run from the root of a fracspec checkout: src/fracspec/cli.py not found",
              file=sys.stderr)
        return 2
    try:
        run, setups, samples = measure(root, args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"cannot measure: {exc}", file=sys.stderr)
        return 1
    if not samples or (args.trace and not any(t for t, _ in samples)):
        print("cannot measure: " + "; ".join(run.problems[-3:]), file=sys.stderr)
        return 1

    traced_count = sum(1 for t, _ in samples if t)
    print(machine_line())
    print(f"# workload {args.workload} seed={args.seed} samples={len(samples)} "
          f"(traced {traced_count}) setups={len(setups) + len(samples)} "
          f"load=closed loop, 1 client, jobs=1")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print("# " + ", ".join(f"step{i}_s = {step}" for i, step in enumerate(run.workload.headline, 1)))
    print(f"# ops_failed {run.failed}/{run.attempted}")
    if args.trace:
        values = per_layer_metrics(run.workload, setups, samples)
        trace_dir = write_trace(run, samples, values)
        print(f"# spans and per-layer table in {trace_dir.relative_to(root)}")
    else:
        values = end_to_end_metrics(run.workload, setups, samples)
    untraced = [r for t, r in samples if not t]
    elapsed = [sum(s["elapsed_s"] for s in r["steps"]) for r in untraced]
    cpu = [sum(s["cpu_s"] for s in r["steps"]) for r in untraced]
    setup = [r["setup"]["elapsed_s"] for r in setups + untraced]
    print(f"# unscaled medians: setup elapsed {median(setup):.6g} s, "
          f"untraced steps elapsed {median(elapsed):.6g} s, CPU {median(cpu):.6g} s")
    metrics = {}
    for name, series in values.items():
        q1, q3 = quartiles(series)
        print(f"# {name} median {median(series):.6g} q1 {q1:.6g} q3 {q3:.6g} n={len(series)}")
        metrics[name] = {"value": median(series), "unit": unit_of(name)}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
