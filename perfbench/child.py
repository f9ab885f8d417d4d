"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/child.py PLAN.json RESULT.json

Times `import fracspec.cli` (the set-up), then calls
`fracspec.cli.main(argv)` once per step of the plan, in order, timing each
call from outside.  No step runs twice in one process, so the program's
caches start as cold as in a user's CLI run.  The step outputs are checked
afterwards by run.py from what this writes to RESULT.json: exit code,
traceback, the report, the last stdout line and the artifact hashes.

How time is measured.  Each step records two clocks: elapsed time
(`time.perf_counter`), the time a user waits for the step, and the CPU
time of the whole process (`time.process_time`), which counts every thread,
so work moved onto worker or BLAS threads is still counted.  On a shared
host the CPU runs up to 1.8x faster or slower from one run to the next.
To cancel that, a SpeedSampler times a fixed micro-task every 10 ms while
the program runs, and run.py divides each time by the mean micro-task time
seen during it.  The sampler's own time is taken out of both clocks, and
the layer spans of a traced child use the same CPU clock, so spans and
steps share one basis.
"""

import gc
import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time, thread_time

SAMPLE_EVERY_S = 0.01


def _micro_task() -> None:
    acc = 0
    for i in range(300):
        acc += (i * 7919) % 104729
    total = Fraction(1, 3)
    for i in range(1, 20):
        total = total + Fraction(1, i)


class SpeedSampler:
    """Times a fixed micro-task every SAMPLE_EVERY_S of elapsed time.

    The task mixes Fraction and integer arithmetic, as the program does.
    The timer counts elapsed time: a process-wide CPU timer (ITIMER_PROF)
    would make Linux read the process CPU clock in whole scheduler ticks.
    `cpu()` and `wall()` are the process CPU and elapsed clocks without the
    time the sampler has spent, so intervals read from them do not include
    it.
    """

    def __init__(self):
        self.times = []
        self.spent_cpu = 0.0
        self.spent_wall = 0.0

    def __enter__(self):
        self.times = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def cpu(self) -> float:
        return process_time() - self.spent_cpu

    def wall(self) -> float:
        return perf_counter() - self.spent_wall

    def _sample(self, signum, frame):
        # With the collector off, the task's time does not depend on how
        # many objects the program holds.  The first, untimed run brings
        # the task back into the caches the program has just used, so the
        # timed run sees the CPU's speed, not the program's memory traffic.
        # The task runs on the main thread, so its CPU time is the main
        # thread's; other threads keep running and keep being counted.
        enabled = gc.isenabled()
        gc.disable()
        wall_began = perf_counter()
        began = thread_time()
        _micro_task()
        start = thread_time()
        _micro_task()
        end = thread_time()
        self.times.append(end - start)
        self.spent_cpu += end - began
        self.spent_wall += perf_counter() - wall_began
        if enabled:
            gc.enable()

    def timing(self, cpu: tuple, wall: tuple) -> dict:
        """The (start, end) intervals of cpu() and wall(), and the samples
        taken since __enter__."""
        return {
            "cpu_s": cpu[1] - cpu[0],
            "elapsed_s": wall[1] - wall[0],
            "probe_s": sum(self.times) / len(self.times) if self.times else None,
            "probes": len(self.times),
        }


def _import_program(traced: bool, sampler: SpeedSampler) -> dict:
    with sampler:
        start, cpu_start = sampler.wall(), sampler.cpu()
        if traced:
            import numpy  # noqa: F401

            numpy_done = sampler.wall()
            import scipy.special  # noqa: F401

            scipy_done = sampler.wall()
        import fracspec.cli  # noqa: F401

        done, cpu_done = sampler.wall(), sampler.cpu()
    setup = sampler.timing((cpu_start, cpu_done), (start, done))
    if traced:
        # Unscaled elapsed seconds; run.py scales them to setup.
        setup["split"] = {
            "numpy_import_s": numpy_done - start,
            "scipy_import_s": scipy_done - numpy_done,
            "fracspec_import_s": done - scipy_done,
        }
    return setup


def _artifact_hashes(out_dir: Path) -> dict:
    # report.json carries wall_time_s, so it is not part of the identity.
    hashes = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file() and path.name != "report.json":
                hashes[path.relative_to(out_dir).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    return hashes


def _read_report(out_dir: Path):
    reports = sorted(out_dir.glob("*/report.json")) if out_dir.is_dir() else []
    return json.loads(reports[0].read_text()) if reports else None


def _run_step(main, argv, recorder, step_id, sampler) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    trace_text = None
    span = recorder.begin_step(step_id) if recorder else None
    with redirect_stdout(stdout), redirect_stderr(stderr), sampler:
        wall_start, start = sampler.wall(), sampler.cpu()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashed step is a failed step, not a lost sample
            code = None
            trace_text = traceback.format_exc()
        end, wall_end = sampler.cpu(), sampler.wall()
    if span is not None:
        recorder.end_step(span, start, end)
    errors = stderr.getvalue()
    if trace_text is None and "Traceback (most recent call last)" in errors:
        trace_text = errors
    lines = [line for line in stdout.getvalue().splitlines() if line.strip()]
    record = {
        "id": step_id,
        "exit": code,
        "traceback": trace_text,
        "stdout_last": lines[-1] if lines else "",
    }
    record.update(sampler.timing((start, end), (wall_start, wall_end)))
    return record


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    traced = plan["trace"]
    sampler = SpeedSampler()
    result = {"setup": _import_program(traced, sampler)}

    import fracspec
    import fracspec.cli

    origin = Path(fracspec.__file__).resolve()
    if Path(plan["src"]).resolve() not in origin.parents:
        print(f"fracspec imported from {origin}, not from {plan['src']}", file=sys.stderr)
        return 3

    recorder = None
    if traced:
        from tracing import Recorder

        recorder = Recorder(clock=sampler.cpu)
        recorder.install()

    steps = []
    for step in plan["steps"]:
        gc.collect()
        steps.append(_run_step(fracspec.cli.main, step["argv"], recorder, step["id"], sampler))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for step, record in zip(plan["steps"], steps):
        out_dir = Path(step["out"]) if step["out"] else None
        record["report"] = _read_report(out_dir) if out_dir else None
        record["hashes"] = _artifact_hashes(out_dir) if out_dir else {}
    result["steps"] = steps
    if recorder is not None:
        result["layers"] = recorder.summary()
        result["spans"] = recorder.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
