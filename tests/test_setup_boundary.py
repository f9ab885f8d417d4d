"""Set-up and steps: importing `fracspec.cli` loads every module a command
needs, so a command's time is its own work.  Each check runs in a fresh
interpreter, since this test process has long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fracspec

SRC = str(Path(fracspec.__file__).resolve().parents[1])

# every experiment on a small config, the radial scan too, then every
# criterion; prints the modules each command added to sys.modules
STEPS_SCRIPT = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

import fracspec.cli
from fracspec.acceptance import CRITERIA

work = Path(tempfile.mkdtemp())
configs = {
    "construct": "level.depth = 3",
    "dim": "dim.level_min = 2\ndim.level_max = 5",
    "minkowski": "level.depth = 3",
    "fourier": "seed = 1\ncantor.branches = 4\ncantor.ratio = 1/16\n"
    "fourier.depth = 3\nfourier.j_max = 5\nfourier.samples_per_octave = 16",
    "mollify": "mollify.j_min = -3\nmollify.j_max = 1",
    "tauberian": "tauberian.m = 8\ntauberian.trials = 2",
    "tauberian radial": "tauberian.kind = radial\ntauberian.m = 16\ntauberian.radii = 3",
}
commands = {}
for name, text in configs.items():
    path = work / (name.replace(" ", "_") + ".cfg")
    path.write_text(text + "\n")
    commands[name] = [name.split()[0], "--config", str(path), "--out", str(work / "out")]
for criterion in sorted(CRITERIA):
    commands[f"verify {criterion}"] = ["verify", "--suite", criterion]

added = {}
for name, argv in commands.items():
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        fracspec.cli.main(argv)
    added[name] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


def run_python(code: str, **env_overrides) -> str:
    """stdout of code run in a fresh interpreter, OPENBLAS_NUM_THREADS unset
    unless given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=SRC, **env_overrides)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_cli_import_leaves_scipy_out():
    """Neither scipy nor numpy.polynomial nor dataclasses is loaded: j0 is
    a port of Cephes, the Gauss-Legendre rule a table, and every value
    type a NamedTuple."""
    out = run_python(
        "import sys, fracspec.cli; print(*(name in sys.modules for name in "
        "('scipy', 'numpy.polynomial', 'dataclasses')))"
    )
    assert out.strip() == "False False False"


def test_commands_import_nothing_after_setup():
    added = json.loads(run_python(STEPS_SCRIPT).splitlines()[-1])
    assert len(added) == 7 + 11
    assert {name: modules for name, modules in added.items() if modules} == {}


BLAS_THREADS = "import os, fracspec; print(os.environ['OPENBLAS_NUM_THREADS'])"


def test_blas_threads_default_to_one():
    assert run_python(BLAS_THREADS).strip() == "1"


def test_user_blas_thread_count_is_kept():
    assert run_python(BLAS_THREADS, OPENBLAS_NUM_THREADS="3").strip() == "3"
