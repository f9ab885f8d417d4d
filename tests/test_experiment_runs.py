"""Experiment runners end to end: artifacts, determinism, CLI exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from octave_oracle import mask_masses, spectral_grid

import fracspec.cantor.sampling
import fracspec.experiments
import fracspec.fourier.annuli
import fracspec.fourier.bump
import fracspec.fourier.mollifier
import fracspec.fourier.transforms
import fracspec.tauberian.grid
from fracspec.acceptance import run_suite
from fracspec.cli import main
from fracspec.config import ExperimentConfig
from fracspec.errors import ConfigError
from fracspec.experiments import (
    CONSTRUCT_KEYS,
    DIM_KEYS,
    FOURIER_KEYS,
    MINKOWSKI_KEYS,
    MOLLIFY_KEYS,
    RADIAL_KEYS,
    SPAN_KEYS,
    fmt,
    run_experiment,
    write_csv,
)


def run(tmp_path, experiment, text, seed=None, out_name="out"):
    path = tmp_path / f"{experiment}.cfg"
    path.write_text(text)
    cfg = ExperimentConfig.from_file(
        path, experiment=experiment, seed=seed, out=str(tmp_path / out_name)
    )
    record = run_experiment(cfg)
    return cfg, record, tmp_path / out_name / experiment


def test_construct_artifacts(tmp_path):
    cfg, record, out = run(tmp_path, "construct", "level.depth = 3\n")
    assert (out / "params.json").exists()
    assert (out / "level.csv").exists()
    assert (out / "report.json").exists()
    assert record.metrics["intervals"] == 8
    assert record.metrics["total_length"] == pytest.approx(8 / 27)
    # narrowest gap at depth 3 separates sibling leaves: length (1/3)^3
    assert record.metrics["min_gap"] == pytest.approx(1 / 27)
    assert record.flags["count_matches_branching"]
    params = json.loads((out / "params.json").read_text())
    assert params["branches"] == 2 and params["ratio"] == "1/3"
    # a header line and one line per interval
    assert len((out / "level.csv").read_text().splitlines()) == 1 + 8
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["digest"] == cfg.digest(cfg.resolve(CONSTRUCT_KEYS))
    # the ratio at its default is the same run as the ratio left out
    _, explicit, _ = run(tmp_path, "construct", "level.depth = 3\ncantor.ratio = 1/3\n")
    assert explicit.digest == record.digest


def test_dim_artifacts(tmp_path):
    _, record, out = run(tmp_path, "dim", "dim.level_min = 3\ndim.level_max = 6\n")
    rows = (out / "counts.csv").read_text().splitlines()
    assert rows[0] == "eps,count"
    assert len(rows) == 5
    assert record.metrics["abs_error"] < 0.02
    assert not record.flags["degenerate"]


def test_minkowski_artifacts(tmp_path):
    text = "level.depth = 6\nminkowski.m_min = 2\nminkowski.m_max = 6\n"
    _, record, out = run(tmp_path, "minkowski", text)
    rows = (out / "ratios.csv").read_text().splitlines()
    assert rows[0] == "eps,value,bound_low,bound_high"
    assert len(rows) == 6
    assert record.flags["bounded"]
    assert record.metrics["exact_rows"] == 5


FOURIER_TEXT = (
    "fourier.depth = 5\n"
    "fourier.j_min = 2\n"
    "fourier.j_max = 6\n"
    "fourier.samples_per_octave = 64\n"
    "fourier.q_list = 3,6\n"
)


def test_fourier_artifacts(tmp_path):
    _, record, out = run(tmp_path, "fourier", FOURIER_TEXT)
    octaves = (out / "octaves.csv").read_text().splitlines()
    assert octaves[0] == "q,j,lo,hi,integral,ratio"
    assert len(octaves) == 1 + 2 * 5
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "xi,re,im,abs,error_bound"
    # the default construction does not decay: the spikes at 3^k * pi
    # keep a fixed share of every octave's mass, at either exponent
    assert record.flags == {"summable_q3": False, "summable_q6": False}
    assert record.metrics["tail_ratio_max_q3"] > 1.0
    assert record.metrics["tail_ratio_max_q6"] > 1.0


MOLLIFY_SMALL = "mollify.eps_exp_min = 2\nmollify.eps_exp_max = 4\nmollify.j_min = -8\nmollify.j_max = 4\n"


def test_mollify_artifacts(tmp_path):
    _, record, out = run(tmp_path, "mollify", MOLLIFY_SMALL)
    sweep_rows = (out / "sweep.csv").read_text().splitlines()
    assert sweep_rows[0] == "eps,j,b,a,product"
    assert len(sweep_rows) == 1 + 13 * 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flags"] == {
        "sums_nonincreasing": True,
        "tails_nonincreasing": True,
        "uniform_bound_ok": True,
    }
    assert record.metrics["final_over_initial"] < 1.0


def test_tauberian_span_artifacts(tmp_path):
    text = "tauberian.kind = span\ntauberian.m = 8\ntauberian.trials = 10\n"
    _, record, out = run(tmp_path, "tauberian", text, seed=3)
    rows = (out / "trials.csv").read_text().splitlines()
    assert rows[0] == "trial,span_dim,circulant_rank,dft_zeros"
    assert len(rows) == 11
    assert record.metrics["matches"] == 10
    assert record.flags["all_match"]


RADIAL_TEXT = (
    "tauberian.kind = radial\n"
    "tauberian.m = 64\n"
    "tauberian.band = 1.2\n"
    "tauberian.radii = 5, 11\n"
)


def test_tauberian_radial_artifacts(tmp_path):
    _, record, out = run(tmp_path, "tauberian", RADIAL_TEXT, seed=9)
    assert (out / "radii.csv").exists()
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["zero_kind"] == "radial"
    assert record.flags["all_targets_recovered"]
    assert record.metrics["detected_radii"] >= 2


def test_radial_scan_requires_radii(tmp_path):
    with pytest.raises(ConfigError, match="radii"):
        run(tmp_path, "tauberian", "tauberian.kind = radial\n", seed=1)
    with pytest.raises(ConfigError, match="Nyquist"):
        run(
            tmp_path,
            "tauberian",
            "tauberian.kind = radial\ntauberian.m = 16\ntauberian.radii = 9\n",
            seed=1,
        )
    with pytest.raises(ConfigError, match="kind"):
        run(tmp_path, "tauberian", "tauberian.kind = sideways\n")


def test_random_offsets_require_seed(tmp_path):
    text = "cantor.branches = 3\ncantor.ratio = 1/5\nlevel.depth = 2\n"
    with pytest.raises(ConfigError, match="seed"):
        run(tmp_path, "construct", text)
    _, record, _ = run(tmp_path, "construct", text, seed=2, out_name="seeded")
    assert record.metrics["intervals"] == 9
    assert record.flags["count_matches_branching"]


def artifact_bytes(out_dir):
    out = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file() and path.name != "report.json":
            out[path.relative_to(out_dir)] = path.read_bytes()
    return out


def report_without_timing(out_dir, experiment):
    doc = json.loads((Path(out_dir) / experiment / "report.json").read_text())
    doc.pop("wall_time_s")
    return doc


@pytest.mark.parametrize(
    "experiment,text,seed",
    [
        ("dim", "dim.level_min = 3\ndim.level_max = 6\n", None),
        ("fourier", FOURIER_TEXT, None),
        ("tauberian", "tauberian.kind = span\ntauberian.m = 8\ntauberian.trials = 6\n", 5),
    ],
)
def test_reruns_are_byte_identical(tmp_path, experiment, text, seed):
    run(tmp_path, experiment, text, seed=seed, out_name="a")
    run(tmp_path, experiment, text, seed=seed, out_name="b")
    assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")
    ra = report_without_timing(tmp_path / "a", experiment)
    rb = report_without_timing(tmp_path / "b", experiment)
    assert ra == rb


# three branches on a non-dyadic lattice: offsets over 100, ratio 1/5
THREE_1_5_TEXT = (
    "cantor.branches = 3\n"
    "cantor.ratio = 1/5\n"
    "cantor.offsets = 0, 3/10, 61/100\n"
)

# SHA-256 of the exact-path artifacts as the enumerating implementation
# wrote them (neighborhoods measured by merging the grown intervals, levels
# sorted and merged), so the closed forms that replaced it must keep them.
PINNED_ARTIFACTS = {
    "middle-thirds": (
        "",
        8,
        {
            "construct/level.csv": "9c6f6838ad231df1b8da7a42a2725019838f270b8e373dd80d6a004a72515736",
            "construct/params.json": "74e810c62a2a01eccdf44f6bc6e1163576ea14b67f38af53fed3f408686968fa",
            "dim/counts.csv": "51c2e04a31e0e0f34f3faa42c3b3ce815bd9cf8ee84a72d011c9ad5e33c0c8d1",
            "minkowski/ratios.csv": "d96b2674e69240fdb5675bba84b63fbb8a4e76bd1dbdd4ebceb7d5e675fa10ae",
        },
    ),
    "three-1-5": (
        THREE_1_5_TEXT,
        6,
        {
            "construct/level.csv": "b46562bb60103219b91f49546d54e83f327ad1540be7962a124bdd9e075df8ea",
            "construct/params.json": "4bf00f2c38bacf5de0488afff7b30186cad0a6475b6dde05d136c4e58e8b24b1",
            "dim/counts.csv": "350630dd2d417f90477e19afa54d5465f78503de627f2a279e2cde001592ad2a",
            "minkowski/ratios.csv": "84bcbe19547bafccaf87ab0b3ba736a0d4784536fa53282cc97295edb6b110a7",
        },
    ),
    # eta = 2/7 is not 1/q: the dimension has no LogRatio, so minkowski
    # scales by float(eps) ** (alpha - 1), the float path of the ratios
    "ratio-2-7": (
        "cantor.ratio = 2/7\ncantor.offsets = 0, 5/7\n",
        8,
        {
            "construct/level.csv": "48233b2a4a76b89f56943723868b80a7cdcb1e03d69c52d717fd1b2f8b379f9e",
            "construct/params.json": "44780eae984f88ac6af016a208430ad24c3588635c731444caebf6c0fac36b79",
            "dim/counts.csv": "bad4beae401915382274c04c40f51e92a72c6580d46c957e59a30ce04bb6f3e4",
            "minkowski/ratios.csv": "1354aa90f6455654764c9876376a3359b0a2c4d4199659f68b0be5d3350869e7",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_exact_artifacts_pinned(tmp_path, name):
    """construct, dim 3..depth and minkowski at depth write the pinned bytes."""
    base, depth, pinned = PINNED_ARTIFACTS[name]
    texts = {
        "construct": base + f"level.depth = {depth}\n",
        "dim": base + f"dim.level_min = 3\ndim.level_max = {depth}\n",
        "minkowski": base + f"level.depth = {depth}\n",
    }
    for experiment, text in texts.items():
        run(tmp_path, experiment, text)
    digests = {
        rel: hashlib.sha256((tmp_path / "out" / rel).read_bytes()).hexdigest() for rel in pinned
    }
    assert digests == pinned


# SHA-256 of level.csv at depth 8 as the Fraction recursion wrote it, for
# three branches on a non-dyadic lattice and for offsets drawn from a seed
# (dyadic numerators over 2**81), so integer levels over a common
# denominator must keep it.
PINNED_LEVELS = {
    "three-1-5": (
        THREE_1_5_TEXT,
        None,
        "47e4db4a19c4097ce1a2ba749ee4061933d72601460ced4614a085453a041de7",
    ),
    "seeded-4": (
        "cantor.branches = 4\ncantor.ratio = 1/16\n",
        1,
        "780775a513dfb8db4f19aaaa583c8e09823c89108d366a13ee7eff24b81ab3d8",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_LEVELS))
def test_level_csv_pinned(tmp_path, name):
    base, seed, pinned = PINNED_LEVELS[name]
    run(tmp_path, "construct", base + "level.depth = 8\n", seed=seed)
    level_csv = tmp_path / "out" / "construct" / "level.csv"
    assert hashlib.sha256(level_csv.read_bytes()).hexdigest() == pinned


# SHA-256 of the spectral-path artifacts as the per-level (F, N) transform
# loop and the np.roll circulant wrote them.  Depth 6 with j_max = 6 gives
# 16,384 frequencies, so the blocked transform crosses several blocks.
# salem-4-deep is the spectral benchmark's fourier config (524,288
# frequencies, depth 12), whose deep levels take phases below 2**-27; its
# hashes are those the benchmark's reference holds.
PINNED_SPECTRAL = {
    "salem-4-deep": (
        "fourier",
        "cantor.branches = 4\ncantor.ratio = 1/16\nfourier.depth = 12\nfourier.j_max = 11\n",
        1,
        {
            "fourier/octaves.csv": "6ab16d7f630dcaf9c496ebfb4a4d35f2de4f9bd2cb6695a51808bf356051135b",
            "fourier/spectrum.csv": "706117ede0c15e1972b4a9e4de9c4b34ca69a960765719e9038002b0e0330bb4",
        },
    ),
    "salem-4": (
        "fourier",
        "cantor.branches = 4\ncantor.ratio = 1/16\nfourier.depth = 6\nfourier.j_max = 6\n",
        1,
        {
            "fourier/octaves.csv": "e4a8ded49724124b02bfe960dcfec3b406e4bac0e4ab173b60392cce0f0effd1",
            "fourier/spectrum.csv": "548e2da09f0ced4023e147bdff9e4979d1ee3923c24b3312348de8a986728ca4",
        },
    ),
    "three-1-5": (
        "fourier",
        THREE_1_5_TEXT + "fourier.depth = 6\nfourier.j_max = 6\n",
        None,
        {
            "fourier/octaves.csv": "feaf8daeef87db6cc9e95c0b8a8653bf18bac1c5f1d4875a7aa3d5198bbb1f8e",
            "fourier/spectrum.csv": "6047fbc80c92fe48731be6e06e9c41348d8f38ac201e13ce4b83f75849034eec",
        },
    ),
    "span-64": (
        "tauberian",
        "tauberian.kind = span\ntauberian.m = 64\ntauberian.trials = 50\n",
        1,
        {"tauberian/trials.csv": "ea13fba921de5f16dad68f23aadbc9d7dfb3f11283d354dbd4f603fe2b0f39f3"},
    ),
}


@pytest.mark.parametrize("name", ["salem-4", "three-1-5"])
def test_octave_slices_match_mask_pinned(tmp_path, monkeypatch, name):
    """On the pinned fourier configs, every streamed octave mass equals the
    boolean-mask oracle's over the full grid bit for bit, the route is
    entered once, and the bytes stay pinned."""
    experiment, text, seed, pinned = PINNED_SPECTRAL[name]
    real = fracspec.experiments.lq_grid_diagnostics
    checked = []

    def both(params, depth, qs, j0, j1, per_octave):
        diags = real(params, depth, qs, j0, j1, per_octave)
        xi, spacing, values, _ = spectral_grid(params, depth, j0, j1, per_octave)
        for q, diag in zip(qs, diags):
            got = np.array([row.integral for row in diag.rows])
            want = np.array(mask_masses(xi, values, spacing, q, j0, j1))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            checked.append(q)
        return diags

    monkeypatch.setattr(fracspec.experiments, "lq_grid_diagnostics", both)
    run(tmp_path, experiment, text, seed=seed)
    assert checked == [3.0, 6.0]
    digests = {
        rel: hashlib.sha256((tmp_path / "out" / rel).read_bytes()).hexdigest() for rel in pinned
    }
    assert digests == pinned


# fourier windows the pinned configs leave out: one sample per octave (the
# j_min octave holds one frequency), 3 and 500 per octave (an inexact
# spacing), octaves below 1, and one or three exponents
STREAMED_FOURIER = (
    "fourier.samples_per_octave = 1\nfourier.j_min = -2\nfourier.j_max = 9\n",
    "fourier.samples_per_octave = 3\nfourier.j_min = -2\nfourier.j_max = 3\n"
    "fourier.q_list = 2.5\n",
    "fourier.samples_per_octave = 500\nfourier.j_max = 6\nfourier.q_list = 1, 3, 6\n",
    "fourier.samples_per_octave = 500\nfourier.j_min = -3\nfourier.j_max = 1\n"
    "fourier.q_list = 2\n",
)


@pytest.mark.parametrize("window", STREAMED_FOURIER)
@pytest.mark.parametrize("construction", ["cantor.branches = 3\ncantor.ratio = 1/7\n", ""])
def test_fourier_artifacts_match_full_grid(tmp_path, window, construction):
    """fourier writes what the full-array route gives, bit for bit: each
    octave mass is the mask oracle's over the whole grid, and spectrum.csv
    holds every stride-th value of the whole grid's transform."""
    cfg, _, out = run(tmp_path, "fourier", construction + window, seed=3)
    opts = cfg.resolve(FOURIER_KEYS)
    params = fracspec.experiments._params_from_config(cfg, opts)
    j0, j1 = opts["fourier.j_min"], opts["fourier.j_max"]
    depth, per_octave = opts["fourier.depth"], opts["fourier.samples_per_octave"]
    xi, spacing, values, length = spectral_grid(params, depth, j0, j1, per_octave)
    lines = (out / "octaves.csv").read_text().splitlines()[1:]
    for k, q in enumerate(opts["fourier.q_list"]):
        rows = lines[k * (j1 - j0 + 1) : (k + 1) * (j1 - j0 + 1)]
        got = np.array([float(line.split(",")[4]) for line in rows])
        want = np.array(mask_masses(xi, values, spacing, q, j0, j1))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    stride = max(1, xi.size // 2048)
    sample = zip(xi[::stride], values[::stride], np.abs(xi[::stride]) * length)
    rows = [(fmt(x), fmt(v.real), fmt(v.imag), fmt(abs(v)), fmt(e)) for x, v, e in sample]
    write_csv(tmp_path / "spectrum.csv", ("xi", "re", "im", "abs", "error_bound"), rows)
    assert (out / "spectrum.csv").read_bytes() == (tmp_path / "spectrum.csv").read_bytes()


def test_fourier_step_holds_no_full_grid(tmp_path):
    """The benchmark's fourier config (524,288 frequencies) runs in blocks,
    and its artifacts are streamed row by row: its traced peak (0.6 MB)
    stays far below the 12 MB of one frequency array and its transform
    values, and below the 1.9 MB of holding spectrum.csv's sample rows."""
    experiment, text, seed, _ = PINNED_SPECTRAL["salem-4-deep"]
    tracemalloc.start()
    try:
        run(tmp_path, experiment, text, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_radial_scan_peak_at_benchmark_size(tmp_path):
    """The benchmark's radial run (m 128) holds about three 256 KB complex
    grids' worth at once (the drawn grid, its transform, the norms,
    distances and masks): the traced peak is 0.77 MB (1.40 MB with a
    meshgrid, np.where copies and a + 1j * b)."""
    text = "tauberian.kind = radial\ntauberian.m = 128\ntauberian.radii = 10, 20, 30\n"
    tracemalloc.start()
    try:
        run(tmp_path, "tauberian", text, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


@pytest.mark.parametrize("name", sorted(PINNED_SPECTRAL))
def test_spectral_artifacts_pinned(tmp_path, name):
    """fourier and the tauberian span trials write the pinned bytes."""
    experiment, text, seed, pinned = PINNED_SPECTRAL[name]
    run(tmp_path, experiment, text, seed=seed)
    digests = {
        rel: hashlib.sha256((tmp_path / "out" / rel).read_bytes()).hexdigest() for rel in pinned
    }
    assert digests == pinned


# SHA-256 of the mollify tables and the radial scan as written while the
# shell sweep still computed a whole-support L^p integral and per-row peak
# data, and the radial box count still came from a farthest-point net.
# No file reads the dropped values, and on this radial config the net
# already found minimum covers, so all of these bytes stay.  The
# untruncated run pins the "unbounded support" note in summary.json.
PINNED_TABLES = {
    "mollify-truncated": (
        "mollify",
        MOLLIFY_SMALL,
        None,
        {
            "mollify/sweep.csv": "fcf761e9228c39eec9c06c90f8d4669dcca04f3c41fce3dd8b3ed59ba0da4744",
            "mollify/summary.json": "ba730042e17cce0b064bdbdb7d07e72aea3c22a082bc7996bcdcb3e97a4cb037",
        },
    ),
    "mollify-untruncated": (
        "mollify",
        "mollify.truncate = none\n" + MOLLIFY_SMALL,
        None,
        {
            "mollify/sweep.csv": "0c7b747a5a25b3ae7959784ec035139b515afeceba85c88c66ee64a7d97ebf8b",
            "mollify/summary.json": "9c5bb81b591dc8194c5f4a1c88d437cf34219c7c2468772ddd0d05dcb463ee9b",
        },
    ),
    "radial-64": (
        "tauberian",
        RADIAL_TEXT,
        9,
        {
            "tauberian/radii.csv": "6424b27fdcb399a28fd45d2d793f6715524907974a5d57080d1f1d8078bd2e18",
            "tauberian/verdict.json": "efdc5cf36542b71d8a256c556ef874f39cb6a8deef76b9b4942eefde4234a109",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_table_artifacts_pinned(tmp_path, name):
    """mollify and the radial tauberian scan write the pinned bytes."""
    experiment, text, seed, pinned = PINNED_TABLES[name]
    run(tmp_path, experiment, text, seed=seed)
    digests = {
        rel: hashlib.sha256((tmp_path / "out" / rel).read_bytes()).hexdigest() for rel in pinned
    }
    assert digests == pinned


def test_cli_runs_experiment(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("level.depth = 2\n")
    code = main(["construct", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "construct"
    assert doc["metrics"]["intervals"] == 4


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--suite", "box-dimension", "--suite", "upper-density"], 0),
        (["verify", "--suite", "box-dimension", "--suite", "salem-decay"], 1),
        (["construct", "--config", "{cfg}", "--out", "{out}"], 0),
    ],
    ids=["argv0-0", "argv1-1", "argv2-0"],
)
def test_cli_closed_stdout_keeps_exit_code(tmp_path, argv, code):
    """With stdout closed before anything is printed (`fracspec ... | true`),
    the exit code is still the verdict and no traceback is printed."""
    (tmp_path / "run.cfg").write_text("level.depth = 2\n")
    argv = [arg.format(cfg=tmp_path / "run.cfg", out=tmp_path / "out") for arg in argv]
    src = str(Path(fracspec.experiments.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "fracspec.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == code
    assert "Traceback" not in err
    assert "Error" not in err


@pytest.mark.parametrize(
    "level_min, level_max, code, message",
    [
        (3, 21, 1, "exceed the budget"),
        (3, 10**6, 1, "exceed the budget"),
        (-1, 5, 2, ">= 0"),
        (3, 20, 0, ""),
    ],
)
def test_cli_dim_budget(tmp_path, capsys, monkeypatch, level_min, level_max, code, message):
    """dim refuses the windows build_level would, before any work: two
    branches fit 2**20 intervals at level 20 but not at level 21, and a
    negative level is refused as the config is parsed."""
    called = []
    monkeypatch.setattr(fracspec.experiments, "build_level", lambda *args: called.append(args))
    path = tmp_path / "run.cfg"
    path.write_text(f"dim.level_min = {level_min}\ndim.level_max = {level_max}\n")
    assert main(["dim", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert called == []
    assert "Traceback" not in err
    assert message in err
    assert (tmp_path / "out" / "dim").exists() == (code == 0)


# branches 2, depth 3, 16 samples over octaves 2..5: 16 * 2**4 frequencies,
# so 256 * 3 * 2 = 1536 phases
SMALL_FOURIER = "fourier.depth = 3\nfourier.j_max = 5\nfourier.samples_per_octave = 16\n"


@pytest.mark.parametrize(
    "text, budget, code, message",
    [
        ("fourier.j_max = 40", None, 1, "exceed the budget"),
        ("fourier.samples_per_octave = 100000000000", None, 1, "exceed the budget"),
        ("fourier.depth = 1000000000", None, 1, "exceed the budget"),
        ("fourier.j_min = 1020\nfourier.j_max = 1025", None, 1, "-1000 <= j_lo"),
        (SMALL_FOURIER, 1535, 1, "256 frequencies x 3 levels x 2 branches exceed"),
        (SMALL_FOURIER, 1536, 0, ""),
    ],
)
def test_cli_fourier_budget(tmp_path, capsys, monkeypatch, text, budget, code, message):
    """fourier refuses a grid over the phase budget before it evaluates a
    frequency, and the budget counts frequencies x depth x branches."""
    if budget is not None:
        monkeypatch.setattr(fracspec.fourier.transforms, "MAX_GRID_PHASES", budget)
    calls = {"route": [], "blocks": [], "sample": []}
    for module, name, key in (
        (fracspec.experiments, "lq_grid_diagnostics", "route"),
        (fracspec.fourier.annuli, "fourier_blocks", "blocks"),
        (fracspec.experiments, "cantor_fourier_grid", "sample"),
    ):
        real = getattr(module, name)
        spy = lambda *args, real=real, seen=calls[key]: seen.append(args) or real(*args)
        monkeypatch.setattr(module, name, spy)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["fourier", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    # the route is entered once; a refused grid allocates no work arrays
    assert len(calls["route"]) == 1
    assert len(calls["blocks"]) == len(calls["sample"]) == (code == 0)
    assert (tmp_path / "out" / "fourier").exists() == (code == 0)


@pytest.mark.parametrize(
    "m, budget, code",
    [(1000000, None, 1), (2049, None, 1), (9, 64, 1), (8, 64, 0)],
)
def test_cli_span_budget(tmp_path, capsys, monkeypatch, m, budget, code):
    """The span trials refuse a translate matrix over m**2 entries before
    drawing a trial."""
    if budget is not None:
        monkeypatch.setattr(fracspec.tauberian.grid, "MAX_SQUARE_ENTRIES", budget)
    drawn = []
    real = fracspec.experiments.default_rng
    monkeypatch.setattr(
        fracspec.experiments, "default_rng", lambda seed: drawn.append(seed) or real(seed)
    )
    path = tmp_path / "run.cfg"
    path.write_text(f"tauberian.m = {m}\ntauberian.trials = 2\n")
    assert main(["tauberian", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("exceeds the budget" in err) == (code == 1)
    assert len(drawn) == (0 if code else 2)


@pytest.mark.parametrize(
    "text, budget, code",
    [
        ("tauberian.m = 64\ntauberian.trials = 100000000", None, 1),
        ("tauberian.m = 4\ntauberian.trials = 3", 191, 1),
        ("tauberian.m = 4\ntauberian.trials = 3", 192, 0),
    ],
)
def test_cli_span_work_budget(tmp_path, capsys, monkeypatch, text, budget, code):
    """The span trials refuse trials x m**3 over MAX_SPAN_WORK with one
    error line, before any child seed is spawned or row drawn."""
    if budget is not None:
        monkeypatch.setattr(fracspec.experiments, "MAX_SPAN_WORK", budget)
    spawned, drawn = [], []

    class RecordingSeedSequence(np.random.SeedSequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    real = fracspec.experiments.default_rng
    monkeypatch.setattr(fracspec.experiments, "SeedSequence", RecordingSeedSequence)
    monkeypatch.setattr(
        fracspec.experiments, "default_rng", lambda seed: drawn.append(seed) or real(seed)
    )
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["tauberian", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code:
        trials, m = (line.split(" = ")[1] for line in text.splitlines()[::-1])
        assert err.splitlines() == [
            f"error: {trials} trials x {m}**3 exceed the span work budget of "
            f"{budget or 2**33}"
        ]
        assert spawned == drawn == []
    else:
        assert err == ""
        assert spawned == [3] and len(drawn) == 3


@pytest.mark.parametrize("m, budget, code", [(1000000, None, 1), (9, 64, 1), (8, 64, 0)])
def test_cli_radial_scan_budget(tmp_path, capsys, monkeypatch, m, budget, code):
    """The radial scan refuses an m x m grid over the same budget before it
    draws a single value of it."""
    if budget is not None:
        monkeypatch.setattr(fracspec.tauberian.grid, "MAX_SQUARE_ENTRIES", budget)
    drawn = []
    real = fracspec.experiments.default_rng
    monkeypatch.setattr(
        fracspec.experiments, "default_rng", lambda seed: drawn.append(seed) or real(seed)
    )
    path = tmp_path / "run.cfg"
    path.write_text(f"tauberian.kind = radial\ntauberian.m = {m}\ntauberian.radii = 2\n")
    assert main(["tauberian", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: radial scan grid of") == (code == 1)
    assert len(drawn) == (code == 0)


def test_cli_config_errors_exit_2(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text("a = 1\na = 2\n")
    assert main(["dim", "--config", str(dup)]) == 2
    assert main(["dim", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_unreadable_inputs_exit_2(tmp_path, capsys):
    """A config that is not UTF-8, and an --out under an existing file,
    exit 2 with one error line that names the file."""
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\nlevel.depth = 3 \xff\n")
    assert main(["construct", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"config error: config {bad} is not valid UTF-8: invalid start byte at byte 25"
    ]
    ok = tmp_path / "ok.cfg"
    ok.write_text("level.depth = 2\n")
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["construct", "--config", str(ok), "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"config error: cannot make output directory {afile / 'construct'}: Not a directory"
    ]


def count_heavy_calls(monkeypatch):
    """Wrap build_level, every fourier_blocks evaluator and the mollifier's
    and bump's _panels in stubs that count their calls."""
    calls = []

    def counted(fn):
        return lambda *args, **kw: calls.append(fn.__name__) or fn(*args, **kw)

    def blocks(*args):
        evaluate, length = real_blocks(*args)
        return counted(evaluate), length

    real_blocks = fracspec.fourier.transforms.fourier_blocks
    build_level = counted(fracspec.experiments.build_level)
    monkeypatch.setattr(fracspec.experiments, "build_level", build_level)
    monkeypatch.setattr(fracspec.fourier.transforms, "fourier_blocks", blocks)
    monkeypatch.setattr(fracspec.fourier.annuli, "fourier_blocks", blocks)
    for module in (fracspec.fourier.mollifier, fracspec.fourier.bump):
        monkeypatch.setattr(module, "_panels", counted(module._panels))
    return calls


@pytest.mark.parametrize(
    "experiment,text,heavy",
    [
        ("construct", "level.depth = 2", "build_level"),
        ("fourier", "fourier.depth = 2\nfourier.j_max = 5\nfourier.samples_per_octave = 4",
         "evaluate"),
        ("mollify", MOLLIFY_SMALL, "_panels"),
    ],
    ids=["construct", "fourier", "mollify"],
)
def test_cli_unusable_out_refused_before_work(
    tmp_path, capsys, monkeypatch, experiment, text, heavy
):
    """An --out under a file, or whose <experiment> entry is a file, exits
    2 with one line before the step's kernel is called once; a usable --out
    runs the same config, and the kernel is counted."""
    calls = count_heavy_calls(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / experiment).write_text("")
    for out in (afile, tmp_path / "taken"):
        assert main([experiment, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot make output directory {out / experiment}: Not a directory"
        ]
        assert calls == []
    assert main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert heavy in calls


@pytest.mark.parametrize("value", ["2", "four"])
def test_cli_jobs_key_exits_2(tmp_path, capsys, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"level.depth = 2\njobs = {value}\n")
    assert main(["construct", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown key(s) for construct: 'jobs'" in err
    assert "Traceback" not in err


# Each case names its id, so adding a case renames no other; the first 20
# keep the ids pytest derived from their places in the list.
@pytest.mark.parametrize(
    "experiment,text,argv,named",
    [
        pytest.param("mollify", "mollify.truncate = abc", (), "mollify.truncate",
                     id='mollify-mollify.truncate = abc-argv0-mollify.truncate'),
        pytest.param("minkowski", "level.depth = 4\nminkowski.limit = 1e400", (), "minkowski.limit",
                     id='minkowski-level.depth = 4\nminkowski.limit = 1e400-argv1-minkowski.limit'),
        pytest.param("fourier", "fourier.samples_per_octave = 0", (), "fourier.samples_per_octave",
                     id='fourier-fourier.samples_per_octave = 0-argv2-fourier.samples_per_octave'),
        pytest.param("tauberian", "tauberian.trials = -1", (), "tauberian.trials",
                     id='tauberian-tauberian.trials = -1-argv3-tauberian.trials'),
        pytest.param("construct", "cantor.branches = -1", ("--seed", "1"), "cantor.branches",
                     id='construct-cantor.branches = -1-argv4-cantor.branches'),
        pytest.param("construct", "cantor.bogus = 1", (), "'cantor.bogus'",
                     id="construct-cantor.bogus = 1-argv5-'cantor.bogus'"),
        pytest.param("dim", "dim.level_mx = 5", (), "'dim.level_mx'",
                     id="dim-dim.level_mx = 5-argv6-'dim.level_mx'"),
        pytest.param("tauberian", "tauberian.kind = radial\ntauberian.band = -1\ntauberian.radii = 5", (), "tauberian.band",
                     id='tauberian-tauberian.kind = radial\ntauberian.band = -1\ntauberian.radii = 5-argv7-tauberian.band'),
        pytest.param("tauberian", "tauberian.kind = radial\ntauberian.radii = -5", (), "tauberian.radii",
                     id='tauberian-tauberian.kind = radial\ntauberian.radii = -5-argv8-tauberian.radii'),
        pytest.param("construct", "cantor.rule = custom", (), "cantor.rule",
                     id='construct-cantor.rule = custom-argv9-cantor.rule'),
        pytest.param("construct", "jobs = 2", (), "'jobs'",
                     id="construct-jobs = 2-argv10-'jobs'"),
        pytest.param("construct", "jobs = four", (), "'jobs'",
                     id="construct-jobs = four-argv11-'jobs'"),
        pytest.param("tauberian", "seed = -1\ntauberian.kind = span", (), "seed",
                     id='tauberian-seed = -1\ntauberian.kind = span-argv12-seed'),
        pytest.param("construct", "cantor.branches = 3\ncantor.ratio = 1/5", ("--seed", "-3"), "seed",
                     id='construct-cantor.branches = 3\ncantor.ratio = 1/5-argv13-seed'),
        pytest.param("fourier", "fourier.j_min = 2\nfourier.j_max = 3", (), "fourier.j_min..fourier.j_max",
                     id='fourier-fourier.j_min = 2\nfourier.j_max = 3-argv14-fourier.j_min..fourier.j_max'),
        pytest.param("dim", "dim.level_min = 3\ndim.level_max = 5", (), "dim.level_min..dim.level_max",
                     id='dim-dim.level_min = 3\ndim.level_max = 5-argv15-dim.level_min..dim.level_max'),
        pytest.param("construct", "cantor.rule = tapered", (), "unknown key(s) for construct: 'cantor.rule'",
                     id="construct-cantor.rule = tapered-argv16-unknown key(s) for construct: 'cantor.rule'"),
        pytest.param("construct", "cantor.rule = constant", (), "unknown key(s) for construct: 'cantor.rule'",
                     id="construct-cantor.rule = constant-argv17-unknown key(s) for construct: 'cantor.rule'"),
        pytest.param("fourier", "cantor.rule = tapered", (), "unknown key(s) for fourier: 'cantor.rule'",
                     id="fourier-cantor.rule = tapered-argv18-unknown key(s) for fourier: 'cantor.rule'"),
        pytest.param("fourier", "cantor.rule = constant", (), "unknown key(s) for fourier: 'cantor.rule'",
                     id="fourier-cantor.rule = constant-argv19-unknown key(s) for fourier: 'cantor.rule'"),
        # depths are refused while the config is parsed, before any octave
        pytest.param("fourier", "fourier.depth = 0\nfourier.j_max = 14", (), "fourier.depth = '0'",
                     id="fourier-depth-0"),
        pytest.param("construct", "level.depth = -1", (), "level.depth = '-1'",
                     id="construct-depth-negative"),
        pytest.param("dim", "dim.level_min = -3", (), "dim.level_min = '-3'",
                     id="dim-level-min-negative"),
        # the file's seed and experiment are checked even where the command line overrides them
        pytest.param("construct", "seed = abc", ("--seed", "3"), "seed must be an integer, got 'abc'",
                     id="construct-file-seed-malformed-overridden"),
        pytest.param("construct", "seed = -1", ("--seed", "3"), "seed must be a non-negative integer",
                     id="construct-file-seed-negative-overridden"),
        pytest.param("dim", "experiment = bogus", (), "unknown experiment 'bogus'",
                     id="dim-file-experiment-unknown-overridden"),
    ],
)
def test_cli_unusable_input_exits_2(
    tmp_path, capsys, monkeypatch, experiment, text, argv, named
):
    calls = count_heavy_calls(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    code = main([experiment, "--config", str(path), "--out", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "out" / experiment).exists()


# Small runs of each experiment, and values that are malformed for most keys.
FUZZ_BASES = {
    "construct": ("construct", "level.depth = 2", CONSTRUCT_KEYS),
    "dim": ("dim", "dim.level_min = 3\ndim.level_max = 6", DIM_KEYS),
    "minkowski": ("minkowski", "level.depth = 4", MINKOWSKI_KEYS),
    "fourier": (
        "fourier",
        "fourier.depth = 3\nfourier.j_max = 5\nfourier.samples_per_octave = 16",
        FOURIER_KEYS,
    ),
    "mollify": (
        "mollify",
        "mollify.eps_exp_max = 3\nmollify.j_min = -4\nmollify.j_max = 2",
        MOLLIFY_KEYS,
    ),
    "span": ("tauberian", "tauberian.m = 4\ntauberian.trials = 2", SPAN_KEYS),
    "radial": (
        "tauberian",
        "tauberian.kind = radial\ntauberian.m = 16\ntauberian.radii = 3",
        RADIAL_KEYS,
    ),
}
MALFORMED = ("", "abc", "-1", "0", "1/0", "nan", "1e400", ",")


@pytest.mark.parametrize("base", sorted(FUZZ_BASES))
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_cli_malformed_values_never_escape(tmp_path, capsys, base, data):
    experiment, text, table = FUZZ_BASES[base]
    key = data.draw(st.sampled_from(sorted(table) + ["bogus.key"]), label="key")
    value = data.draw(st.sampled_from(MALFORMED), label="value")
    lines = [line for line in text.splitlines() if line.split(" = ")[0] != key]
    # a fresh directory per example: rewriting a file costs far more than creating one
    where = Path(tempfile.mkdtemp(dir=tmp_path))
    path = where / "run.cfg"
    path.write_text("\n".join(["seed = 1", *lines, f"{key} = {value}"]) + "\n")
    code = main([experiment, "--config", str(path), "--out", str(where / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def joined_csv(header, rows) -> bytes:
    """The artifact bytes as one joined text, the oracle write_csv streams."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (str, int)) else fmt(c) for c in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [("a", 1, 0.25)],
        [
            ("a", 1, 0.25),
            ("", -2, 1 / 3),
            ("c", 10**20, np.float64(2.5e-300)),
            (fmt(0.1), 0, Fraction(1, 3)),
            ("e", True, np.float32(0.1)),
        ],
    ],
    ids=["header-only", "one-row", "mixed"],
)
def test_write_csv_streams_the_joined_bytes(tmp_path, rows):
    rows_once = (row for row in rows)
    write_csv(tmp_path / "t.csv", ("k", "n", "x"), rows_once)
    assert next(rows_once, None) is None
    assert (tmp_path / "t.csv").read_bytes() == joined_csv(("k", "n", "x"), rows)


def test_artifact_line_endings(tmp_path):
    """Every artifact's lines end in '\\n', except level.csv's, which
    csv.writer ends in '\\r\\n'."""
    paths = []
    for base in sorted(FUZZ_BASES):
        experiment, text, _ = FUZZ_BASES[base]
        _, _, out = run(tmp_path, experiment, text + "\n", out_name=base)
        paths += sorted(out.iterdir())
    assert "level.csv" in {path.name for path in paths}
    for path in paths:
        data = path.read_bytes()
        if path.name == "level.csv":
            assert data.count(b"\n") == data.count(b"\r\n") > 1, path
            assert data.endswith(b"\r\n"), path
        else:
            assert b"\r" not in data and data.endswith(b"\n"), path


@pytest.mark.parametrize("base", sorted(FUZZ_BASES))
def test_runners_write_nothing(tmp_path, base):
    """A runner only computes: called directly it makes no <out>, and the
    files run_experiment writes are the artifacts it returns and
    report.json."""
    experiment, text, _ = FUZZ_BASES[base]
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    cfg = ExperimentConfig.from_file(path, experiment=experiment, seed=1, out=str(tmp_path / "out"))
    *_, artifacts = fracspec.experiments.EXPERIMENTS[experiment](cfg)
    assert not (tmp_path / "out").exists()
    run_experiment(cfg)
    written = sorted(p.name for p in (tmp_path / "out" / experiment).iterdir())
    assert written == sorted([*artifacts, "report.json"])


@pytest.mark.parametrize("experiment", ["construct", "dim", "fourier"])
@pytest.mark.parametrize("seed", [(), ("--seed", "1")], ids=["seed0", "seed1"])
def test_cli_ratio_underflow_exits_1(tmp_path, capsys, experiment, seed):
    """A ratio whose float underflows to 0 ends in one error line, as an
    out-of-range ratio does, not in a traceback."""
    path = tmp_path / "run.cfg"
    path.write_text(f"cantor.ratio = 1/{10**400}\ncantor.offsets = 0, 1/2\n")
    code = main([experiment, "--config", str(path), "--out", str(tmp_path / "out"), *seed])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: ratio underflows to 0 as a float: its dimension has no float solve"
    ]


def test_cli_dim_scale_without_finite_log_exits_1(tmp_path, capsys):
    """Level lengths 10**(-300 m) float to 0 from m = 2 on, so their logs
    are not finite: one error line before the fit, not a LinAlgError."""
    path = tmp_path / "run.cfg"
    path.write_text(f"cantor.ratio = 1/{10**300}\ncantor.offsets = 0, 1/2\n")
    assert main(["dim", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["error: a scale has no finite log(1/eps) as a float"]


def refuse_to_tabulate(monkeypatch):
    """Make mollify's bump weights and shell tables raise."""

    def tabulated(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(fracspec.fourier.mollifier, "annulus_sups_squared", tabulated)
    monkeypatch.setattr(fracspec.fourier.mollifier, "_shell_tables", tabulated)


@pytest.mark.parametrize("text", ["mollify.j_min = -100000", "mollify.j_max = 500"])
def test_cli_mollify_octaves_out_of_range_exit_1(tmp_path, capsys, monkeypatch, text):
    """Octaves whose powers of two overflow are refused before any table."""
    refuse_to_tabulate(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["mollify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: octaves must satisfy dim * max(-j_lo, j_hi + 1) <= 1000"
    ]


@pytest.mark.parametrize(
    "text,message",
    [
        ("mollify.eps_exp_min = -2000", "eps exponents must satisfy -1023 <= e <= 1074"),
        ("mollify.eps_exp_min = -1100", "eps exponents must satisfy -1023 <= e <= 1074"),
        ("mollify.eps_exp_max = 1075", "eps exponents must satisfy -1023 <= e <= 1074"),
        ("mollify.eps_exp_max = 1000000000", "eps exponents must satisfy -1023 <= e <= 1074"),
        # eps = 2**-1060 is positive, but 2**(4 + 1) / eps overflows
        ("mollify.eps_exp_max = 1060", "every shell edge 2**j / eps must be a finite positive float"),
        # 2**-60 / 2**1023 underflows to 0
        (
            "mollify.eps_exp_min = -1023\nmollify.j_min = -60",
            "every shell edge 2**j / eps must be a finite positive float",
        ),
    ],
)
def test_cli_mollify_eps_out_of_range_exit_1(tmp_path, capsys, monkeypatch, text, message):
    """An eps = 2**-e or shell edge 2**j / eps that is not a finite positive
    float is refused before any table, with one error line."""
    refuse_to_tabulate(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["mollify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "text,budget,message",
    [
        ("mollify.truncate = none\nmollify.eps_exp_max = 14", None, "shell quadrature nodes"),
        ("mollify.truncate = none\nmollify.eps_exp_max = 60", None, "shell quadrature nodes"),
        ("mollify.j_max = 18", None, "annulus scan"),
        ("", ("MAX_SHELL_NODES", 3359), "shell quadrature nodes"),
        ("", ("MAX_SCAN_NODES", 8191), "annulus scan"),
    ],
    ids=[
        "mollify.truncate = none\nmollify.eps_exp_max = 14-None-shell quadrature nodes",
        "mollify.truncate = none\nmollify.eps_exp_max = 60-None-shell quadrature nodes",
        "mollify.j_max = 18-None-annulus scan",
        "-budget3-shell quadrature nodes",
        "-budget4-annulus scan",
    ],
)
def test_cli_mollify_work_budgets(tmp_path, capsys, monkeypatch, text, budget, message):
    """Shell nodes and annulus-scan nodes over their budgets exit 1 before
    any node is placed; the default sweep places 3360 shell nodes, and its
    top scan 8192 transform nodes."""

    def placed(*args):
        raise AssertionError("quadrature nodes were placed")

    monkeypatch.setattr(fracspec.fourier.mollifier, "_panels", placed)
    monkeypatch.setattr(fracspec.fourier.bump, "_panels", placed)
    if budget is not None:
        name, value = budget
        module = fracspec.fourier.mollifier if name == "MAX_SHELL_NODES" else fracspec.fourier.bump
        monkeypatch.setattr(module, name, value)
    if message == "shell quadrature nodes":
        # let the bump's weights be computed; only the shells must not be
        monkeypatch.setattr(
            fracspec.fourier.mollifier, "annulus_sups_squared", lambda dim, js: (1.0,) * len(js)
        )
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["mollify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and message in err and "exceed the budget" in err
    assert not (tmp_path / "out" / "mollify").exists()


@pytest.mark.parametrize(
    "refused, message, valid, artifact",
    [
        (
            "tauberian.kind = radial\ntauberian.m = 4096\ntauberian.radii = 2",
            "radial scan grid of 4096**2 entries exceeds the budget",
            "tauberian.kind = radial\ntauberian.m = 16\ntauberian.radii = 3",
            "radii.csv",
        ),
        (
            "tauberian.m = 64\ntauberian.trials = 100000",
            "100000 trials x 64**3 exceed the span work budget",
            "tauberian.m = 8\ntauberian.trials = 2",
            "trials.csv",
        ),
    ],
)
def test_cli_tauberian_budgets_make_no_out_dir(tmp_path, capsys, refused, message, valid, artifact):
    """A radial or span run refused by its budget exits 1 and leaves no
    out/tauberian, as a refused mollify does; a valid run still writes
    its artifacts there."""
    path, out = tmp_path / "run.cfg", tmp_path / "out"
    path.write_text(refused + "\n")
    assert main(["tauberian", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert not (out / "tauberian").exists()
    path.write_text(valid + "\n")
    assert main(["tauberian", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "tauberian" / artifact).is_file() and (out / "tauberian" / "report.json").is_file()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", ["mollify.p = 1000", "mollify.p = 1000\nmollify.truncate = none"])
def test_cli_mollify_lp_overflow_exits_1(tmp_path, capsys, text):
    """|f|**p overflowing a float is refused, not read as an infinite
    Holder bound that every b satisfies."""
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["mollify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: a shell integral of |f|**1000 is not a finite float"]
    assert not (tmp_path / "out" / "mollify").exists()


def test_mollify_notes_eps_beyond_the_support(tmp_path):
    """From eps = 2**-20 on, the shells 2**j / eps of j = -20..4 all lie
    beyond the support r < 1, so those sums read 0, and one note names
    those eps."""
    _, record, out = run(tmp_path, "mollify", "mollify.eps_exp_max = 22\n")
    summary = json.loads((out / "summary.json").read_text())
    beyond = [2.0**-e for e in (20, 21, 22)]
    assert summary["notes"] == [
        "no shell of j = -20..4 meets the support at eps = " + ", ".join(map(str, beyond))
    ]
    assert summary["sums"][-3:] == ["0", "0", "0"] and summary["sums"][-4] != "0"
    # the window's innermost edge 2**-3 / eps first reaches 1 at eps = 2**-3
    _, _, out = run(tmp_path, "mollify", "mollify.j_min = -3\n", out_name="narrow")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["notes"] == [
        "no shell of j = -3..4 meets the support at eps = "
        + ", ".join(str(2.0**-e) for e in range(3, 9))
    ]
    assert summary["sums"][0] != "0" and set(summary["sums"][1:]) == {"0"}


def test_cli_rejection_budget_exits_1(tmp_path, capsys, monkeypatch):
    """The rejection sampler counts uniforms, proposals x branches: a spent
    budget and a proposal wider than the budget each exit 1 with one
    error line, the latter before any uniform is drawn."""
    draws = []

    class RecordingRng:
        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)

        def uniform(self, low, high, size):
            draws.append(size)
            return self.rng.uniform(low, high, size=size)

    monkeypatch.setattr(fracspec.experiments, "default_rng", RecordingRng)
    monkeypatch.setattr(fracspec.cantor.sampling, "REJECTION_BUDGET", 45)
    path = tmp_path / "run.cfg"
    path.write_text("cantor.branches = 10\ncantor.ratio = 9/100\nseed = 1\n")
    assert main(["construct", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: no admissible draw in 4 proposals of 10 uniforms (budget 45 uniforms, ratio=9/100)"
    ]
    assert draws == [10] * 4
    draws.clear()
    monkeypatch.setattr(fracspec.cantor.sampling, "REJECTION_BUDGET", 9)
    assert main(["construct", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: one proposal of 10 uniforms exceeds the rejection budget of 9 uniforms"
    ]
    assert draws == []
    assert not (tmp_path / "out" / "construct").exists()


def refuse_to_build_levels(monkeypatch):
    """Make every fracspec module's build_level raise."""

    def build_level(*args):
        raise AssertionError("a level was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("fracspec") and hasattr(module, "build_level"):
            monkeypatch.setattr(module, "build_level", build_level)


def test_exact_volume_paths_build_no_level(tmp_path, capsys, monkeypatch):
    """minkowski, minkowski-ratio and product-bound read the closed-form
    gap spectrum: each runs, with its usual result, while build_level
    raises."""
    path = tmp_path / "run.cfg"
    path.write_text("level.depth = 12\n")
    want = run(tmp_path, "minkowski", "level.depth = 12\n", out_name="want")[2]
    refuse_to_build_levels(monkeypatch)
    assert main(["minkowski", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    got = tmp_path / "out" / "minkowski" / "ratios.csv"
    assert got.read_bytes() == (want / "ratios.csv").read_bytes()
    results = run_suite(["minkowski-ratio", "product-bound"])
    assert [(r.name, r.passed) for r in results] == [
        ("minkowski-ratio", True),
        ("product-bound", True),
    ], [r.detail for r in results]


def test_cli_minkowski_budget(tmp_path, capsys, monkeypatch):
    """minkowski builds no level but refuses the depths build_level would:
    two branches fit 2**20 intervals at depth 20, not at depth 21."""
    refuse_to_build_levels(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text("level.depth = 21\n")
    assert main(["minkowski", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: 2**21 intervals exceed the budget of 1048576"]
    assert not (tmp_path / "out" / "minkowski").exists()
    path.write_text("level.depth = 20\nminkowski.m_min = 19\n")
    assert main(["minkowski", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_cli_rejects_jobs_flag(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("level.depth = 2\n")
    with pytest.raises(SystemExit) as err:
        main(["construct", "--config", str(path), "--jobs", "2"])
    assert err.value.code == 2


def test_cli_minkowski_ratio_without_exact_exponent(tmp_path):
    # eta = 2/7 is not 1/q, so the sweep runs on the float dimension
    path = tmp_path / "run.cfg"
    path.write_text("cantor.ratio = 2/7\ncantor.offsets = 0, 5/7\nlevel.depth = 6\n")
    out = tmp_path / "out"
    assert main(["minkowski", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "minkowski" / "ratios.csv").read_text().splitlines()
    assert rows[0] == "eps,value,bound_low,bound_high"
    assert len(rows) == 1 + 5  # m_min = 2 .. m_max = depth


def test_cli_domain_errors_exit_1(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "cantor.branches = 3\ncantor.ratio = 2/5\ncantor.offsets = 0, 2/5, 3/5\n"
    )
    assert main(["construct", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_cli_verify_single_criterion(capsys):
    assert main(["verify", "--suite", "verdict-formulas"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("PASS verdict-formulas")
    summary = json.loads(out[-1])
    assert summary == {
        "criteria": {"verdict-formulas": True},
        "failed": 0,
        "passed": 1,
    }
