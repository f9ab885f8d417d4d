"""Experiment runners end to end: artifacts, determinism, CLI exit codes."""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracspec.experiments
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
    run_experiment,
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


TAPERED_TEXT = (
    "cantor.branches = 3\n"
    "cantor.ratio = 1/5\n"
    "cantor.offsets = 0, 3/10, 61/100\n"
    "cantor.rule = tapered\n"
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
    "tapered-3": (
        TAPERED_TEXT,
        6,
        {
            "construct/level.csv": "68e730964cc973ccc8856604696d38f467890a4df68792b2cba459bec27e57dc",
            "construct/params.json": "0a561979cb06c37a6b1fff8428829ad1fa0fe8fa7a50c3c2b035170934ec4e18",
            "dim/counts.csv": "a556a1bd3c9584ab1e0a94efe63caf9f8c0d1a635d2fdffd1a0a6c069bd3ca59",
            "minkowski/ratios.csv": "ee83f1ac5fdf506a8533d817093eb15b9c798be61a1ed7c27c43eec752b0d751",
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
# a tapered ratio and for offsets drawn from a seed (dyadic numerators
# over 2**81), so integer levels over a common denominator must keep it.
PINNED_LEVELS = {
    "tapered-3": (
        TAPERED_TEXT,
        None,
        "44a58221d3576cc60bc0968b3969c42fe81eacb18bbda4947f5a7980255e97db",
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
PINNED_SPECTRAL = {
    "salem-4": (
        "fourier",
        "cantor.branches = 4\ncantor.ratio = 1/16\nfourier.depth = 6\nfourier.j_max = 6\n",
        1,
        {
            "fourier/octaves.csv": "e4a8ded49724124b02bfe960dcfec3b406e4bac0e4ab173b60392cce0f0effd1",
            "fourier/spectrum.csv": "548e2da09f0ced4023e147bdff9e4979d1ee3923c24b3312348de8a986728ca4",
        },
    ),
    "tapered-3": (
        "fourier",
        TAPERED_TEXT + "fourier.depth = 6\nfourier.j_max = 6\n",
        None,
        {
            "fourier/octaves.csv": "384d44f553d8cfa40d41b9f0da00cf9527e3ace62d46c47f7269523685d9d0f2",
            "fourier/spectrum.csv": "92248dddada7107330142e2cd9804ccd1779fd5422f43062fc5c38f3a2798d15",
        },
    ),
    "span-64": (
        "tauberian",
        "tauberian.kind = span\ntauberian.m = 64\ntauberian.trials = 50\n",
        1,
        {"tauberian/trials.csv": "ea13fba921de5f16dad68f23aadbc9d7dfb3f11283d354dbd4f603fe2b0f39f3"},
    ),
}


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
    "level_min, level_max, code, message",
    [
        (3, 21, 1, "exceed the budget"),
        (3, 10**6, 1, "exceed the budget"),
        (-1, 5, 1, ">= 0"),
        (3, 20, 0, ""),
    ],
)
def test_cli_dim_budget(tmp_path, capsys, monkeypatch, level_min, level_max, code, message):
    """dim refuses the windows build_level would, before any work: two
    branches fit 2**20 intervals at level 20 but not at level 21."""
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
    """fourier refuses a grid over the phase budget before it allocates
    the frequencies, and the budget counts frequencies x depth x branches."""
    if budget is not None:
        monkeypatch.setattr(fracspec.fourier.transforms, "MAX_GRID_PHASES", budget)
    called = []
    real = fracspec.experiments.cantor_fourier_grid
    monkeypatch.setattr(
        fracspec.experiments,
        "cantor_fourier_grid",
        lambda *args: called.append(args) or real(*args),
    )
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["fourier", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert len(called) == (code == 0)
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


@pytest.mark.parametrize("value", ["2", "four"])
def test_cli_jobs_key_exits_2(tmp_path, capsys, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"level.depth = 2\njobs = {value}\n")
    assert main(["construct", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown key(s) for construct: 'jobs'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "experiment,text,argv,named",
    [
        ("mollify", "mollify.truncate = abc", (), "mollify.truncate"),
        ("minkowski", "level.depth = 4\nminkowski.limit = 1e400", (), "minkowski.limit"),
        ("fourier", "fourier.samples_per_octave = 0", (), "fourier.samples_per_octave"),
        ("tauberian", "tauberian.trials = -1", (), "tauberian.trials"),
        ("construct", "cantor.branches = -1", ("--seed", "1"), "cantor.branches"),
        ("construct", "cantor.bogus = 1", (), "'cantor.bogus'"),
        ("dim", "dim.level_mx = 5", (), "'dim.level_mx'"),
        ("tauberian", "tauberian.kind = radial\ntauberian.band = -1\ntauberian.radii = 5", (), "tauberian.band"),
        ("tauberian", "tauberian.kind = radial\ntauberian.radii = -5", (), "tauberian.radii"),
        ("construct", "cantor.rule = custom", (), "cantor.rule"),
        ("construct", "jobs = 2", (), "'jobs'"),
        ("construct", "jobs = four", (), "'jobs'"),
        ("tauberian", "seed = -1\ntauberian.kind = span", (), "seed"),
        ("construct", "cantor.branches = 3\ncantor.ratio = 1/5", ("--seed", "-3"), "seed"),
        ("fourier", "fourier.j_min = 2\nfourier.j_max = 3", (), "fourier.j_min..fourier.j_max"),
        ("dim", "dim.level_min = 3\ndim.level_max = 5", (), "dim.level_min..dim.level_max"),
    ],
)
def test_cli_unusable_input_exits_2(tmp_path, capsys, experiment, text, argv, named):
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    code = main([experiment, "--config", str(path), "--out", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("experiment", ["construct", "dim", "fourier"])
@pytest.mark.parametrize("seed", [(), ("--seed", "1")])
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


@pytest.mark.parametrize("text", ["mollify.j_min = -100000", "mollify.j_max = 500"])
def test_cli_mollify_octaves_out_of_range_exit_1(tmp_path, capsys, monkeypatch, text):
    """Octaves whose powers of two overflow are refused before any table."""

    def tabulated(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(fracspec.fourier.mollifier, "bump_profile", tabulated)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert main(["mollify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: octaves must satisfy dim * max(-j_lo, j_hi + 1) <= 1000"
    ]


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
