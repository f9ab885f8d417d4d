"""Config parsing, CLI overrides, and run digests."""

from fractions import Fraction

import pytest

from fracspec.config import ExperimentConfig, parse_config_text
from fracspec.errors import ConfigError

SAMPLE = """\
# run description
experiment = dim
seed = 42

cantor.branches = 2
cantor.ratio = 1/3   # trailing comment
dim.level_max = 9
fourier.q_list = 3, 6
mollify.alpha = 0.5
"""


def test_parse_basic_text():
    got = parse_config_text(SAMPLE)
    assert got["experiment"] == "dim"
    assert got["cantor.ratio"] == "1/3"
    assert got["fourier.q_list"] == "3, 6"
    assert "# run description" not in got


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a key value pair")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3")


def test_from_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.experiment == "dim"
    assert cfg.seed == 42
    assert cfg.out == "out"
    # command-line style overrides win over the file
    cfg2 = ExperimentConfig.from_file(path, experiment="minkowski", seed=7, out="elsewhere")
    assert cfg2.experiment == "minkowski"
    assert cfg2.seed == 7
    assert cfg2.out == "elsewhere"
    # the control keys are not left behind in options
    for key in ("experiment", "seed", "out"):
        assert key not in cfg2.options


def test_missing_file_and_missing_experiment(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig.from_file(tmp_path / "nope.cfg")
    bare = tmp_path / "bare.cfg"
    bare.write_text("cantor.branches = 2\n")
    with pytest.raises(ConfigError, match="no experiment"):
        ExperimentConfig.from_file(bare)
    cfg = ExperimentConfig.from_file(bare, experiment="construct")
    assert cfg.experiment == "construct"


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig(experiment="frobnicate")


@pytest.mark.parametrize("value", ["2", "four"])
def test_removed_jobs_key_rejected(tmp_path, value):
    # silently ignoring the key would leave it in the options and the digest
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE + f"jobs = {value}\n")
    with pytest.raises(ConfigError, match="'jobs' key was removed"):
        ExperimentConfig.from_file(path)


def test_typed_getters(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.get("cantor.branches") == "2"
    assert cfg.get_int("cantor.branches") == 2
    assert cfg.get_int("cantor.missing", 5) == 5
    assert cfg.get_rational("cantor.ratio") == Fraction(1, 3)
    assert cfg.get_float("mollify.alpha") == 0.5
    assert cfg.get_rational_list("fourier.q_list") == (Fraction(3), Fraction(6))
    assert cfg.get_rational_list("fourier.missing") is None
    with pytest.raises(ConfigError):
        cfg.get_int("cantor.ratio")
    with pytest.raises(ConfigError):
        cfg.get_rational("fourier.q_list")


def test_digest_covers_inputs_not_plumbing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    base = ExperimentConfig.from_file(path)
    assert base.digest() == ExperimentConfig.from_file(path).digest()
    # out does not affect identity
    moved = ExperimentConfig.from_file(path, out="x")
    assert moved.digest() == base.digest()
    # seed and options do
    reseeded = ExperimentConfig.from_file(path, seed=43)
    assert reseeded.digest() != base.digest()
    other = ExperimentConfig(experiment="dim", options={"cantor.branches": "3"}, seed=42)
    assert other.digest() != base.digest()


def test_digest_is_order_insensitive():
    a = ExperimentConfig(experiment="dim", options={"x": "1", "y": "2"})
    b = ExperimentConfig(experiment="dim", options={"y": "2", "x": "1"})
    assert a.digest() == b.digest()
