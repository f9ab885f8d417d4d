"""Config parsing, CLI overrides, and run digests."""

from fractions import Fraction

import pytest

from fracspec.config import (
    REQUIRED,
    ExperimentConfig,
    at_least,
    choice,
    list_of,
    parse_config_text,
    parse_real,
)
from fracspec.errors import ConfigError
from fracspec.experiments import DIM_KEYS
from fracspec.numeric import parse_rational

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


def test_config_not_utf8_rejected(tmp_path):
    """Bytes that are not UTF-8 are unusable input, not a decode crash."""
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 1\nlevel.depth = 3 \xff\n")
    with pytest.raises(ConfigError, match="not valid UTF-8: invalid start byte at byte 25"):
        ExperimentConfig.from_file(path, experiment="construct")


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig(experiment="frobnicate")


@pytest.mark.parametrize("value", ["2", "four"])
def test_removed_jobs_key_rejected(tmp_path, value):
    # jobs is no key of any run: silently ignoring it would leave it in the digest
    path = tmp_path / "run.cfg"
    path.write_text(f"experiment = dim\ndim.level_max = 9\njobs = {value}\n")
    cfg = ExperimentConfig.from_file(path)
    with pytest.raises(ConfigError, match="unknown key\\(s\\) for dim: 'jobs'$"):
        cfg.resolve(DIM_KEYS)


TABLE = {
    "cantor.branches": (at_least(2), 5),
    "cantor.ratio": (parse_rational, None),
    "tauberian.kind": (choice("span", "radial"), "span"),
    "dim.level_max": (int, 10),
    "dim.level_min": (int, 3),
    "fourier.q_list": (list_of(parse_rational), None),
    "mollify.alpha": (parse_real, 1.0),
}


def test_typed_getters(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    cfg = ExperimentConfig.from_file(path)
    got = cfg.resolve(TABLE)
    assert got == {
        "cantor.branches": 2,
        "cantor.ratio": Fraction(1, 3),
        "tauberian.kind": "span",
        "dim.level_max": 9,
        "dim.level_min": 3,
        "fourier.q_list": (Fraction(3), Fraction(6)),
        "mollify.alpha": 0.5,
    }
    assert type(got["cantor.branches"]) is int
    assert type(got["cantor.ratio"]) is Fraction
    assert type(got["mollify.alpha"]) is float
    # every error names the key it is about
    with pytest.raises(ConfigError, match="cantor.ratio = '1/3' is malformed"):
        cfg.resolve({**TABLE, "cantor.ratio": (int, None)})
    with pytest.raises(ConfigError, match="fourier.q_list"):
        cfg.resolve({**TABLE, "fourier.q_list": (parse_rational, None)})
    with pytest.raises(ConfigError, match="cantor.branches = '2' is malformed: must be >= 3"):
        cfg.resolve({**TABLE, "cantor.branches": (at_least(3), 5)})
    with pytest.raises(ConfigError, match="tauberian.radii is required"):
        cfg.resolve({**TABLE, "tauberian.radii": (list_of(parse_rational), REQUIRED)})
    with pytest.raises(ConfigError, match="unknown key\\(s\\) for dim: 'mollify.alpha'"):
        cfg.resolve({k: v for k, v in TABLE.items() if k != "mollify.alpha"})
    # arithmetic failures are config errors too
    for raw in ("1/0", "1e400"):
        bad = ExperimentConfig(experiment="dim", options={"mollify.alpha": raw})
        with pytest.raises(ConfigError, match="mollify.alpha"):
            bad.resolve(TABLE)


def digest_of(cfg):
    return cfg.digest(cfg.resolve(TABLE))


def test_digest_covers_inputs_not_plumbing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    base = ExperimentConfig.from_file(path)
    assert digest_of(base) == digest_of(ExperimentConfig.from_file(path))
    # out does not affect identity
    moved = ExperimentConfig.from_file(path, out="x")
    assert digest_of(moved) == digest_of(base)
    # seed and options do
    reseeded = ExperimentConfig.from_file(path, seed=43)
    assert digest_of(reseeded) != digest_of(base)
    other = ExperimentConfig(experiment="dim", options={"cantor.branches": "3"}, seed=42)
    assert digest_of(other) != digest_of(base)


def test_digest_is_order_insensitive():
    a = ExperimentConfig(experiment="dim", options={"dim.level_min": "1", "dim.level_max": "2"})
    b = ExperimentConfig(experiment="dim", options={"dim.level_max": "2", "dim.level_min": "1"})
    assert digest_of(a) == digest_of(b)


def test_digest_hashes_resolved_values():
    """An option given at its default, or written another way, is the
    same run as one left out; another value is not."""

    def digest(**ratio):
        options = {"dim.level_max": "9", **{f"cantor.{k}": v for k, v in ratio.items()}}
        cfg = ExperimentConfig(experiment="dim", options=options)
        return cfg.digest(cfg.resolve(DIM_KEYS))

    assert digest() == digest(ratio="1/3") == digest(ratio="2/6")
    assert digest(ratio="1/5") != digest()
