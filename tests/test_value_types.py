"""The program's value types: the inputs their constructors refuse, the
records compared by field, and the timings the runners put in them."""

import json

import pytest

from fracspec.acceptance import CriterionResult
from fracspec.cli import main
from fracspec.config import ExperimentConfig
from fracspec.errors import ConfigError, DomainError
from fracspec.experiments import ReportRecord
from fracspec.fourier.mollifier import RadialProfile
from fracspec.numeric import LogRatio
from fracspec.tauberian.verdict import STATUS_DENSE, STATUS_NONE, VerdictRow


def test_log_ratio_refuses_a_base_of_one():
    with pytest.raises(ValueError, match="LogRatio needs integers num, den > 1"):
        LogRatio(1, 3)


@pytest.mark.parametrize(
    "dim, p, support_radius, message",
    [
        (0, 4.0, None, "dim must be >= 1"),
        (2, 1.5, None, "declared p must be >= 2"),
        (2, 4.0, 0.0, "support_radius must be positive"),
    ],
)
def test_radial_profile_refusals(dim, p, support_radius, message):
    with pytest.raises(DomainError, match=message):
        RadialProfile(abs, dim, p, support_radius)


def test_dense_verdict_row_needs_p_at_least_one():
    with pytest.raises(DomainError, match="p-interval must sit inside"):
        VerdictRow("rule", STATUS_DENSE, 0.5, 2.0, "formula")
    # a row that concludes nothing carries its interval unchecked
    assert VerdictRow("rule", STATUS_NONE, 0.5, 2.0, "formula").p_lo == 0.5


def test_config_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        ExperimentConfig(experiment="dim", seed=-1)


def test_configs_without_options_share_no_dict():
    first, second = ExperimentConfig(experiment="dim"), ExperimentConfig(experiment="dim")
    assert first.options == second.options == {}
    first.options["dim.level_min"] = "2"
    assert second.options == {}


def test_records_compare_by_field():
    record = ReportRecord("dim", "digest", {"m": 1}, {"ok": True}, 0.5)
    assert record == ReportRecord("dim", "digest", {"m": 1}, {"ok": True}, 0.5)
    assert record != ReportRecord("dim", "digest", {"m": 1}, {"ok": True}, 0.25)
    result = CriterionResult("box-dimension", True, "detail", 0.5)
    assert result == CriterionResult("box-dimension", True, "detail", 0.5)
    assert result != CriterionResult("box-dimension", False, "detail", 0.5)


def test_report_json_carries_the_run_time(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("level.depth = 3\n")
    assert main(["construct", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "construct" / "report.json").read_text())
    assert report["wall_time_s"] > 0
