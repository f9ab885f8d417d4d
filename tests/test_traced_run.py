"""The traced run of the benchmark: perfbench's Recorder wraps the layer
functions that the glue modules import, and its work counters read what
those functions return."""

from pathlib import Path

import fracspec.cantor
import fracspec.experiments
from fracspec.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_construct_counts_level_intervals(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Recorder

    path = tmp_path / "run.cfg"
    path.write_text("level.depth = 6\n")
    recorder = Recorder()
    recorder.install()
    try:
        code = main(["construct", "--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        recorder.uninstall()
    assert code == 0, capsys.readouterr().err
    assert recorder.counts["cantor.build_level"] == {"calls": 1, "intervals": 64}
    assert fracspec.experiments.build_level is fracspec.cantor.build_level


def test_traced_upper_density_counts_measure_atoms(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Recorder

    recorder = Recorder()
    recorder.install()
    try:
        code = main(["verify", "--suite", "upper-density"])
    finally:
        recorder.uninstall()
    assert code == 0, capsys.readouterr().out
    assert recorder.counts["cantor.natural_measure"] == {"calls": 1, "atoms": 4096}
