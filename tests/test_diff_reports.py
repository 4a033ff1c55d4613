"""scripts/diff_reports.py: byte comparison of two report directories with
the config path and ``out_dir`` masked."""

import importlib.util
from pathlib import Path

from doublesine.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("diff_reports", SCRIPTS / "diff_reports.py")
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)


def reports(out_dir: Path, config: Path) -> Path:
    assert main(["condition-22", "--config", str(config), "--out-dir", str(out_dir),
                 "--json", "c22.json", "--csv", "c22.csv"]) == 0
    return out_dir


def test_same_run_in_two_places_is_identical(tmp_path, capsys):
    config = SCRIPTS / "configs" / "condition22-osc.cfg"
    copy = tmp_path / "elsewhere.cfg"
    copy.write_bytes(config.read_bytes())
    a = reports(tmp_path / "a", config)
    b = reports(tmp_path / "b", copy)
    assert (a / "c22.json").read_bytes() != (b / "c22.json").read_bytes()
    capsys.readouterr()
    assert diff_reports.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "2 of 2 files identical\n"


def test_any_other_difference_fails(tmp_path, capsys):
    config = SCRIPTS / "configs" / "condition22-osc.cfg"
    a = reports(tmp_path / "a", config)
    b = reports(tmp_path / "b", config)
    text = (b / "c22.json").read_text()
    (b / "c22.json").write_text(text.replace('"pass": true', '"pass": false'))
    (b / "extra.csv").write_text("x\n")
    capsys.readouterr()
    assert diff_reports.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "extra.csv: only in" in out
    assert 'c22.json: differs' in out and '+  "pass": false' in out
    assert out.endswith("1 of 3 files identical\n")


def test_missing_directory(tmp_path, capsys):
    assert diff_reports.main([str(tmp_path), str(tmp_path / "none")]) == 2
    assert "is not a directory" in capsys.readouterr().err
