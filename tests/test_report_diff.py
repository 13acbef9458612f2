"""tools/report_diff.py: reports compared with every timing removed."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import report_diff  # noqa: E402


def _report(ms, residual="2*k/p*f*x", names=("ref:a-b", "ref:f-y")):
    return {
        "schema_version": 1,
        "checks": [{"name": n, "pass": n != "ref:f-y", "ms": ms,
                    "details": {"residual": residual, "ms": ms}} for n in names],
        "metadata": {"ms": ms},
    }


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_timings_are_ignored(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _report(1.5))
    b = _write(tmp_path, "b.json", _report(230.25))
    assert report_diff.main([a, b]) == 0
    assert capsys.readouterr().out.strip() == "identical"


def test_first_difference_is_named(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _report(1.0))
    b = _write(tmp_path, "b.json", _report(2.0, residual="0"))
    assert report_diff.main([a, b]) == 1
    assert capsys.readouterr().out.strip() == (
        "first difference at $.checks[0].details.residual")


def test_missing_entries_and_types_differ():
    assert report_diff.first_difference(
        _report(0), _report(0, names=("ref:a-b",))) == "$.checks[1]"
    assert report_diff.first_difference({"pass": True}, {"pass": 1}) == "$.pass"
    assert report_diff.first_difference({"a": 1}, {"b": 1}) == "$.a"
