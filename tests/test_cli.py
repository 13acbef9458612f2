"""Command line driver: exit codes, report schema, output modes."""

import argparse
import errno
import hashlib
import json
import marshal
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from jforge import cli, contraction, rtt
from jforge.cli import main
from jforge.errors import JforgeError
from jforge.freealg import RewriteSystem
from jforge.rtt import DerivedAlgebra

from conftest import no_children_left, usable_cpus

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import report_diff  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_qybe_passes(capsys):
    code, data, _ = run_json(capsys, "qybe", "--matrix", "rq2")
    assert code == 0
    assert data["pass"] is True
    assert data["schema_version"] == 1
    assert data["tool"] == "qybe"
    assert data["checks"][0]["name"] == "qybe:rq2"
    assert data["metadata"]["matrix"] == "rq2"


def test_qybe_text_mode(capsys):
    code, out, _ = run(capsys, "qybe", "--matrix", "rj2")
    assert code == 0
    assert "PASS  qybe:rj2" in out
    assert "qybe: 1/1 checks passed" in out


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "qybe", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"jforge: cannot write {path}: ")


def test_contract_main_lane(capsys):
    code, data, _ = run_json(capsys, "contract")
    assert code == 0
    names = [c["name"] for c in data["checks"]]
    assert names == ["finite-limit", "surviving-parameters", "matches-target"]
    assert data["metadata"]["lane"] == "bigg"
    assert len(data["metadata"]["schedule_sha256"]) == 64
    assert data["metadata"]["result_matrix"]["dim"] == 3
    assert len(data["metadata"]["result_matrix"]["basis"]) == 9


def test_contract_small_lane(capsys):
    code, data, _ = run_json(capsys, "contract", "--contraction-matrix", "g")
    assert code == 0
    assert data["pass"] is True


def test_contract_probe_lane_records_without_asserting(capsys):
    code, data, _ = run_json(capsys, "contract", "--contraction-matrix",
                             "gprime")
    assert code == 0
    check = data["checks"][0]
    assert check["name"] == "probe-recorded"
    assert check["details"]["note"] == "no target asserted"
    assert check["details"]["records"]


def test_contract_output_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["contract", "--format", "json", "--output", str(first)]) == 0
    assert main(["contract", "--format", "json", "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_text() == second.read_text()


def test_output_flag_writes_file_and_summarizes(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "qybe", "--matrix", "rj2", "--format", "json",
                       "--output", str(path))
    assert code == 0
    assert str(path) in out
    assert json.loads(path.read_text())["pass"] is True


def test_missing_schedule_is_usage_error(capsys):
    code, _, err = run(capsys, "contract", "--schedule", "/no/such/file")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("payload, message", [
    # a UTF-16 byte-order mark: decoded as UTF-8, not sniffed as UTF-16
    (b"\xff\xfe{\x00}\x00",
     "cannot read schedule {path}: 'utf-8' codec can't decode byte 0xff"),
    (b"this is not json", "cannot read schedule {path}: Expecting value"),
    (b"[1, 2]", "schedule must be a JSON object\n"),
    # JSON values of the wrong type: a number where a name goes, and
    # literals that str() would turn into parameters named None and True
    (b'{"limit_var": 5, "bindings": {"eta": "1/eps"}}', "limit_var must be a string, got 5\n"),
    (b'{"limit_var": "eps", "bindings": {"eta": null}}',
     "binding 'eta' must be an expression string, got null\n"),
    (b'{"limit_var": "eps", "bindings": {"eta": true}}',
     "binding 'eta' must be an expression string, got true\n"),
], ids=["utf-16-bom", "not-json", "not-an-object", "limit-var-number", "binding-null",
        "binding-true"])
def test_unreadable_schedule_is_a_schedule_error(capsys, tmp_path, payload, message):
    path = tmp_path / "bad.schedule"
    path.write_bytes(payload)
    code, out, err = run(capsys, "contract", "--schedule", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("jforge: " + message.format(path=path))


def test_schedule_that_is_a_directory_is_a_schedule_error(capsys, tmp_path):
    code, _, err = run(capsys, "contract", "--schedule", str(tmp_path))
    assert code == 2
    assert f"jforge: cannot read schedule {tmp_path}: " in err


def test_all_reports_an_undecodable_schedule(capsys, tmp_path):
    path = tmp_path / "bad.schedule"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, data, _ = run_json(capsys, "all", "--schedule", str(path))
    assert code == 1
    check = next(c for c in data["checks"] if c["name"] == "contract:schedule-loads")
    assert check["pass"] is False
    assert check["details"]["error"].startswith(f"cannot read schedule {path}: ")


def test_schedule_file_is_read_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "copy.schedule"
    path.write_bytes((ROOT / "src" / "jforge" / "data" / "jordanian_gl3.schedule").read_bytes())
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(contraction, "open", counting_open, raising=False)
    code, data, _ = run_json(capsys, "contract", "--schedule", str(path),
                             "--contraction-matrix", "g")
    assert code == 0
    assert opened == [str(path)]
    assert data["metadata"]["schedule_sha256"] == hashlib.sha256(
        path.read_bytes()).hexdigest()


def test_malformed_set_is_usage_error(capsys):
    code, _, err = run(capsys, "qybe", "--set", "oops")
    assert code == 2
    assert "NAME=EXPR" in err
    # a name bound twice is ambiguous; the later binding does not win
    code, _, err = run(capsys, "qybe", "--set", "m=2", "--set", "m=3")
    assert code == 2
    assert "--set m is given more than once" in err


def test_unparseable_set_is_usage_error(capsys):
    code, _, err = run(capsys, "qybe", "--set", "m=2 **")
    assert code == 2
    assert "--set m" in err


@pytest.mark.parametrize("command", ["qybe", "relations"])
def test_division_by_zero_in_set_is_usage_error(capsys, command):
    code, _, err = run(capsys, command, "--set", "m=1/0")
    assert code == 2
    assert "jforge: --set m: inverse of zero" in err


def test_pole_under_substitution_keeps_exit_1(capsys):
    code, _, err = run(capsys, "qybe", "--set", "p=0")
    assert code == 1
    assert "--set" not in err


# the relations cases are named by the value alone, the names they already had
@pytest.mark.parametrize("argv, value", [
    pytest.param(argv, value, id=value if argv[0] == "relations" else f"{argv[0]}-{value}")
    for argv in (["relations"], ["qybe", "--matrix", "rj3"], ["contract"], ["all"])
    for value in ("abc", "0", "-5")])
def test_bad_max_steps_is_usage_error(capsys, monkeypatch, argv, value):
    # checked before any stage runs, also by stages that do no rewriting
    monkeypatch.setenv("JFORGE_MAX_STEPS", value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "JFORGE_MAX_STEPS" in err


def test_max_steps_bound_is_honoured(capsys, monkeypatch):
    monkeypatch.setenv("JFORGE_MAX_STEPS", "1000")
    code, data, _ = run_json(capsys, "relations")
    assert code == 1
    assert [c["name"] for c in data["checks"] if not c["pass"]] == ["ref:f-y"]
    monkeypatch.setenv("JFORGE_MAX_STEPS", "1")
    code, _, err = run(capsys, "relations")
    assert code == 1
    assert "rewriting exceeded 1 steps" in err


def test_max_degree_floor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["relations", "--max-degree", "2"])
    assert exc.value.code == 2


def test_relations_reports_the_one_recorded_mismatch(capsys):
    code, data, _ = run_json(capsys, "relations")
    assert code == 1
    failing = [c for c in data["checks"] if not c["pass"]]
    assert [c["name"] for c in failing] == ["ref:f-y"]
    details = failing[0]["details"]
    assert details["recorded_residual"] == "2*k/p*f*x"
    assert details["sign_flipped_residual"] == "0"
    assert data["metadata"]["convention"] == "plain"
    assert "table" in data["metadata"]


def test_relations_auto_convention_records_scores(capsys):
    code, data, _ = run_json(capsys, "relations", "--convention", "auto")
    assert code == 1
    assert data["metadata"]["convention"] == "plain"
    assert data["metadata"]["convention_scores"] == {"plain": 26,
                                                     "transposed": -1}


@pytest.mark.parametrize("pairs, transposed_score", [
    ([], -1),
    (["m=3/2", "n=-2/3", "k=5", "p=7/4"], -1),
    # at m = n = 0 the transposed reading orients too, and loses
    (["m=0", "n=0"], 13),
    (["p=1+m"], -1),
], ids=["symbolic", "point", "m-n-zero", "expression"])
def test_auto_extends_the_winning_graded_table(pairs, transposed_score):
    bindings = cli._bindings(pairs)
    graded = cli._graded(argparse.Namespace(convention="auto"), bindings)
    assert graded.resolution_scores["transposed"]["score"] == transposed_score
    got = graded.extended()
    want = DerivedAlgebra(convention="plain", bindings=bindings)
    assert got.convention == "plain"
    assert got.to_dict() == want.to_dict()
    assert (got.system.confluence_report(max_degree=3).to_dict()
            == want.system.confluence_report(max_degree=3).to_dict())


def test_relations_transposed_convention_fails_cleanly(capsys):
    code, _, err = run(capsys, "relations", "--convention", "transposed")
    assert code == 1
    assert "normal-order" in err


def test_hopf_all_groups_pass(capsys):
    code, data, _ = run_json(capsys, "hopf")
    assert code == 0
    assert data["pass"] is True
    assert data["metadata"]["braiding"] is True
    names = [c["name"] for c in data["checks"]]
    assert "full:coassociativity" in names
    assert "counit-of-antipode" in names
    assert "plane-relation-covariant" in names


def test_hopf_single_group(capsys):
    code, data, _ = run_json(capsys, "hopf", "--check", "qdet")
    assert code == 0
    assert len(data["checks"]) == 5


def test_hopf_unknown_group_is_usage_error(capsys):
    code, _, err = run(capsys, "hopf", "--check", "nonsense")
    assert code == 2
    assert "nonsense" in err


def test_hopf_no_braiding_negative_control(capsys):
    code, data, _ = run_json(capsys, "hopf", "--check", "coaction",
                             "--no-braiding")
    assert code == 1
    assert data["metadata"]["braiding"] is False
    assert not data["checks"][0]["pass"]


def test_main_reuses_the_one_parser(capsys, monkeypatch):
    cli.build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "qybe", "--matrix", "rq2")[0] == 0
    assert run(capsys, "contract", "--contraction-matrix", "g")[0] == 0
    assert built == []
    assert cli.build_parser.cache_info().misses == 1


def test_a_reused_parser_carries_no_bindings_over(capsys):
    # p = 0 is a pole of rj3's 1/p
    assert run(capsys, "qybe", "--matrix", "rj3", "--set", "p=0")[0] == 1
    code, data, _ = run_json(capsys, "qybe", "--matrix", "rj3")
    assert code == 0
    assert data["pass"] is True


def test_a_reused_parser_carries_no_check_groups_over(capsys):
    code, data, _ = run_json(capsys, "hopf", "--check", "qdet")
    assert len(data["checks"]) == 5
    code, data, _ = run_json(capsys, "hopf")
    assert code == 0
    names = {c["name"] for c in data["checks"]}
    # one check of each group
    assert {"full:coassociativity", "co-ideal", "counit-of-antipode",
            "determinant-inverse", "commutator:a", "plane-relation-covariant"} <= names
    assert len(names) == 32


def test_a_reused_parser_carries_no_braiding_flag_over(capsys):
    code, data, _ = run_json(capsys, "hopf", "--check", "coaction", "--no-braiding")
    assert code == 1
    assert data["metadata"]["braiding"] is False
    code, data, _ = run_json(capsys, "hopf", "--check", "coaction")
    assert code == 0
    assert data["metadata"]["braiding"] is True


def test_all_aggregates_and_isolates_contract_failures(capsys, tmp_path):
    broken = tmp_path / "broken.schedule"
    broken.write_text("this is not json")
    code, data, _ = run_json(capsys, "all", "--schedule", str(broken))
    assert code == 1
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["contract:schedule-loads"]["pass"] is False
    # the pipeline still ran the later stages
    assert "relations:ref:f-y" in by_name
    assert "hopf:counit-of-antipode" in by_name
    assert "qybe:rj3" in by_name


def test_all_reports_a_pole_of_the_schedule_and_runs_on(capsys, tmp_path):
    schedule = json.loads((ROOT / "src" / "jforge" / "data" / "jordanian_gl3.schedule")
                          .read_text(encoding="utf-8"))
    schedule["bindings"]["s"] = "0"
    path = tmp_path / "zero-pole.schedule"
    path.write_text(json.dumps(schedule), encoding="utf-8")
    code, data, _ = run_json(capsys, "all", "--schedule", str(path))
    assert code == 1
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["contract:finite-limit"]["pass"] is False
    assert by_name["contract:finite-limit"]["details"]["error"] == \
        "substitution sends denominator to zero"
    assert "relations:ref:f-y" in by_name
    assert "hopf:counit-of-antipode" in by_name
    # contract on its own stops there, and all stops at a pole of --set
    for argv in (["contract", "--schedule", str(path)], ["all", "--set", "p=0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "jforge: substitution sends denominator to zero\n"


def test_all_default_run(capsys):
    code, data, _ = run_json(capsys, "all")
    assert code == 1
    failing = [c["name"] for c in data["checks"] if not c["pass"]]
    assert failing == ["relations:ref:f-y"]
    assert data["metadata"]["schedule_sha256"].startswith("a2051b1ba8981de7")


def hangs(*args, **kwargs):
    time.sleep(600)


def fails(message):
    def raises(*args, **kwargs):
        raise JforgeError(message)
    return raises


# -- the grid worker: the stages on grid words beside the adjoined inverses ------

K_ZERO = ["--set", "m=3/2", "--set", "n=-2/3", "--set", "k=0", "--set", "p=7/4"]
POINT = ["--set", "m=3/2", "--set", "n=-2/3", "--set", "k=5", "--set", "p=7/4"]


@pytest.mark.parametrize("argv", [
    [], K_ZERO, ["--set", "p=1+m"], ["--no-braiding"], ["--contraction-matrix", "gprime"],
], ids=["default", "k-zero", "expression", "no-braiding", "gprime"])
def test_all_in_workers_reports_as_in_process(capsys, monkeypatch, time_limit, argv):
    runs = []
    # the grid worker with two usable CPUs; with one, os.fork is never called
    for cpus, workers in ((2, 1), (1, 0)):
        forks = usable_cpus(monkeypatch, cpus)
        with time_limit(120):
            code, out, err = run(capsys, "all", *argv, "--format", "json")
        assert len(forks) == workers
        stripped = json.dumps(report_diff.strip_ms(json.loads(out)), indent=2, sort_keys=True)
        runs.append((code, stripped, err))
    assert runs[0] == runs[1]
    no_children_left()


def test_a_qybe_error_wins_over_the_derivation_with_no_fork(capsys, monkeypatch, time_limit):
    forks = usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "qybe_check", fails("qybe failed"))
    monkeypatch.setattr(cli, "_graded", fails("the derivation failed"))
    with time_limit(60):
        assert run(capsys, "all") == (1, "", "jforge: qybe failed\n")
    assert forks == []
    no_children_left()


def test_a_derivation_error_runs_qybe_and_contract_first(capsys, monkeypatch, time_limit,
                                                         tmp_path):
    # the step bound stops the adjunction of the inverses, in the parent,
    # once the grid worker ran qybe and the parent contract; the worker's
    # own error (the recorded relations overrun the bound too) comes later
    forks = usable_cpus(monkeypatch, 2)
    ran = tmp_path / "ran"

    def recorded(stage, work):
        def run_and_record(*args):
            with open(ran, "a") as fh:
                fh.write(f"{stage} {os.getpid()}\n")
            return work(*args)
        return run_and_record

    monkeypatch.setattr(cli, "_qybe_checks", recorded("qybe", cli._qybe_checks))
    monkeypatch.setattr(cli, "_contract_checks", recorded("contract", cli._contract_checks))
    monkeypatch.setenv("JFORGE_MAX_STEPS", "50")
    with time_limit(60):
        assert run(capsys, "all") == (1, "", "jforge: rewriting exceeded 50 steps\n")
    assert len(forks) == 1
    assert sorted(ran.read_text().splitlines()) == [f"contract {os.getpid()}",
                                                    f"qybe {forks[0]}"]
    no_children_left()


@pytest.mark.parametrize("command, grid_target, grid_error, parent_target, parent_error", [
    # qybe comes first in all, the worker's first stage
    ("all", "qybe_check", "qybe failed", "quotient", "the quotient failed"),
    # the recorded relations come before the critical pairs of the inverses
    ("relations", "verify_reference", "the reference relations failed",
     "unresolved", "the inverse pairs failed"),
], ids=["all-qybe", "relations-reference"])
def test_a_grid_error_wins_over_a_later_error_of_the_parent(
        capsys, monkeypatch, time_limit, command, grid_target, grid_error,
        parent_target, parent_error):
    monkeypatch.setattr(cli, grid_target, fails(grid_error))
    if parent_target == "quotient":
        monkeypatch.setattr(DerivedAlgebra, "quotient", fails(parent_error))
    else:
        # the parent's half of the critical pairs: those off the grid words
        unresolved = RewriteSystem.unresolved

        def parent_fails(self, max_degree=None, keep=None):
            if keep is not cli._on_grid:
                raise JforgeError(parent_error)
            return unresolved(self, max_degree, keep)

        monkeypatch.setattr(RewriteSystem, "unresolved", parent_fails)
    for cpus in (2, 1):
        forks = usable_cpus(monkeypatch, cpus)
        with time_limit(60):
            assert run(capsys, command) == (1, "", f"jforge: {grid_error}\n")
        assert len(forks) == cpus - 1
    no_children_left()


@pytest.mark.parametrize("stage", ["contract", "derivation"])
def test_a_parent_error_wins_over_a_later_grid_error(capsys, monkeypatch, time_limit, stage):
    # the parent waits for the worker, whose qybe came first, and its own
    # error, which comes before the worker's, wins
    if stage == "contract":
        monkeypatch.setattr(cli, "_contract_stage", fails("the parent failed"))
    else:
        monkeypatch.setattr(DerivedAlgebra, "extended", fails("the parent failed"))
    monkeypatch.setattr(cli, "verify_reference", fails("the reference relations failed"))
    for cpus in (2, 1):
        forks = usable_cpus(monkeypatch, cpus)
        with time_limit(60):
            assert run(capsys, "all") == (1, "", "jforge: the parent failed\n")
        assert len(forks) == cpus - 1
    no_children_left()


@pytest.mark.parametrize("command, target", [
    ("relations", "verify_reference"), ("hopf", "check_bialgebra"),
])
def test_a_derivation_error_kills_the_grid_worker(capsys, monkeypatch, time_limit,
                                                  command, target):
    # the adjunction comes before every grid stage of relations and hopf
    forks = usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, target, hangs)
    monkeypatch.setattr(DerivedAlgebra, "extended", fails("the adjunction failed"))
    with time_limit(30):
        assert run(capsys, command) == (1, "", "jforge: the adjunction failed\n")
    assert len(forks) == 1
    no_children_left()


@pytest.mark.parametrize("command, target", [
    ("all", "_qybe_checks"), ("relations", "verify_reference"),
    ("hopf", "check_bialgebra"),
])
def test_a_worker_that_dies_is_an_error_that_names_its_stage(capsys, monkeypatch,
                                                             time_limit, command, target):
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies(*args, **kwargs):
        assert os.getpid() != parent, "the stage ran in the parent"
        os._exit(3)

    monkeypatch.setattr(cli, target, dies)
    with time_limit(60):
        code, out, err = run(capsys, command)
    assert (code, out) == (1, "")
    assert err == "jforge: the grid worker exited with status 3 before it sent its report\n"
    no_children_left()


# -- the grid worker of relations and hopf -----------------------------------------

BINDINGS = {"default": [], "point": ["--convention", "auto", *POINT],
            "k-zero": ["--convention", "auto", *K_ZERO], "expression": ["--set", "p=1+m"],
            "on-locus": ["--set", "m=0"]}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, workers", [
    *((["relations", *argv], 1) for argv in BINDINGS.values()),
    *((["hopf", *argv], 1) for argv in BINDINGS.values()),
    (["hopf", "--no-braiding"], 1),
    (["hopf", "--check", "bialgebra"], 1),
    (["hopf", "--check", "antipode"], 0),
    # four critical pairs of degree 4 do not resolve, on both sides
    (["relations", "--max-degree", "4"], 1),
    (["hopf", "--check", "delta-centrality"], 1),
    (["hopf", "--check", "coaction", "--no-braiding", *POINT], 1),
    (["hopf", "--check", "qdet", "--check", "hopf-ideal"], 0),
], ids=[*(f"relations-{name}" for name in BINDINGS), *(f"hopf-{name}" for name in BINDINGS),
        "hopf-no-braiding", "hopf-bialgebra", "hopf-antipode", "relations-degree-4",
        "hopf-delta-centrality", "hopf-coaction", "hopf-qdet-hopf-ideal"])
def test_relations_and_hopf_in_workers_report_as_in_process(capsys, monkeypatch, time_limit,
                                                            argv, workers, fmt):
    runs = []
    for cpus in (2, 1):
        forks = usable_cpus(monkeypatch, cpus)
        with time_limit(120):
            code, out, err = run(capsys, *argv, "--format", fmt)
        assert len(forks) == (workers if cpus > 1 else 0)
        if fmt == "json":
            out = json.dumps(report_diff.strip_ms(json.loads(out)), indent=2, sort_keys=True)
        runs.append((code, out, err))
    assert runs[0] == runs[1]
    no_children_left()


def test_a_confluence_error_wins_over_the_table(capsys, monkeypatch, time_limit):
    # the critical pairs, those on grid words in the worker and the others
    # in the parent, come before the table in the stage order
    monkeypatch.setattr(DerivedAlgebra, "to_dict", fails("the table failed"))
    unresolved = RewriteSystem.unresolved
    for on_the_grid in (True, False):
        def one_side_fails(self, max_degree=None, keep=None, on_the_grid=on_the_grid):
            if (keep is cli._on_grid) == on_the_grid:
                raise JforgeError("confluence failed")
            return unresolved(self, max_degree, keep)

        monkeypatch.setattr(RewriteSystem, "unresolved", one_side_fails)
        for cpus in (2, 1):
            forks = usable_cpus(monkeypatch, cpus)
            with time_limit(60):
                assert run(capsys, "relations") == (1, "", "jforge: confluence failed\n")
            assert len(forks) == cpus - 1
    no_children_left()


def test_a_quotient_error_kills_the_bialgebra_worker(capsys, monkeypatch, time_limit):
    forks = usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "check_bialgebra", hangs)
    monkeypatch.setattr(DerivedAlgebra, "quotient", fails("the quotient failed"))
    with time_limit(30):
        assert run(capsys, "hopf") == (1, "", "jforge: the quotient failed\n")
    assert len(forks) == 1
    no_children_left()


def test_a_full_bialgebra_error_wins_over_the_other_groups(capsys, monkeypatch, time_limit):
    check_bialgebra = cli.check_bialgebra

    def full_fails(system, layout):
        if layout is cli.LAYOUT_3:
            raise JforgeError("the full bialgebra check failed")
        return check_bialgebra(system, layout)

    monkeypatch.setattr(cli, "check_bialgebra", full_fails)
    monkeypatch.setattr(cli, "qdet_checks", fails("qdet failed"))
    for cpus in (2, 1):
        forks = usable_cpus(monkeypatch, cpus)
        with time_limit(60):
            assert run(capsys, "hopf") == (1, "", "jforge: the full bialgebra check failed\n")
        assert len(forks) == cpus - 1
    no_children_left()


@pytest.mark.parametrize("command", ["relations", "hopf", "all"])
def test_a_worker_report_that_does_not_load_names_its_stage(capsys, monkeypatch, time_limit,
                                                            command):
    # the worker writes half its report and exits with status 0
    forks = usable_cpus(monkeypatch, 2)
    dumps = marshal.dumps

    def half(value):
        data = dumps(value)
        return data[:len(data) // 2]

    monkeypatch.setattr(cli, "marshal", types.SimpleNamespace(dumps=half, loads=marshal.loads))
    with time_limit(60):
        assert run(capsys, command) == (1, "", "jforge: the grid worker exited with status 0 "
                                               "and sent a report that does not load\n")
    assert len(forks) == 1
    no_children_left()


@pytest.mark.parametrize("command", ["relations", "hopf", "all"])
def test_workers_are_reaped_after_the_report_is_printed(capsys, monkeypatch, time_limit,
                                                        command):
    forks = usable_cpus(monkeypatch, 2)
    events = []
    emit, waitpid = cli._emit, os.waitpid

    def emitted(*args):
        code = emit(*args)
        events.append("printed")
        return code

    def reaped(pid, options):
        events.append("waitpid")
        return waitpid(pid, options)

    monkeypatch.setattr(cli, "_emit", emitted)
    monkeypatch.setattr(os, "waitpid", reaped)
    with time_limit(120):
        code, out, _ = run(capsys, command, "--format", "json")
    assert json.loads(out)["checks"]
    assert (events, len(forks)) == (["printed", "waitpid"], 1)
    no_children_left()


@pytest.mark.parametrize("argv", [
    ["relations"], ["hopf"], ["all"], ["relations", "--convention", "auto", *POINT],
    ["hopf", "--set", "m=0"],
], ids=["relations", "hopf", "all", "relations-point", "hopf-on-locus"])
def test_the_grid_worker_is_forked_before_the_first_inverse_is_adjoined(
        capsys, monkeypatch, time_limit, argv):
    forks = usable_cpus(monkeypatch, 2)
    events = []
    fork, append_inverse = os.fork, rtt.append_inverse

    def forked():
        pid = fork()
        if pid:
            events.append("fork")
        return pid

    def adjoined(*args, **kwargs):
        events.append(("append_inverse", os.getpid()))
        return append_inverse(*args, **kwargs)

    monkeypatch.setattr(os, "fork", forked)
    monkeypatch.setattr(rtt, "append_inverse", adjoined)
    with time_limit(120):
        assert run(capsys, *argv)[0] in (0, 1)
    assert len(forks) == 1
    # every adjunction runs in the parent, after the one fork
    assert events[0] == "fork"
    assert events[1:] and set(events[1:]) == {("append_inverse", os.getpid())}
    no_children_left()


@pytest.mark.parametrize("command", ["qybe", "contract"])
def test_qybe_and_contract_fork_nothing(capsys, monkeypatch, command):
    forks = usable_cpus(monkeypatch, 2)
    assert run(capsys, command)[0] == 0
    assert forks == []
    no_children_left()


def open_fds() -> list:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("command, attempts", [("relations", 1), ("hopf", 1), ("all", 1)])
def test_a_failed_fork_runs_the_stage_in_process(capsys, monkeypatch, time_limit,
                                                 command, attempts):
    runs = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        tried = []

        def no_fork():
            tried.append(1)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        before = open_fds()
        with time_limit(120):
            code, out, err = run(capsys, command, "--format", "json")
        assert open_fds() == before
        # the one fork attempt, for the grid worker, whose stages then run
        # in process
        assert len(tried) == (attempts if cpus > 1 else 0)
        out = json.dumps(report_diff.strip_ms(json.loads(out)), indent=2, sort_keys=True)
        runs.append((code, out, err))
    assert runs[0] == runs[1]
    no_children_left()


@pytest.mark.parametrize("lane", ["g", "bigg"])
def test_contract_set_binds_the_schedule_too(capsys, lane):
    # q = p + k*eps in the schedule must read q = 2 + k*eps once p = 2
    code, data, _ = run_json(capsys, "contract", "--contraction-matrix", lane,
                             "--set", "p=2")
    assert code == 0
    assert [c["pass"] for c in data["checks"]] == [True, True, True]
    if lane == "bigg":
        assert data["checks"][1]["details"]["parameters"] == ["k", "m", "n"]


@pytest.mark.parametrize("lane", ["g", "bigg"])
def test_contract_set_binds_the_twist_too(capsys, lane):
    # eta = 1 makes the twist a constant, which the schedule's own
    # eta = 1/eps no longer reaches: the limit is finite and misses the target
    code, data, _ = run_json(capsys, "contract", "--contraction-matrix", lane,
                             "--set", "eta=1")
    assert code == 1
    assert [(c["name"], c["pass"]) for c in data["checks"]] == [
        ("finite-limit", True), ("surviving-parameters", True), ("matches-target", False)]


def test_contract_probe_lane_with_a_bound_twist_records_nothing(capsys):
    code, data, _ = run_json(capsys, "contract", "--contraction-matrix", "gprime",
                             "--set", "eta=1")
    assert code == 0
    assert data["checks"][0]["details"]["records"] == []


@pytest.mark.parametrize("lane", ["g", "bigg"])
def test_contract_lists_the_set_value_of_eta(capsys, lane):
    # the run used eta = 1, not the schedule's eta = 1/eps; every other
    # binding listed is the schedule's own
    _, plain, _ = run_json(capsys, "contract", "--contraction-matrix", lane)
    code, data, _ = run_json(capsys, "contract", "--contraction-matrix", lane,
                             "--set", "eta=1")
    assert code == 1
    assert plain["metadata"]["bindings"]["eta"] == "1/eps"
    assert data["metadata"]["bindings"] == dict(plain["metadata"]["bindings"], eta="1")


def test_contract_lists_the_set_value_of_r(capsys):
    # r = 2 reaches the matrices before the schedule does, so its slope is
    # gone and the limit diverges; the report lists r = 2
    code, data, _ = run_json(capsys, "contract", "--contraction-matrix", "g",
                             "--set", "r=2")
    assert code == 1
    assert [(c["name"], c["pass"]) for c in data["checks"]] == [("finite-limit", False)]
    assert data["metadata"]["bindings"] == {
        "eta": "1/eps", "q": "eps*k + p", "r": "2", "s": "1/2*eps*m - 1/2*eps*n + 1"}


@pytest.mark.parametrize("argv", [
    ["qybe", "--matrix", "rq2", "--set", "p=m^20000"],
    ["contract", "--contraction-matrix", "g", "--set", "m=k^20000"],
    ["relations", "--set", "m=k^20000"],
])
def test_an_exponent_past_the_packed_range_is_a_verification_error(capsys, argv):
    # k^20000 fits a polynomial's slot but not a Laurent value's; wherever
    # the range is met, the run ends with one line and no traceback
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip() == "jforge: Laurent exponent outside the packed range [-16384, 16384)"


def test_set_clashing_with_the_schedule_is_usage_error(capsys):
    # r is bound by the schedule, so m=r would leave r inside r's binding;
    # eps is the schedule's limit variable, so eps=1 leaves no limit
    for binding in ("m=r", "eps=1"):
        code, _, err = run(capsys, "contract", "--set", binding)
        assert code == 2, binding
        assert "--set clashes with the schedule" in err


@pytest.mark.parametrize("binding, failing", [
    ("p=2", ["relations:ref:f-y"]),
    # with m bound, the m = n centrality check has no m left to set equal
    ("m=3", ["relations:ref:f-y", "hopf:central-at-m-equals-n"]),
])
def test_all_set_passes_the_contraction_stage(capsys, binding, failing):
    code, data, _ = run_json(capsys, "all", "--set", binding)
    assert code == 1
    names = [c["name"] for c in data["checks"]]
    assert [n for n in names if n.startswith("contract:")] == [
        "contract:finite-limit", "contract:surviving-parameters",
        "contract:matches-target"]
    assert [c["name"] for c in data["checks"] if not c["pass"]] == failing


def test_set_promotes_coefficients_past_laurent(capsys):
    # p = 1 + m puts 1/(m + 1) into the table: those coefficients stay
    # RatFunc while the rest of the algebra computes with Laurent values
    code, data, _ = run_json(capsys, "relations", "--set", "p=1+m")
    assert code == 1
    assert [c["name"] for c in data["checks"] if not c["pass"]] == ["ref:f-y"]
    coeffs = [t["coeff"] for rule in data["metadata"]["table"]["rules"]
              for t in rule["rhs"]]
    assert "1/(m + 1)" in coeffs
    assert "-k/(m^2 + 2*m + 1)" in coeffs


_REGISTRY_RUN = """
import json, sys
from jforge import laurent, poly
from jforge.cli import main
from jforge.grammar import parse
if sys.argv[1] == "qybe-first":
    main(["qybe", "--matrix", "rq3", "--format", "json"])
    # register the algebra's own parameters in the reverse order as well
    laurent.coerce(parse("eps*s*r*q*p*n*m*k"))
main(["relations", "--format", "json", "--output", sys.argv[2]])
print(json.dumps(poly._NAMES))
"""


def test_relations_do_not_depend_on_the_slot_registry(tmp_path):
    # the slot registry is process-global and filled in first-use order;
    # the report must not change with that order
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {}
    for mode in ("fresh", "qybe-first"):
        out = tmp_path / f"{mode}.json"
        proc = subprocess.run([sys.executable, "-c", _REGISTRY_RUN, mode, str(out)],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        names = json.loads(proc.stdout.splitlines()[-1])
        runs[mode] = names, str(out)
    assert runs["fresh"][0][:4] != runs["qybe-first"][0][:4]
    assert report_diff.main([runs["fresh"][1], runs["qybe-first"][1]]) == 0


_FOOTPRINT = """
import contextlib, io, json, os, sys
before = set(sys.modules)
import jforge.cli
jforge.cli.build_parser()
loaded = {"import": set(sys.modules) - before}
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
for argv in (["contract"], ["all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        jforge.cli.main(argv)
    loaded[argv[0]] = set(sys.modules) - before
print(json.dumps({step: sorted(names & set(sys.argv[1:])) for step, names in loaded.items()}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_a_jforge_process_loads_neither_openssl_nor_the_inspect_stack():
    # hashlib loads OpenSSL's libcrypto, dataclasses loads inspect, ast,
    # dis and tokenize: each costs a fresh process memory and set-up time
    heavy = ["hashlib", "_hashlib", "dataclasses", "inspect", "typing"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *heavy], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert json.loads(proc.stdout) == {"import": [], "contract": [], "all": []}
