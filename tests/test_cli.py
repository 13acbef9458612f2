"""Command line driver: exit codes, report schema, output modes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jforge import cli, contraction
from jforge.cli import main
from jforge.errors import JforgeError
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
], ids=["utf-16-bom", "not-json", "not-an-object"])
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
    got = cli._algebra(argparse.Namespace(convention="auto"), bindings)
    want = DerivedAlgebra(convention="plain", bindings=bindings)
    assert got.convention == "plain"
    assert got.resolution_scores["transposed"]["score"] == transposed_score
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


# -- the stages of all in forked workers ---------------------------------------

K_ZERO = ["--set", "m=3/2", "--set", "n=-2/3", "--set", "k=0", "--set", "p=7/4"]


@pytest.mark.parametrize("argv", [
    [], K_ZERO, ["--set", "p=1+m"], ["--no-braiding"], ["--contraction-matrix", "gprime"],
], ids=["default", "k-zero", "expression", "no-braiding", "gprime"])
def test_all_in_workers_reports_as_in_process(capsys, monkeypatch, time_limit, argv):
    runs = []
    # two workers with two usable CPUs; with one, os.fork is never called
    for cpus, workers in ((2, 2), (1, 0)):
        forks = usable_cpus(monkeypatch, cpus)
        with time_limit(120):
            code, out, err = run(capsys, "all", *argv, "--format", "json")
        assert len(forks) == workers
        stripped = json.dumps(report_diff.strip_ms(json.loads(out)), indent=2, sort_keys=True)
        runs.append((code, stripped, err))
    assert runs[0] == runs[1]
    no_children_left()


def test_an_error_of_the_first_worker_wins_over_the_derivation(capsys, monkeypatch,
                                                               time_limit):
    forks = usable_cpus(monkeypatch, 2)

    def qybe_fails(*args, **kwargs):
        raise JforgeError("qybe failed in the worker")

    def derivation_fails(*args, **kwargs):
        raise JforgeError("the derivation failed")

    monkeypatch.setattr(cli, "qybe_check", qybe_fails)
    monkeypatch.setattr(cli, "_algebra", derivation_fails)
    with time_limit(60):
        assert run(capsys, "all") == (1, "", "jforge: qybe failed in the worker\n")
    assert len(forks) == 1
    no_children_left()


def test_a_derivation_error_reaps_the_first_worker(capsys, monkeypatch, time_limit):
    forks = usable_cpus(monkeypatch, 2)
    qybe_check = cli.qybe_check

    def slow_qybe(*args, **kwargs):
        time.sleep(0.05)  # still running when the derivation gives up
        return qybe_check(*args, **kwargs)

    monkeypatch.setattr(cli, "qybe_check", slow_qybe)
    monkeypatch.setenv("JFORGE_MAX_STEPS", "50")
    with time_limit(60):
        assert run(capsys, "all") == (1, "", "jforge: rewriting exceeded 50 steps\n")
    assert len(forks) == 1
    no_children_left()


def test_a_relations_error_kills_the_hopf_worker(capsys, monkeypatch, time_limit):
    forks = usable_cpus(monkeypatch, 2)

    def hangs(*args, **kwargs):
        time.sleep(5)

    def relations_fail(*args, **kwargs):
        raise JforgeError("the relations failed")

    monkeypatch.setattr(cli, "_hopf_report", hangs)
    monkeypatch.setattr(cli, "_relations_stage", relations_fail)
    with time_limit(60):
        assert run(capsys, "all") == (1, "", "jforge: the relations failed\n")
    assert len(forks) == 2
    no_children_left()


@pytest.mark.parametrize("target, stage", [
    ("qybe_check", "qybe and contract"),
    ("_hopf_report", "hopf"),
])
def test_a_worker_that_dies_is_an_error_that_names_its_stage(capsys, monkeypatch,
                                                             time_limit, target, stage):
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies(*args, **kwargs):
        assert os.getpid() != parent, "the stage ran in the parent"
        os._exit(3)

    monkeypatch.setattr(cli, target, dies)
    with time_limit(60):
        code, out, err = run(capsys, "all")
    assert (code, out) == (1, "")
    assert err == f"jforge: the {stage} worker exited with status 3 before it sent its report\n"
    no_children_left()


# -- the stages of relations and hopf in forked workers --------------------------

POINT = ["--set", "m=3/2", "--set", "n=-2/3", "--set", "k=5", "--set", "p=7/4"]
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
], ids=[*(f"relations-{name}" for name in BINDINGS), *(f"hopf-{name}" for name in BINDINGS),
        "hopf-no-braiding", "hopf-bialgebra", "hopf-antipode"])
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


def hangs(*args, **kwargs):
    time.sleep(600)


def fails(message):
    def raises(*args, **kwargs):
        raise JforgeError(message)
    return raises


def test_a_reference_error_kills_the_confluence_worker(capsys, monkeypatch, time_limit):
    forks = usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_confluence", hangs)
    monkeypatch.setattr(cli, "verify_reference", fails("the reference relations failed"))
    with time_limit(30):
        assert run(capsys, "relations") == (1, "", "jforge: the reference relations failed\n")
    assert len(forks) == 1
    no_children_left()


def test_a_confluence_error_wins_over_the_table(capsys, monkeypatch, time_limit):
    # confluence comes before the table in the in-process order
    monkeypatch.setattr(cli, "_confluence", fails("confluence failed"))
    monkeypatch.setattr(DerivedAlgebra, "to_dict", fails("the table failed"))
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


@pytest.mark.parametrize("command, target, stage", [
    ("relations", "_confluence", "confluence"),
    ("hopf", "check_bialgebra", "full bialgebra"),
])
def test_a_relations_or_hopf_worker_that_dies_names_its_stage(capsys, monkeypatch, time_limit,
                                                              command, target, stage):
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()
    work = getattr(cli, target)

    def dies(*args, **kwargs):
        if args[-1] is cli.LAYOUT_Q:  # the quotient's bialgebra check
            return work(*args, **kwargs)
        assert os.getpid() != parent, "the stage ran in the parent"
        os._exit(3)

    monkeypatch.setattr(cli, target, dies)
    with time_limit(60):
        code, out, err = run(capsys, command)
    assert (code, out) == (1, "")
    assert err == f"jforge: the {stage} worker exited with status 3 before it sent its report\n"
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
from jforge import laurent
from jforge.cli import main
from jforge.grammar import parse
if sys.argv[1] == "qybe-first":
    main(["qybe", "--matrix", "rq3", "--format", "json"])
    # register the algebra's own parameters in the reverse order as well
    laurent.coerce(parse("eps*s*r*q*p*n*m*k"))
main(["relations", "--format", "json", "--output", sys.argv[2]])
print(json.dumps(laurent._NAMES))
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
