import json
import os
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

JORDAN3 = {
    "rows": 3,
    "cols": 3,
    "field": "gq",
    "entries": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
}
SHIFT = {"variant": "banded", "diagonals": {"1": {"pre": [], "period": ["1"]}}}
RESOLVENT_SEQ = {
    "base": {"rows": 2, "cols": 2, "field": "gq", "entries": [["0", "1"], ["0", "0"]]},
    "perturbation": {
        "rule": "scaled",
        "exponent": 1,
        "matrix": {"rows": 2, "cols": 2, "field": "gq", "entries": [["1", "0"], ["0", "1"]]},
    },
    "n_range": [10, 500, 10],
}


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ascdesc", *args],
        capture_output=True,
        text=True,
        env=merged,
        cwd=PKG_ROOT,
    )


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_analyze_jordan3(tmp_path):
    path = write(tmp_path, "jordan3.json", JORDAN3)
    result = run_cli("analyze", path)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["report"]["asc"] == 3
    assert report["report"]["kernel_dims"] == [0, 1, 2, 3, 3]
    assert report["command"][0] == "ascdesc"
    assert report["tool"] == "ascdesc" and "version" in report


def test_analyze_writes_file(tmp_path):
    path = write(tmp_path, "jordan3.json", JORDAN3)
    out = tmp_path / "report.json"
    result = run_cli("analyze", path, "--out", str(out))
    assert result.returncode == 0 and result.stdout == ""
    assert json.loads(out.read_text())["report"]["dsc"] == 3


def test_verify_batch_all_pass(tmp_path):
    result = run_cli("verify", "--theorem", "lemma41", "--seed", "0", "--trials", "25")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["report"]["summary"] == {"pass": 25, "fail": 0, "inconclusive": 0}
    assert report["seed"] == 0
    assert len(report["report"]["verdicts"]) == 25


def test_verify_byte_identical_reruns():
    first = run_cli("verify", "--theorem", "theo34", "--seed", "3", "--trials", "8")
    second = run_cli("verify", "--theorem", "theo34", "--seed", "3", "--trials", "8")
    assert first.stdout == second.stdout and first.returncode == second.returncode


def test_spectrum_dense(tmp_path):
    path = write(tmp_path, "jordan3.json", JORDAN3)
    result = run_cli("spectrum", path)
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"]
    assert report["sigma_asc"] == [] and report["sigma_dsc"] == []
    assert report["certificate"] == "finite-dim-stabilization"
    assert report["points"][0]["asc"] == 3


def test_spectrum_tower(tmp_path):
    path = write(tmp_path, "shift.json", SHIFT)
    result = run_cli(
        "spectrum", path, "--tower", "--candidates", "0,2", "--window", "8,4,3"
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)["report"]
    assert report["sigma_asc"] == ["0"]
    assert report["window"] == [8, 12, 16]


def test_spectrum_tower_needs_candidates(tmp_path):
    path = write(tmp_path, "shift.json", SHIFT)
    result = run_cli("spectrum", path, "--tower")
    assert result.returncode == 2
    assert "candidates" in result.stderr


def test_converge_trajectory_csv(tmp_path):
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    result = run_cli("converge", path, "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "n,dku,dkl,dru,drl,gamma"
    assert len(lines) == 51


def test_converge_probe_counterexample_exit_code(tmp_path):
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    result = run_cli("converge", path, "--probe", "T1", "--lambda", "0")
    assert result.returncode == 3, result.stdout
    report = json.loads(result.stdout)["report"]
    assert report["probe"]["verdict"] == "fail"
    tail = report["probe"]["witness"]["sub_lemmas"]["ker_lower"]["tail"]
    assert all(abs(v - 1.0) < 1e-9 for v in tail)


def test_converge_csv_rejects_probe(tmp_path):
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    result = run_cli("converge", path, "--probe", "T1", "--format", "csv")
    assert result.returncode == 2


def test_converge_tower_sequence_probe(tmp_path):
    seq = {
        "base": SHIFT,
        "perturbation": {
            "rule": "scaled",
            "exponent": 1,
            "operator": {"variant": "finite_rank", "terms": [{"left": ["1"], "right": ["1"]}]},
        },
        "n_range": [1, 6, 1],
    }
    path = write(tmp_path, "towerseq.json", seq)
    result = run_cli("converge", path, "--probe", "lem2", "--lambda", "0", "--window", "8,4,3")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)["report"]
    assert report["probe"]["verdict"] == "pass"
    assert report["probe"]["witness"]["classifications"]["asc"]["limit"] == "divergent"


def test_converge_inconclusive_probe_exit_code(tmp_path):
    # the gamma hypothesis cannot be certified for the resolvent sequence,
    # so the range upper-convergence probe must not conclude
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    result = run_cli("converge", path, "--probe", "rng_upper", "--lambda", "0")
    assert result.returncode == 4, result.stdout
    report = json.loads(result.stdout)["report"]
    assert report["probe"]["verdict"] == "inconclusive"


def test_spectrum_dense_candidate_profiles(tmp_path):
    path = write(tmp_path, "jordan3.json", JORDAN3)
    result = run_cli("spectrum", path, "--candidates", "0,1")
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"]
    profiles = {p["lambda"]: p for p in report["candidate_profiles"]}
    assert profiles["0"]["asc"] == 3 and profiles["1"]["asc"] == 0


def test_gap_verb(tmp_path):
    y = write(tmp_path, "y.json", {"rows": 1, "cols": 2, "field": "gq", "entries": [["1", "0"]]})
    z = write(tmp_path, "z.json", {"rows": 1, "cols": 2, "field": "gq", "entries": [["0", "1"]]})
    result = run_cli("gap", y, z)
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"]
    assert report["gap"] == 1.0 and report["delta_YZ"] == 1.0


def test_gap_float_subspace_files(tmp_path):
    y = write(tmp_path, "y.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[1.0, 0.0]]})
    z = write(
        tmp_path, "z.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[1.0, 1.0]]}
    )
    result = run_cli("gap", y, z)
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"]
    assert report["gap"] == pytest.approx(0.7071067811865476, abs=1e-9)


def assert_one_error_line(result, cause):
    assert result.returncode == 2, result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert cause in lines[0]


def test_analyze_zero_denominator_exits_2(tmp_path):
    path = write(tmp_path, "m.json", {"rows": 1, "cols": 1, "field": "gq", "entries": [["1/0"]]})
    assert_one_error_line(run_cli("analyze", path), "denominator")


@pytest.mark.parametrize("exponent", ["inf", "nan", None, [1]])
def test_converge_rejects_bad_exponent(tmp_path, exponent):
    seq = json.loads(json.dumps(RESOLVENT_SEQ))
    seq["perturbation"]["exponent"] = exponent
    path = write(tmp_path, "seq.json", seq)
    assert_one_error_line(run_cli("converge", path), "exponent")


@pytest.mark.parametrize(
    "keys", [("perturbation",), ("base",), ("perturbation", "matrix")],
    ids=["perturbation", "base", "perturbation.matrix"],
)
def test_converge_rejects_non_object_parts(tmp_path, keys):
    seq = json.loads(json.dumps(RESOLVENT_SEQ))
    owner = seq
    for key in keys[:-1]:
        owner = owner[key]
    owner[keys[-1]] = 5
    path = write(tmp_path, "seq.json", seq)
    assert_one_error_line(run_cli("converge", path), f"{keys[-1]} must be a JSON object")


@pytest.mark.parametrize("dim", [True, 2.5, "2"])
@pytest.mark.parametrize("key", ["rows", "cols"])
def test_dimensions_must_be_integers(tmp_path, key, dim):
    m = write(tmp_path, "m.json", dict(JORDAN3, **{key: dim}))
    assert_one_error_line(run_cli("analyze", m), f"{key} must be an integer")
    f64 = {"rows": 1, "cols": 2, "field": "f64", "entries": [[1.0, 0.0]], key: dim}
    y = write(tmp_path, "y.json", f64)
    assert_one_error_line(run_cli("gap", y, y), f"{key} must be an integer")


@pytest.mark.parametrize("entry", [True, 2.5, "2"])
def test_converge_n_range_entries_must_be_integers(tmp_path, entry):
    seq = json.loads(json.dumps(RESOLVENT_SEQ))
    seq["n_range"][0] = entry  # int() would read each of these as a valid start
    path = write(tmp_path, "seq.json", seq)
    assert_one_error_line(run_cli("converge", path), "n_range entry must be an integer")


def test_gap_rejects_non_object_subspace_file(tmp_path):
    y = write(tmp_path, "y.json", [1])
    assert_one_error_line(run_cli("gap", y, y), "subspace file must be a JSON object")


@pytest.mark.parametrize(
    "spec, cause",
    [
        ({"variant": "banded", "diagonals": 5}, "diagonals must be a JSON object"),
        ({"variant": "banded", "diagonals": {"1": 5}}, "diagonal 1 must be a JSON object"),
        ({"variant": "finite_rank", "terms": [5]}, "term must be a JSON object"),
        ({"variant": "finite_rank", "terms": [{"left": ["1"]}]}, "'right'"),
        (
            {"variant": "banded", "diagonals": {"1": {"pre": [], "period": "11"}}},
            "diagonal 1 period must be a JSON array",
        ),
        (
            {"variant": "finite_rank", "terms": [{"left": "12", "right": ["1"]}]},
            "term left must be a JSON array",
        ),
    ],
    ids=["diagonals", "diagonal", "term", "term-key", "period-string", "left-string"],
)
def test_spectrum_tower_rejects_malformed_spec(tmp_path, spec, cause):
    path = write(tmp_path, "spec.json", spec)
    assert_one_error_line(run_cli("spectrum", path, "--tower", "--candidates", "0"), cause)


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_converge_rejects_non_finite_lambda(tmp_path, lam):
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    assert_one_error_line(run_cli("converge", path, "--probe", "T1", "--lambda", lam), "--lambda")


@pytest.mark.parametrize("entry", [float("nan"), "inf", None])
def test_gap_rejects_non_finite_entries(tmp_path, entry):
    y = write(tmp_path, "y.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[entry, 0.0]]})
    z = write(tmp_path, "z.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[1.0, 1.0]]})
    assert_one_error_line(run_cli("gap", y, z), "f64 entries")


def test_missing_file_exits_2():
    result = run_cli("analyze", "/nonexistent/matrix.json")
    assert result.returncode == 2 and "error:" in result.stderr


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run_cli("analyze", str(path))
    assert result.returncode == 2


def test_unknown_theorem_exits_2():
    result = run_cli("verify", "--theorem", "nope")
    assert result.returncode == 2


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0 and result.stdout.startswith("ascdesc")
