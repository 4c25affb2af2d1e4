import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from ascdesc.cli import main
from ascdesc.convergence import PROBE_IDS

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


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


# Pinned sha256 of whole reports (stdout), so that any change in how
# tower sections or dense matrices are built shows here.  Files are
# written under fixed names, since the report echoes the command.
DENSE_2X2 = {"rows": 2, "cols": 2, "field": "gq", "entries": [["1", "0"], ["0", "1/2+3/4i"]]}
FORWARD_SHIFT = {"variant": "banded", "diagonals": {"-1": {"pre": [], "period": ["1"]}}}
PINNED_INPUTS = {
    "b.json": SHIFT,
    "s.json": FORWARD_SHIFT,
    "j3s.json": {"variant": "direct_sum", "parts": [{"variant": "dense", "matrix": JORDAN3},
                                                     FORWARD_SHIFT]},
    "bf.json": {"variant": "sum", "parts": [
        SHIFT, {"variant": "finite_rank", "terms": [{"left": ["1", "0", "1/2"], "right": ["0", "1"]}]}]},
    "w.json": {"variant": "banded", "diagonals": {
        "1": {"pre": ["1/2"], "period": ["2/3", "3/4+1/5i"]}, "0": {"pre": [], "period": ["1/3"]}}},
    "m.json": DENSE_2X2,
    "j3.json": JORDAN3,
}
TOWER = ["--tower", "--window", "16,8,4", "--candidates"]
PINNED_REPORTS = {
    ("spectrum", "b.json", *TOWER, "0,1/2,2"):
        "5261a47bf2295b638e4627ec76f41257e970513a0c64dd5b296eef28d77d15e2",
    ("spectrum", "s.json", *TOWER, "0,1/2,2"):
        "690d64468a2d436df085847ef338ff020c9028d08d9d97b6ff7a3ef6fd76daea",
    ("spectrum", "j3s.json", *TOWER, "0,1,2"):
        "1d9a3a6beb14ef11b5614a799fb0a2c1229a1761048fb6132442f457f602e066",
    ("spectrum", "bf.json", *TOWER, "0,1,2"):
        "437b3458a9558ad7192d55f23c2ce7f729440fd8d51f890f2ecd3e022aaa395b",
    ("spectrum", "w.json", *TOWER, "0,1/3,1/2+1/2i"):
        "d9c31574fcd98213a5bb419d00b9fd5ccfff076bd7464e7a99864a417a16eede",
    ("analyze", "m.json"):
        "cbf73581213bcf8d081047c3676e2afb3d51ac56afc1e92b8c9c13d70b94e3e4",
    ("spectrum", "m.json"):
        "a96f8cea3fb85e8dbe299c1fe82bc61f217782bc37e76e96bd1d1c63d652e7d2",
    ("analyze", "j3.json"):
        "762159299ff29f8ed8ca89a1d2d6b91be1b22b4bc575e96a285659cee017d50d",
    ("spectrum", "j3.json"):
        "44448aa98f2cc9ec172f31ffcff2e7ba624313c3e0c12542623f13d870aabb80",
}


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS), ids=" ".join)
def test_reports_match_pinned_digests(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, argv[1], PINNED_INPUTS[argv[1]])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_REPORTS[argv]


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


@pytest.mark.parametrize(
    "flag, value",
    [("--tol-rank", v) for v in ("nan", "inf", "1e400", "1", "0")]
    + [("--tol-conv", v) for v in ("nan", "inf", "1e400", "0")],
)
def test_converge_rejects_tolerances_that_decide_every_verdict(tmp_path, flag, value):
    # at rank_rel >= 1 every rank reads 0, so the ker_lower counterexample
    # would pass, and an infinite conv_tol passes every tail
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    code, out, _ = run_main(["converge", path, "--probe", "ker_lower"])
    assert code == 3 and json.loads(out)["report"]["probe"]["verdict"] == "fail"
    code, out, err = run_main(["converge", path, "--probe", "ker_lower", f"{flag}={value}"])
    lines = err.splitlines()
    assert code == 2 and not out and len(lines) == 1, err
    assert lines[0].startswith("error:") and "tolerance" in lines[0]


def test_converge_csv_rejects_probe(tmp_path, monkeypatch):
    # rejected before the sequence is loaded or its trajectory computed
    import ascdesc.cli as cli

    def no_trajectory(*args, **kwargs):
        raise AssertionError("trajectory computed for a rejected flag combination")

    monkeypatch.setattr(cli, "trajectory", no_trajectory)
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    code, out, err = run_main(["converge", path, "--probe", "T1", "--format", "csv"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: csv output covers the trajectory only; drop --probe"]


def test_consecutive_calls_share_no_parser_state(tmp_path):
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    out_file = tmp_path / "probe.json"
    code, out, _ = run_main(["converge", path, "--probe", "T1", "--out", str(out_file)])
    assert code == 3 and out == ""
    assert "probe" in json.loads(out_file.read_text(encoding="utf-8"))["report"]
    code, out, _ = run_main(["converge", path])
    assert code == 0
    assert "probe" not in json.loads(out)["report"]


TOWER_SEQ = {
    "base": SHIFT,
    "perturbation": {
        "rule": "scaled",
        "exponent": 1,
        "operator": {"variant": "finite_rank", "terms": [{"left": ["1"], "right": ["1"]}]},
    },
    "n_range": [1, 6, 1],
}


def test_converge_tower_sequence_probe(tmp_path):
    path = write(tmp_path, "towerseq.json", TOWER_SEQ)
    result = run_cli("converge", path, "--probe", "lem2", "--lambda", "0", "--window", "8,4,3")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)["report"]
    assert report["probe"]["verdict"] == "pass"
    assert report["probe"]["witness"]["classifications"]["asc"]["limit"] == "divergent"


def test_converge_tower_trajectory_uses_the_window(tmp_path):
    path = write(tmp_path, "towerseq.json", TOWER_SEQ)
    for window, base_rank in (["--window", "4,2,2"], 5), ([], 39):  # default 16,8,4: n = 40
        code, out, _ = run_main(["converge", path, *window])
        assert code == 0 and json.loads(out)["report"]["trajectory"]["base_rank"] == base_rank


# Pinned sha256 of the tower probe reports on the sequence above, written
# under a fixed name since the report echoes the command.
TOWER_PROBE_SHA256 = {
    ("lem1", "0"): "ed04dab00f56a67067a80269b1e8b444aa91b38049d511beea157078e625e722",
    ("lem1", "2"): "c1e35d2b957d621b2f20788baf0fc4729def4dba5861ad95aadfde4b5a3fb18a",
    ("lem2", "0"): "5c780d79a63b5052346ec3564169252ace408f58c4a08c27f8aeafd8a0796848",
    ("lem2", "2"): "edb97b7d041e0be4f17447708412bfd679bc6fc26ad56fd62cdee724926563aa",
    ("lem3", "0"): "79fe492c776bec6486c01d0504bcb7d86f49d7fd56184bc7dced7cce3560904c",
    ("lem3", "2"): "9af01f64cfd6c86de0a5151833063085320b2afae75dd14251f8735bbae0f646",
    ("lem4", "0"): "b29befcc308a15344bcb44033c362ce063e7376cfd0a56885f68898896775372",
    ("lem4", "2"): "7368a445eda8059f5c7107e055c1af719bf0d5cf12d3865a5e01b34569c2b9e4",
    ("T1", "0"): "7998f0acc09dc4f2724d2fcad92d34a7e49f08940da8e484d21030b008ae0c1f",
    ("T1", "2"): "6fa20498092a391aed3cf2eaf3838e667029f27526f0b6685b55f77ac6cff624",
}


@pytest.mark.parametrize("probe, lam", list(TOWER_PROBE_SHA256))
def test_tower_probe_reports_match_pinned_digests(probe, lam, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "towerseq.json", TOWER_SEQ)
    code, out, _ = run_main(
        ["converge", "towerseq.json", "--probe", probe, "--lambda", lam, "--window", "6,3,3"]
    )
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == TOWER_PROBE_SHA256[(probe, lam)]


def test_spectrum_tower_realizes_each_section_once(tmp_path, monkeypatch):
    from ascdesc.tower import OperatorSpec

    sizes = []
    realize = OperatorSpec.realize

    def counting(spec, n):
        sizes.append(n)
        return realize(spec, n)

    monkeypatch.setattr(OperatorSpec, "realize", counting)
    path = write(tmp_path, "b.json", SHIFT)
    argv = ["spectrum", path, "--tower", "--candidates", "0,1/2,2", "--window", "8,4,4"]
    assert run_main(argv)[0] == 0
    assert sizes == [8, 12, 16, 20]


def test_converge_tower_probe_realizes_each_member_once(tmp_path, monkeypatch):
    from ascdesc.tower import OperatorSpec

    calls = []
    realize = OperatorSpec.realize

    def counting(spec, n):
        calls.append((type(spec).__name__, n))
        return realize(spec, n)

    monkeypatch.setattr(OperatorSpec, "realize", counting)
    path = write(tmp_path, "towerseq.json", TOWER_SEQ)
    assert run_main(["converge", path, "--probe", "lem1", "--window", "6,3,3"])[0] == 0
    # members n = 1..6 are B + e1 e1^T / n, formed from one section of B and
    # one of e1 e1^T per size: once for the trajectory (n = 12 only) and once
    # for the probe (window 6, 9, 12)
    assert calls.count(("SumSpec", 12)) == 0
    assert calls.count(("BandedSpec", 12)) == 2
    assert calls.count(("FiniteRankSpec", 12)) == 2
    assert calls.count(("BandedSpec", 6)) == calls.count(("FiniteRankSpec", 6)) == 1


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


def test_gap_reads_an_empty_f64_subspace_file(tmp_path):
    y = write(tmp_path, "y.json", {"rows": 0, "cols": 2, "field": "f64", "entries": []})
    z = write(tmp_path, "z.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[1.0, 1.0]]})
    code, out, err = run_main(["gap", y, z])
    assert code == 0, err
    report = json.loads(out)["report"]
    assert (report["dim_Y"], report["ambient_dim"], report["delta_YZ"], report["delta_ZY"]) == (0, 2, 0.0, 1.0)


def assert_one_error_line(result, cause):
    assert result.returncode == 2, result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert cause in lines[0]


# each malformed literal gives the message the scalar grammar raises, as
# the whole error line; a later bad literal never masks an earlier one
@pytest.mark.parametrize(
    "literal,message",
    [
        ("1/0", "zero denominator: '1/0'"),
        ("1/", "not a rational literal: '1/'"),
        ("1.5", "not a rational literal: '1.5'"),
        ("\u0661", "not a rational literal: '\u0661'"),
        ("1/\u0662", "not a rational literal: '1/\u0662'"),
        ("", "empty scalar literal"),
        ("2-1/0i", "zero denominator: '-1/0'"),
        ("1+2+3i", "not a rational literal: '1+2'"),
    ],
)
def test_malformed_literal_is_one_error_line(tmp_path, literal, message):
    obj = {"rows": 2, "cols": 2, "field": "gq", "entries": [["1", literal], ["x", "1/0"]]}
    code, out, err = run_main(["analyze", write(tmp_path, "m.json", obj)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "window", ["4,2,2_0", "\u0664,2,2", " 4,2,2", "+4,2,2", "-4,2,2", "4,2,2 ", "4,2", "4,,2"]
)
@pytest.mark.parametrize("verb", ["spectrum", "converge"])
def test_window_parts_must_be_ascii_digits(tmp_path, verb, window):
    if verb == "spectrum":
        argv = ["spectrum", write(tmp_path, "s.json", SHIFT), "--tower", "--candidates", "0"]
    else:
        argv = ["converge", write(tmp_path, "seq.json", RESOLVENT_SEQ)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [f"--window={window}"])
    lines = err.getvalue().splitlines()
    assert code == 2 and not out.getvalue(), err.getvalue()
    assert len(lines) == 1 and lines[0].startswith("error: --window"), err.getvalue()


# int() reads all of these, so two keys could name one offset
@pytest.mark.parametrize("key", ["+1", "01", " 1", "1 ", "1_0", "-0", "\u0661", "-01", "1.0", ""])
def test_diagonal_keys_must_be_canonical_integers(tmp_path, key):
    spec = {"variant": "banded", "diagonals": {key: {"pre": [], "period": ["1"]}}}
    argv = ["spectrum", write(tmp_path, "d.json", spec), "--tower", "--candidates", "0"]
    code, out, err = run_main(argv + ["--window", "8,4,3"])
    lines = err.splitlines()
    assert code == 2 and not out, err
    assert len(lines) == 1 and lines[0].startswith("error: diagonal key"), err


def test_diagonal_keys_cannot_name_one_offset_twice(tmp_path):
    spec = {"variant": "banded", "diagonals": {"1": {"period": ["1"]}, "+1": {"period": ["2"]}}}
    argv = ["spectrum", write(tmp_path, "d.json", spec), "--tower", "--candidates", "0"]
    code, out, err = run_main(argv + ["--window", "8,4,3"])
    assert code == 2 and not out and err.startswith("error: diagonal key '+1'"), err
    ok = {"variant": "banded", "diagonals": {k: {"period": ["1"]} for k in ("-12", "-1", "0", "10")}}
    argv = ["spectrum", write(tmp_path, "ok.json", ok), "--tower", "--candidates", "0"]
    assert run_main(argv + ["--window", "16,4,3"])[0] == 0


@pytest.mark.parametrize("verb", [["spectrum", "--tower", "--candidates", "0"], ["converge"]])
def test_window_past_the_section_cap_exits_2(tmp_path, monkeypatch, verb):
    from ascdesc import tower

    def refuse(self, n):
        raise AssertionError(f"section {n} realized")

    monkeypatch.setattr(tower.OperatorSpec, "realize", refuse)
    path = write(tmp_path, "in.json", SHIFT if verb[0] == "spectrum" else TOWER_SEQ)
    window = f"{tower.MAX_SECTION - 9},5,3"  # largest section: cap + 1
    code, out, err = run_main([verb[0], path, *verb[1:], "--window", window])
    lines = err.splitlines()
    assert code == 2 and not out, err
    assert lines == [f"error: window's largest section {tower.MAX_SECTION + 1} exceeds "
                     f"the cap of {tower.MAX_SECTION}"], err


@pytest.mark.parametrize("sequence", [RESOLVENT_SEQ, TOWER_SEQ], ids=["dense", "tower"])
@pytest.mark.parametrize("past_cap", [0, 1])
def test_n_range_past_the_sample_cap_exits_2(tmp_path, monkeypatch, sequence, past_cap):
    from ascdesc import convergence, tower

    def refuse(*args):
        raise AssertionError("a sample was realized")

    monkeypatch.setattr(tower.OperatorSpec, "realize", refuse)
    monkeypatch.setattr(convergence, "_sample_matrices", refuse)
    cap = convergence.MAX_SAMPLES
    path = write(tmp_path, "seq.json", {**sequence, "n_range": [2, 1 + cap + past_cap, 1]})
    if not past_cap:  # at the cap the sequence is accepted and realization begins
        with pytest.raises(AssertionError, match="a sample was realized"):
            run_main(["converge", path])
        return
    code, out, err = run_main(["converge", path])
    assert code == 2 and not out, err
    assert err.splitlines() == [
        f"error: n_range samples {cap + 1} indices, more than the cap of {cap}"
    ], err


@pytest.mark.parametrize("candidates", [",", " ", "0,,2", "0,", ",0", "0, ,2"])
def test_candidates_must_not_have_empty_parts(tmp_path, candidates):
    argv = ["spectrum", write(tmp_path, "s.json", SHIFT), "--tower", "--window", "8,4,3"]
    code, out, err = run_main(argv + [f"--candidates={candidates}"])
    lines = err.splitlines()
    assert code == 2 and not out, err
    assert len(lines) == 1 and lines[0].startswith("error: --candidates"), err


def test_analyze_zero_denominator_exits_2(tmp_path):
    path = write(tmp_path, "m.json", {"rows": 1, "cols": 1, "field": "gq", "entries": [["1/0"]]})
    assert_one_error_line(run_cli("analyze", path), "denominator")


@pytest.mark.parametrize("exponent", ["inf", "nan", None, [1], True, "2"])
def test_converge_rejects_bad_exponent(tmp_path, exponent):
    seq = json.loads(json.dumps(RESOLVENT_SEQ))
    seq["perturbation"]["exponent"] = exponent
    path = write(tmp_path, "seq.json", seq)
    assert_one_error_line(run_cli("converge", path), "exponent")


@pytest.mark.parametrize("seed", [True, 2.7, "2", None])
def test_converge_seed_must_be_an_integer(tmp_path, seed):
    seq = json.loads(json.dumps(RESOLVENT_SEQ))
    seq["perturbation"] = {"rule": "seeded-random-decaying", "exponent": 1, "seed": seed}
    path = write(tmp_path, "seq.json", seq)
    assert_one_error_line(run_cli("converge", path), "perturbation seed must be an integer")


@pytest.mark.parametrize(
    "entries, cause",
    [(5, "entries must be a JSON array"), (["12", "34"], "entries row must be a JSON array")],
    ids=["number", "strings"],
)
def test_entries_must_be_json_arrays(tmp_path, entries, cause):
    m = write(tmp_path, "m.json", {"rows": 2, "cols": 2, "field": "gq", "entries": entries})
    assert_one_error_line(run_cli("analyze", m), cause)
    y = write(tmp_path, "y.json", {"rows": 2, "cols": 2, "field": "f64", "entries": entries})
    assert_one_error_line(run_cli("gap", y, y), cause)


@pytest.mark.parametrize("lam", ["0", "1"])
def test_converge_probe_needs_square_base(tmp_path, lam):
    rect = {"rows": 2, "cols": 3, "field": "f64", "entries": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    seq = {
        "base": rect,
        "perturbation": {"rule": "scaled", "exponent": 1, "matrix": rect},
        "n_range": [10, 100, 10],
    }
    path = write(tmp_path, "seq.json", seq)
    assert run_cli("converge", path).returncode == 0  # the trajectory needs no square
    result = run_cli("converge", path, "--probe", "T1", "--lambda", lam)
    assert_one_error_line(result, "dense probes need a square base matrix, got 2x3")


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
        # an empty string or object would read as no parts, the zero operator
        ({"variant": "sum", "parts": ""}, "sum parts must be a JSON array"),
        ({"variant": "sum", "parts": {}}, "sum parts must be a JSON array"),
        ({"variant": "finite_rank", "terms": {}}, "finite_rank terms must be a JSON array"),
        ({"variant": "finite_rank", "terms": ""}, "finite_rank terms must be a JSON array"),
    ],
    ids=[
        "diagonals",
        "diagonal",
        "term",
        "term-key",
        "period-string",
        "left-string",
        "parts-string",
        "parts-object",
        "terms-object",
        "terms-string",
    ],
)
def test_spectrum_tower_rejects_malformed_spec(tmp_path, spec, cause):
    path = write(tmp_path, "spec.json", spec)
    assert_one_error_line(run_cli("spectrum", path, "--tower", "--candidates", "0"), cause)


def test_error_quoting_a_line_break_stays_one_line(tmp_path):
    path = write(tmp_path, "spec.json", {"variant": "banded", "diagonals": {"1\n2": None}})
    result = run_cli("spectrum", path, "--tower", "--candidates", "0")
    assert_one_error_line(result, "diagonal 1 2 must be a JSON object")


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_converge_rejects_non_finite_lambda(tmp_path, lam):
    path = write(tmp_path, "seq.json", RESOLVENT_SEQ)
    assert_one_error_line(run_cli("converge", path, "--probe", "T1", "--lambda", lam), "--lambda")


@pytest.mark.parametrize("entry", [float("nan"), "inf", None, True, "2"])
def test_gap_rejects_non_finite_entries(tmp_path, entry):
    y = write(tmp_path, "y.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[entry, 0.0]]})
    z = write(tmp_path, "z.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[1.0, 1.0]]})
    assert_one_error_line(run_cli("gap", y, z), "f64 entries")


def test_integers_beyond_float_range_exit_2(tmp_path):
    huge = 10**400  # a JSON integer that float() cannot hold
    y = write(tmp_path, "y.json", {"rows": 1, "cols": 2, "field": "f64", "entries": [[huge, 0.0]]})
    assert_one_error_line(run_cli("gap", y, y), "f64 entries must be numbers")
    seq = json.loads(json.dumps(RESOLVENT_SEQ))
    seq["perturbation"]["exponent"] = huge
    path = write(tmp_path, "seq.json", seq)
    assert_one_error_line(run_cli("converge", path), "perturbation exponent must be finite")


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


def test_readme_library_entry_points_import():
    with open(os.path.join(PKG_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library entry points", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0 and result.stdout.startswith("ascdesc")


# --- hostile input ----------------------------------------------------------

# Integers stay within -2..60, so an n_range drawn from them ends by 60
# and no dimension can exceed what the entries strategy can fill (3).
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 60)
    | st.floats()
    | st.text(alphabet="0123456789/+-i.e ", max_size=6)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: (
        st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3)
    ),
    max_leaves=9,
)
GRIDS = st.lists(st.lists(SCALARS, max_size=3), max_size=3)
HOSTILE = JSON_VALUES | GRIDS

F64 = {"rows": 2, "cols": 2, "field": "f64", "entries": [[1.0, 0.0], [0.0, 1.0]]}


def _overrides(keys):
    return st.dictionaries(st.sampled_from(keys), HOSTILE, min_size=1, max_size=len(keys))


def _analyze(o):
    return ["analyze", "{0}"], [dict(JORDAN3, **o)]


def _gap(o):
    return ["gap", "{0}", "{1}"], [dict(F64, **o), F64]


def _converge(o):
    pert = {"rule": "seeded-random-decaying", "exponent": 1, "seed": 3}
    pert.update({k: v for k, v in o.items() if k in ("seed", "exponent")})
    seq = {"base": F64, "perturbation": pert, "n_range": o.get("n_range", [10, 60, 10])}
    return ["converge", "{0}", "--format", "csv"], [seq]


def _tolerance(o):
    argv, files = _converge({})
    return argv + [f"--tol-rank={o['rank']}", f"--tol-conv={o['conv']}"], files


def _tower(o):
    diagonal = {"pre": o.get("pre", []), "period": o.get("period", ["1"])}
    spec = {"variant": "banded", "diagonals": o.get("diagonals", {"1": diagonal})}
    return ["spectrum", "{0}", "--tower", "--candidates", "0,1", "--window", "2,1,2"], [spec]


def _probe(o):
    _, files = _converge(o)
    return ["converge", "{0}", "--probe", o["probe"], "--lambda", "0"], files


def _gap_extreme(o):
    return ["gap", "{0}", "{1}"], [
        {"rows": len(grid), "cols": len(grid[0]), "field": "f64", "entries": grid}
        for grid in (o["y"], o["z"])
    ]


# Finite f64 entries at the ends of the range: the largest magnitudes, the
# smallest subnormal and a signed zero.
EXTREME = st.sampled_from([1e308, -1e308, sys.float_info.max, 5e-324, -5e-324, -0.0, 0.0, 1.0])


# Tolerances as the command line reads them: the non-finite and
# out-of-range values that must exit 2, and any other float.
TOLERANCE_TEXT = st.sampled_from(["nan", "inf", "-inf", "1e400", "1", "0"]) | st.floats().map(repr)


def _extreme_pair(cols):
    grid = st.lists(st.lists(EXTREME, min_size=cols, max_size=cols), min_size=1, max_size=3)
    return st.fixed_dictionaries({"y": grid, "z": grid})


HOSTILE_CASES = {
    "analyze": (_analyze, _overrides(("rows", "cols", "entries"))),
    "gap": (_gap, _overrides(("rows", "cols", "entries"))),
    "gap-extreme": (_gap_extreme, st.integers(1, 3).flatmap(_extreme_pair)),
    "converge": (_converge, _overrides(("seed", "exponent", "n_range"))),
    "probe": (_probe, st.builds(lambda o, probe: dict(o, probe=probe),
                                _overrides(("seed", "exponent", "n_range")), st.sampled_from(PROBE_IDS))),
    "tower": (_tower, _overrides(("pre", "period", "diagonals"))),
    "tolerance": (_tolerance, st.fixed_dictionaries({"rank": TOLERANCE_TEXT, "conv": TOLERANCE_TEXT})),
}


@pytest.mark.parametrize("verb", sorted(HOSTILE_CASES))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_hostile_input_exits_0_or_2_with_one_error_line(verb, data):
    build, overrides = HOSTILE_CASES[verb]
    argv, files = build(data.draw(overrides, label="overrides"))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, obj in enumerate(files):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        argv = [a.format(*paths) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
    elif "csv" not in argv:
        json.loads(out.getvalue())
