import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pipret import acceptance, bounds, gram_ml, spectral
from pipret.cli import (
    EXIT_ACCEPTANCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    PARAMS,
    RunConfig,
    build_parser,
    dispatch,
    main,
    parse_range,
    render_report,
    resolve_config,
)


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_range_forms():
    assert parse_range("3") == [3]
    assert parse_range("2..5") == [2, 3, 4, 5]
    assert parse_range("2,5,7") == [2, 5, 7]
    assert parse_range(4) == [4]
    with pytest.raises(ValueError):
        parse_range("5..2")


def test_capacity_command(capsys):
    code, out, err = _run(["capacity", "--K", "2..4", "--P", "1..3", "--N", "2"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = payload["results"]
    by_key = {(r["K_files"], r["P"], r["N"]): r for r in rows}
    assert by_key[(2, 2, 2)]["inv_rate_converse"] == 1.25
    assert by_key[(3, 2, 2)]["inv_rate_converse"] == 1.75
    for row in rows:
        bq = bounds.BoundQuery(row["K_msg"], row["P"], row["N"])
        assert row["inv_rate_achievable"] == float(bounds.inverse_rate_achievable(bq))


def test_capacity_verbose_emits_both_orientations(capsys):
    code, out, _ = _run(
        ["capacity", "--K", "3", "--P", "1", "--N", "2", "--verbose"], capsys
    )
    assert code == EXIT_OK
    row = json.loads(out)["results"][0]
    # K_files = 3 means K_msg = 6 single-message units: rate 32/63
    assert row["rate_fraction_as_printed"] == pytest.approx(32 / 63, abs=1e-9)
    assert row["rate_fraction_reciprocal"] == pytest.approx(63 / 32, abs=1e-9)
    assert set(row) == {
        "K_files", "K_msg", "P", "N", "inv_rate_converse", "inv_rate_achievable",
        "limit", "rate_fraction_as_printed", "rate_fraction_reciprocal",
    }


@pytest.mark.parametrize("K,bad", [("-3..1", -3), ("0", 0)])
def test_capacity_rejects_K_below_one(K, bad, capsys):
    code, out, err = _run(["capacity", f"--K={K}", "--P", "1", "--N", "2"], capsys)
    assert code == EXIT_VALIDATION
    assert f"K_files must be >= 1, got {bad}" in err
    assert out == ""


@pytest.mark.parametrize("K,reason", [("abc", "invalid literal"), ("5..2", "empty range")])
def test_capacity_names_the_flag_of_an_unreadable_range(K, reason, capsys):
    code, out, err = _run(["capacity", f"--K={K}", "--P", "1", "--N", "2"], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"error: capacity --K: {reason}")


def test_spectrum_command_exact_keys(capsys):
    code, out, _ = _run(["spectrum", "--q", "2", "--K", "2"], capsys)
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert set(res) == {"q", "K", "T", "lambda2", "irreducible", "gamma_all_positive"}
    assert res["lambda2"] == pytest.approx(0.5, abs=1e-12)
    assert res["irreducible"] and res["gamma_all_positive"]


def test_converge_csv_halves_l2(capsys):
    code, out, _ = _run(["converge", "--q", "2", "--K", "2", "--Lmax", "30"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "L,sup_dist,l2_dist,lambda2_power,exact,sup_floor"
    assert len(lines) == 31
    assert all(line.endswith(",True,0.0") for line in lines[1:])
    l2 = [float(line.split(",")[2]) for line in lines[1:]]
    for a, b in zip(l2, l2[1:]):
        assert b == pytest.approx(a / 2, rel=1e-9)


@pytest.mark.parametrize(
    "command,K", [("spectrum", "0"), ("spectrum", "-1"), ("converge", "0")]
)
def test_class_chain_commands_reject_K_below_one(command, K, capsys):
    code, out, err = _run([command, "--q", "3", "--K", K], capsys)
    assert code == EXIT_VALIDATION
    assert f"K must be >= 1, got {K}" in err
    assert out == ""


def test_simulate_repeated_pir_summary(capsys):
    code, out, _ = _run(
        ["simulate", "--scheme", "repeated_pir", "--T", "3", "--N", "2", "--P", "1",
         "--seeds", "20"],
        capsys,
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["rate"]["measured_inverse_rate"] == pytest.approx(1.75)
    assert not res["rate"]["beats_converse"]
    assert len(res["runs"]) == 20


def test_simulate_database_mode_brackets(capsys):
    code, out, _ = _run(
        ["simulate", "--scheme", "full_download", "--K", "2", "--q", "3", "--N", "2",
         "--P", "2", "--nu", "2", "--seeds", "3"],
        capsys,
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["rate"]["measured_inverse_rate"] == pytest.approx(1.5)
    bracket = res["theorem_bracket"]
    lam2 = spectral.spectrum_via_characters(spectral.delta_distribution(3, 2)).lambda2
    assert bracket["lambda2"] == pytest.approx(lam2, abs=1e-12)
    assert bracket["bracket_high"] == pytest.approx(1.25)


def test_simulate_database_mode_single_server(capsys):
    code, out, err = _run(
        ["simulate", "--scheme", "full_download", "--K", "2", "--N", "1", "--seeds", "3"],
        capsys,
    )
    assert code == EXIT_OK, err
    res = json.loads(out)["results"]
    rate = res["rate"]
    assert rate["measured_inverse_rate"] == pytest.approx(3.0)
    assert rate["inv_rate_achievable"] == pytest.approx(rate["inv_rate_converse"])
    assert res["theorem_bracket"]["bracket_high"] == pytest.approx(3.0)


@pytest.mark.parametrize("flag,value", [("--L", "0"), ("--q", "4")])
def test_simulate_database_mode_rejects_bad_params(flag, value, capsys):
    code, _, _ = _run(["simulate", "--K", "2", flag, value], capsys)
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_virtual_file_commands_reject_a_composite_modulus(command, capsys):
    code, out, err = _run(
        [command, "--T", "2", "--q", "4", "--scheme", "full_download"], capsys
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "prime" in err


@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_virtual_file_commands_reject_a_modulus_from_2_to_the_61(command, capsys):
    code, out, err = _run(
        [command, "--T", "2", "--q", str(2**127 - 1), "--scheme", "full_download"], capsys
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "exceeds the 2**61 limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seeds", ["0", "-1", "-2"])
def test_simulate_rejects_runs_without_seeds(seeds, capsys):
    code, out, err = _run(
        ["simulate", "--T", "2", "--scheme", "full_download", "--seeds", seeds], capsys
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: simulate --seeds must be at least 1\n"


def test_simulate_requires_k_or_t(capsys):
    code, _, err = _run(["simulate", "--scheme", "full_download"], capsys)
    assert code == EXIT_VALIDATION
    assert "needs --K or --T" in err


def test_simulate_rejects_both_k_and_t(capsys):
    """Both would leave one unused while the report's params show it."""
    argv = ["simulate", "--scheme", "full_download", "--K", "2", "--T", "5", "--P", "1"]
    code, out, err = _run(argv + ["--seeds", "1"], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: simulate takes --K or --T, not both\n"


@pytest.mark.parametrize(
    "argv,missing",
    [
        (["capacity", "--P", "1", "--N", "2"], "capacity needs --K"),
        (["capacity", "--K", "2", "--N", "2"], "capacity needs --P"),
        (["capacity", "--K", "2", "--P", "1"], "capacity needs --N"),
        (["spectrum", "--K", "2"], "spectrum needs --q"),
        (["spectrum", "--q", "3"], "spectrum needs --K"),
        (["converge", "--q", "3"], "converge needs --K"),
        (["ml-demo", "--label", "y"], "ml-demo needs --data"),
    ],
)
def test_missing_required_parameter_is_validation_error(argv, missing, capsys):
    code, out, err = _run(argv, capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == f"error: {missing}\n"


def test_audit_command_exact(capsys):
    code, out, _ = _run(
        ["audit", "--scheme", "full_download", "--mode", "exact", "--T", "3",
         "--P", "2", "--N", "2"],
        capsys,
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["passed"] and res["max_tv_distance"] == 0.0
    assert res["worst_test"] is None


def test_audit_command_exact_rejects_samples(capsys):
    code, out, err = _run(
        ["audit", "--scheme", "full_download", "--mode", "exact", "--samples", "5",
         "--T", "3", "--N", "2", "--P", "1"],
        capsys,
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: samples applies to sampled mode only\n"


def test_audit_command_names_the_leak(capsys):
    code, out, _ = _run(
        ["audit", "--scheme", "leaky_index", "--mode", "sampled", "--samples", "10000",
         "--T", "3", "--N", "2", "--P", "1"],
        capsys,
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert not res["passed"]
    assert res["worst_test"]["pvalue"] == res["min_pvalue"]
    assert {"channel", "set1", "set2", "pvalue"} == set(res["worst_test"])


def test_audit_command_sampled_has_pairwise_tests(capsys):
    code, out, _ = _run(
        ["audit", "--scheme", "repeated_pir", "--mode", "sampled", "--samples", "10000",
         "--T", "2", "--q", "5", "--N", "2", "--P", "1"],
        capsys,
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["passed"]
    assert res["n_tests"] == len(res["tests"]) > 0
    assert {"channel", "set1", "set2", "chi2", "dof", "pvalue"} <= set(res["tests"][0])


def _write_dataset(path):
    rows = ["f1,f2,label"]
    rng = np.random.default_rng(0)
    for _ in range(8):
        x = rng.uniform(-1, 1, size=2)
        label = 1 if x[0] + 0.1 > 0 else -1
        rows.append(f"{x[0]:.4f},{x[1]:.4f},{label}")
    path.write_text("\n".join(rows) + "\n")


def test_ml_demo_svm_private(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_dataset(data)
    code, out, _ = _run(
        ["ml-demo", "--data", str(data), "--label", "label", "--task", "svm",
         "--private", "--box", "100"],
        capsys,
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["gram_mode"] == "private"
    assert res["gram_bitmatch"] is True
    assert res["kkt_residual"] < 1e-6
    assert res["oracle_max_decision_delta"] < 1e-6


@pytest.mark.parametrize("q,reason", [("4", "is not prime"), (str(2**127 - 1), "2**61 limit")])
def test_ml_demo_private_rejects_a_bad_modulus(q, reason, tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_dataset(data)
    code, out, err = _run(
        ["ml-demo", "--data", str(data), "--label", "label", "--task", "regression",
         "--private", "--q", q],
        capsys,
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert reason in err
    assert "Traceback" not in err


def test_ml_demo_rejects_a_zero_max_abs(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_dataset(data)
    code, out, err = _run(
        ["ml-demo", "--data", str(data), "--label", "label", "--task", "svm", "--private",
         "--max-abs", "0"],
        capsys,
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: scale and max_abs must be positive\n"


@pytest.mark.parametrize("private", [[], ["--private"]], ids=["direct", "private"])
def test_ml_demo_rejects_a_dataset_of_blank_rows(private, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("f1,f2,label\n\n , ,\n\n")
    code, out, err = _run(
        ["ml-demo", "--data", str(data), "--label", "label", "--task", "svm", *private],
        capsys,
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: dataset needs a header row and at least one sample\n"


def test_ml_demo_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = _run(
        ["ml-demo", "--data", str(tmp_path / "nope.csv"), "--label", "y",
         "--task", "svm"],
        capsys,
    )
    assert code == EXIT_IO
    assert "i/o error" in err


def test_ml_demo_bad_label_is_validation_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_dataset(data)
    code, _, err = _run(
        ["ml-demo", "--data", str(data), "--label", "nope", "--task", "svm"], capsys
    )
    assert code == EXIT_VALIDATION
    assert "label column" in err


def test_ml_demo_pca_direct(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_dataset(data)
    code, out, _ = _run(
        ["ml-demo", "--data", str(data), "--task", "pca", "--d", "2"], capsys
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert len(res["eigenvalues"]) == 2
    assert res["oracle_max_projection_delta"] < 1e-6


def test_ml_demo_and_criterion_9_share_the_raw_data_check(tmp_path, capsys, monkeypatch):
    # a fault planted in the Gram-side projection shows in both reports
    real_project = gram_ml.pca_project
    monkeypatch.setattr(gram_ml, "pca_project", lambda *args: 1.01 * real_project(*args))
    detail = acceptance.criterion_gram_ml(acceptance.MASTER_SEED_DEFAULT)
    failed = [name for name, ok in detail["checks"] if not ok]
    assert failed == ["PCA projections match covariance route within 1e-6"]
    assert detail["pca_delta"] > 1e-6

    data = tmp_path / "data.csv"
    _write_dataset(data)
    code, out, _ = _run(["ml-demo", "--data", str(data), "--task", "pca", "--d", "2"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["results"]["oracle_max_projection_delta"] > 1e-6


def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "spectrum",
        "params": {"q": 2, "K": 2},
        "master_seed": 5,
    }))
    code, out, _ = _run(["spectrum", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["lambda2"] == pytest.approx(0.5)
    assert payload["master_seed"] == 5
    # explicit flag wins over the file value
    code, out, _ = _run(["spectrum", "--config", str(cfg), "--q", "3"], capsys)
    res = json.loads(out)["results"]
    assert res["lambda2"] == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_config_file_command_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "capacity", "params": {}}))
    code, _, err = _run(["spectrum", "--config", str(cfg)], capsys)
    assert code == EXIT_VALIDATION
    assert "config file is for" in err


@pytest.mark.parametrize(
    "filed,message",
    [
        ([1, 2], "config file must hold a JSON object"),
        ({"command": "spectrum", "params": [1, 2]}, "config params must be a JSON object"),
        ({"command": "spectrum", "params": None}, "config params must be a JSON object"),
        ({"command": "spectrum", "output": 5}, "config output must be a path string"),
        ({"command": "spectrum", "format": "xml"}, "config format must be json or csv, not 'xml'"),
        ({"master_seed": [1]}, "config master_seed must be an integer, not [1]"),
        ({"master_seed": 1.5}, "config master_seed must be an integer, not 1.5"),
        ({"master_seed": "7"}, "config master_seed must be an integer, not '7'"),
        ({"master_seed": True}, "config master_seed must be an integer, not True"),
    ],
)
def test_config_file_of_the_wrong_shape_is_validation_error(filed, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(filed))
    code, out, err = _run(["spectrum", "--config", str(cfg), "--q", "3", "--K", "2"], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == f"error: {message}\n"


def test_config_file_null_values_are_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    argv = ["converge", "--q", "3", "--K", "2"]
    code, unset, _ = _run(argv, capsys)
    assert code == EXIT_OK
    cfg.write_text(json.dumps({"master_seed": None, "params": {"Lmax": None, "q": None}}))
    code, out, _ = _run(argv + ["--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert out == unset


# a valid value of every parameter of each command, as a config file holds it
_VALID_PARAMS = {
    "capacity": {"K": "2..3", "P": [1, 2], "N": 2, "verbose": False},
    "spectrum": {"q": 3, "K": 2},
    "converge": {"q": 3, "K": 2, "Lmax": 5},
    "simulate": {"scheme": "repeated_pir", "q": 5, "K": None, "T": 2, "N": 2, "P": 1,
                 "nu": 4, "L": 8, "seeds": 2},
    "audit": {"scheme": "repeated_pir", "mode": "sampled", "samples": 100, "T": 2, "q": 5,
              "N": 2, "P": 1, "nu": 4},
    "ml-demo": {"data": "data.csv", "label": "label", "task": "svm", "private": True,
                "scale": 100, "q": 101, "max_abs": 2.5, "d": 1, "box": 10.0},
    "reproduce": {},
}


def _wrong_values(kind):
    values = [[7.9]]
    if kind is int:
        values += [7.9, "7", True]
    elif kind is float:
        values += ["7", True]
    elif kind is bool:
        values += ["no", 1]
    elif isinstance(kind, tuple):
        values += ["nope"]
    return values


_WRONG = [
    pytest.param(command, name, value, id=f"{command}-{name}-{json.dumps(value)}")
    for command, (_, declared) in PARAMS.items()
    for name, (kind, _, _) in declared.items()
    for value in _wrong_values(kind)
]


@pytest.mark.parametrize("command,name,value", _WRONG)
def test_config_value_of_the_wrong_type_is_validation_error(command, name, value, tmp_path,
                                                            capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": dict(_VALID_PARAMS[command], **{name: value})}))
    code, out, err = _run([command, "--config", str(cfg)], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    flag = "--" + name.replace("_", "-")
    assert err.startswith(f"error: {command} {flag} must be ")
    assert err.endswith(f", not {value!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(PARAMS))
def test_config_unknown_parameter_is_validation_error(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": dict(_VALID_PARAMS[command], Lmx=5)}))
    code, out, err = _run([command, "--config", str(cfg)], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == f"error: {command} has no parameter 'Lmx'\n"


def test_library_dispatch_checks_its_params():
    with pytest.raises(ValueError, match=r"spectrum --q must be an integer, not 7\.9"):
        dispatch(RunConfig("spectrum", {"q": 7.9, "K": 2}, None, "json", 1))


def test_config_range_values_of_each_json_type(tmp_path, capsys):
    """A parse_range value may be an integer, a list or a range string; the
    report echoes the values as given."""
    code, want, _ = _run(["capacity", "--K", "2,3", "--P", "1", "--N", "2"], capsys)
    assert code == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"K": [2, 3], "P": 1, "N": "2"}}))
    code, out, _ = _run(["capacity", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["results"] == json.loads(want)["results"]
    assert json.loads(out)["params"] == {"K": [2, 3], "P": 1, "N": "2"}


def test_each_parser_declares_exactly_its_params():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert list(subparsers.choices) == list(PARAMS)
    common = {"--config", "--output", "--format", "--master-seed", "-h", "--help"}
    for command, sub in subparsers.choices.items():
        flags = {opt for action in sub._actions for opt in action.option_strings}
        declared = {"--" + name.replace("_", "-") for name in PARAMS[command][1]}
        assert flags == declared | common, command


def test_reports_byte_identical_for_same_config():
    parser = build_parser()
    args = parser.parse_args(["capacity", "--K", "2..3", "--P", "1..2", "--N", "2,3"])
    config = resolve_config(args)
    texts = []
    for _ in range(2):
        report, status = dispatch(config)
        assert status == EXIT_OK
        texts.append(render_report(report, config.fmt))
    assert texts[0] == texts[1]


def test_simulate_repeated_pir_report_is_pinned():
    """The rendered report of one database-mode repeated_pir simulation,
    pinned by digest: the database draws, the tables and the queries' index
    draws all reach its bytes.  Any change to how they are drawn or computed
    changes the digest; so does a new package version."""
    args = build_parser().parse_args(
        ["simulate", "--scheme", "repeated_pir", "--K", "3", "--q", "5", "--N", "2",
         "--P", "2", "--seeds", "3"]
    )
    config = resolve_config(args)
    report, status = dispatch(config)
    assert status == EXIT_OK
    text = render_report(report, config.fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "42f437000723b86b33f757b286be9bb045a96e5d4c7bd03d6615370f62c3d8fe"
    )


def test_capacity_rows_are_one_capacity_grid_call(monkeypatch, capsys):
    calls = []
    grid = bounds.capacity_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return grid(*args, **kwargs)

    monkeypatch.setattr(bounds, "capacity_grid", counted)
    for verbose in ([], ["--verbose"]):
        calls.clear()
        code, out, _ = _run(
            ["capacity", "--K", "2..5", "--P", "1..6", "--N", "2..4", *verbose], capsys
        )
        assert code == EXIT_OK
        assert len(calls) == 1
        want = grid(range(2, 6), range(1, 7), range(2, 5), verbose=bool(verbose))
        assert json.loads(out)["results"] == want


def test_output_file_written_atomically(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        ["spectrum", "--q", "2", "--K", "2", "--output", str(out_path)], capsys
    )
    assert code == EXIT_OK
    assert out == ""  # routed to the file instead of stdout
    assert json.loads(out_path.read_text())["results"]["lambda2"] == 0.5
    assert not list(tmp_path.glob(".pipret-*"))  # no temp litter


def test_unknown_command_is_validation_error():
    assert main(["definitely-not-a-command"]) == EXIT_VALIDATION


def test_reproduce_negative_control_planted_spectral_fault(monkeypatch, capsys):
    """An off-by-one planted in the increment enumeration must fail the
    spectral criterion and surface in the exit code."""
    real = spectral.delta_distribution

    def skewed(q, K):
        d = real(q, K)
        counts = d.counts.copy()
        counts[0] += 1  # off-by-one in the enumeration
        return spectral.DeltaDistribution(
            q=d.q, K=d.K, T=d.T, counts=counts, probs=counts / counts.sum()
        )

    monkeypatch.setattr(spectral, "delta_distribution", skewed)
    detail = acceptance.criterion_spectral_exactness(0)
    assert not all(ok for _, ok in detail["checks"])


def test_reproduce_exit_code_wiring(monkeypatch, tmp_path, capsys):
    """reproduce returns 3 and names the failing criterion when any
    criterion fails; fast stub criteria keep this test cheap."""

    def fake_pass(seed):
        return {"checks": [("ok", True)]}

    def fake_fail(seed):
        return {"checks": [("broken", False)]}

    monkeypatch.setattr(
        acceptance, "CRITERIA", [(1, "stub pass", fake_pass), (2, "stub fail", fake_fail)]
    )
    monkeypatch.setattr(acceptance, "RUNTIME_LIMITS", {1: 60.0, 2: 60.0})
    out_path = tmp_path / "verdict.json"
    code, _, err = _run(["reproduce", "--output", str(out_path)], capsys)
    assert code == EXIT_ACCEPTANCE
    verdict = json.loads(out_path.read_text())["results"]
    assert verdict["failed_criteria"] == [2]
    assert "[FAIL] criterion 2" in err


def test_reproduce_all_green_with_stubs(monkeypatch, tmp_path, capsys):
    def fake_pass(seed):
        return {"checks": [("ok", True)], "value": 1.0}

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub", fake_pass)])
    monkeypatch.setattr(acceptance, "RUNTIME_LIMITS", {1: 60.0})
    out_path = tmp_path / "verdict.json"
    code, _, err = _run(["reproduce", "--output", str(out_path)], capsys)
    assert code == EXIT_OK
    verdict = json.loads(out_path.read_text())["results"]
    assert verdict["failed_criteria"] == []
    assert any(c["id"] == 10 and c["passed"] for c in verdict["criteria"])


def test_reproduce_prints_runtime_against_limit(monkeypatch, tmp_path, capsys):
    def fake_pass(seed):
        return {"checks": [("ok", True)]}

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub", fake_pass)])
    monkeypatch.setattr(acceptance, "RUNTIME_LIMITS", {1: 60.0})
    out_path = tmp_path / "verdict.json"
    code, _, err = _run(["reproduce", "--output", str(out_path)], capsys)
    assert code == EXIT_OK
    assert re.search(r"\[PASS\] criterion 1: stub \(\d+\.\d\ds of 60s limit\)", err)
    assert "[PASS] criterion 10: determinism\n" in err
    text = out_path.read_text()
    assert "runtime_s" not in text and "s of 60" not in text


def test_converge_rows_are_exact_beyond_the_per_state_limit(capsys):
    # 5^6 = 15625 tables, past the per-state exact limit; the class chain
    # evolves 7 congruence classes exactly
    code, out, _ = _run(["converge", "--q", "5", "--K", "3", "--Lmax", "5"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith(",True,0.0") for line in lines[1:])


def test_simulate_reports_the_bracket_beyond_the_table_limit(capsys):
    # q^T = 2^21 tables at K = 6; lambda2 needs no enumeration of them
    code, out, err = _run(
        ["simulate", "--scheme", "full_download", "--K", "6", "--q", "2", "--N", "2",
         "--nu", "2", "--L", "4", "--seeds", "2"],
        capsys,
    )
    assert code == EXIT_OK, err
    bracket = json.loads(out)["results"]["theorem_bracket"]
    assert bracket["lambda2"] == 0.5 and bracket["L"] == 4
    cb = bounds.theorem1_bounds(6, 1, 2, L=4, lambda2=0.5)
    assert (bracket["bracket_low"], bracket["bracket_high"]) == cb.bracket


def test_spectral_commands_never_call_the_oracles(monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("an oracle ran on the production path")

    monkeypatch.setattr(spectral, "delta_distribution", oracle)
    monkeypatch.setattr(spectral, "spectrum_via_characters", oracle)
    for argv in (
        ["spectrum", "--q", "5", "--K", "3"],
        ["spectrum", "--q", "11", "--K", "3"],
        ["converge", "--q", "7", "--K", "3", "--Lmax", "5"],
        ["converge", "--q", "2", "--K", "8", "--Lmax", "5"],
        ["simulate", "--scheme", "repeated_pir", "--K", "3", "--q", "5", "--N", "2",
         "--seeds", "2"],
    ):
        code, _, err = _run(argv, capsys)
        assert code == EXIT_OK, (argv, err)
    code, out, _ = _run(["spectrum", "--q", "11", "--K", "3"], capsys)
    res = json.loads(out)["results"]
    assert res == {"q": 11, "K": 3, "T": 6, "lambda2": spectral.lambda2(11, 3),
                   "irreducible": True, "gamma_all_positive": True}


_IMPORT_PROBE = """
import json, sys
import pipret, pipret.cli
from pipret.cli import build_parser, dispatch, resolve_config

def heavy():
    return sorted(m for m in sys.modules if m.startswith(("scipy", "mpmath")))

def run(*argv):
    report, status = dispatch(resolve_config(build_parser().parse_args(argv)))
    assert status == 0, argv
    return heavy()

seen = {"import": heavy()}
seen["spectrum"] = run("spectrum", "--q", "3", "--K", "2")
seen["converge"] = run("converge", "--q", "5", "--K", "2", "--Lmax", "5")
seen["simulate"] = run("simulate", "--scheme", "repeated_pir", "--K", "2", "--q", "3",
                       "--N", "2", "--seeds", "1")
seen["ml-demo"] = run("ml-demo", "--data", sys.argv[1], "--label", "label",
                      "--task", "svm", "--private", "--box", "100")
from pipret import acceptance
assert all(ok for _, ok in acceptance.criterion_spectral_exactness(0)["checks"])
seen["criterion 1"] = heavy()
assert all(ok for _, ok in acceptance.criterion_capacity_formulas(0)["checks"])
seen["criterion 6"] = heavy()
seen["audit"] = run("audit", "--scheme", "repeated_pir", "--mode", "sampled",
                    "--samples", "10000", "--T", "2", "--q", "5", "--N", "2", "--P", "1")
seen["capacity"] = run("capacity", "--K", "3", "--P", "1", "--N", "2", "--verbose")
print(json.dumps(seen))
"""


def test_scipy_and_mpmath_load_only_where_they_are_used(tmp_path):
    """One fresh process: importing pipret loads neither scipy nor mpmath,
    nor do criterion 1's Fourier transform and criterion 6's rate checks;
    the audit p-value loads scipy.special alone, and the verbose capacity
    grid, checked by integers, loads no mpmath."""
    data = tmp_path / "data.csv"
    _write_dataset(data)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(data)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    seen = json.loads(done.stdout)
    for step in ("import", "spectrum", "converge", "simulate", "ml-demo", "criterion 1",
                 "criterion 6"):
        assert seen[step] == [], step
    assert "scipy.special" in seen["audit"]
    assert not any(m.startswith(("scipy.stats", "mpmath")) for m in seen["audit"])
    assert not any(m.startswith("mpmath") for m in seen["capacity"])
