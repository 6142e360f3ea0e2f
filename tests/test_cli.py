import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gausskit import io
from gausskit.cli import build_parser, main
from gausskit.params import E2Params, e2_to_cov, state_params
from gausskit.states import smsv, tmsv, vacuum


@pytest.fixture
def smsv_file(tmp_path):
    path = tmp_path / "smsv.json"
    path.write_text(io.dumps(smsv(0.3).params.to_json_dict()))
    return str(path)


@pytest.fixture
def tmsv_file(tmp_path):
    path = tmp_path / "tmsv.json"
    path.write_text(io.dumps(tmsv(0.35).params.to_json_dict()))
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConvert:
    def test_round_trip_lossless(self, capsys, tmp_path, smsv_file):
        code, cov_text = run_cli(capsys, "convert", "--state", smsv_file)
        assert code == 0
        cov_path = tmp_path / "cov.json"
        cov_path.write_text(cov_text)
        code, e2_text = run_cli(capsys, "convert", "--state", str(cov_path))
        assert code == 0
        back = E2Params.from_json_dict(json.loads(e2_text))
        truth = smsv(0.3).params
        assert abs(back.c - truth.c) < 1e-12
        assert np.abs(back.a - truth.a).max() < 1e-12

    def test_byte_identical_reruns(self, capsys, smsv_file):
        _, first = run_cli(capsys, "convert", "--state", smsv_file)
        _, second = run_cli(capsys, "convert", "--state", smsv_file)
        assert first == second


class TestValidate:
    def test_valid_state(self, capsys, tmsv_file):
        code, out = run_cli(capsys, "validate", "--state", tmsv_file)
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True and data["min_eig_M"] > 0

    def test_invalid_state_exit_two(self, capsys, tmp_path):
        bad = E2Params(1.0, [0.0], [[0.3]], [[0.5]])
        path = tmp_path / "bad.json"
        path.write_text(io.dumps(bad.to_json_dict()))
        code, out = run_cli(capsys, "validate", "--state", str(path))
        assert code == 2
        assert json.loads(out)["valid"] is False

    def test_malformed_json_exit_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "validate", "--state", str(path))
        assert code == 1

    def test_missing_field_named(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"n": 1, "c": [1.0, 0.0], "mu": [[0.0, 0.0]], "A": [[[0.0, 0.0]]]}')
        code = main(["validate", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Lambda" in captured.err


class TestMatrixCommands:
    def test_dmf_negative_binomial_diagonal(self, capsys, smsv_file):
        code, out = run_cli(capsys, "dmf", "--state", smsv_file, "--cutoff", "12")
        assert code == 0
        data = json.loads(out)
        dim = len(data["basis"])
        entries = np.array([complex(re, im) for re, im in data["entries"]]).reshape(dim, dim)
        alpha = 0.3
        for t in range(0, 12, 2):
            want = math.sqrt(1 - 4 * alpha ** 2) * math.comb(t, t // 2) * alpha ** t
            assert abs(entries[t, t] - want) < 1e-12

    def test_dmf_csv(self, capsys, smsv_file):
        code, out = run_cli(capsys, "dmf", "--state", smsv_file, "--cutoff", "3",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t1,s1,re,im"
        assert len(lines) == 1 + 16

    def test_statevec(self, capsys, smsv_file):
        code, out = run_cli(capsys, "statevec", "--state", smsv_file, "--cutoff", "8")
        assert code == 0
        data = json.loads(out)
        amp0 = complex(*data["entries"][0])
        assert abs(amp0 - (1 - 4 * 0.09) ** 0.25) < 1e-12

    def test_statevec_displaced(self, capsys, tmp_path):
        path = tmp_path / "displaced.json"
        path.write_text(io.dumps(state_params([[0.1]], [[0.0]], [0.5]).to_json_dict()))
        code, out = run_cli(capsys, "statevec", "--state", str(path), "--cutoff", "8")
        assert code == 0
        psi = np.array([complex(*z) for z in json.loads(out)["entries"]])
        code, out = run_cli(capsys, "dmf", "--state", str(path), "--cutoff", "8")
        assert code == 0
        rho = np.array([complex(*z) for z in json.loads(out)["entries"]]).reshape(9, 9)
        assert abs(psi[1]) > 0.4  # <1|psi> was 0 when mu was dropped
        assert np.abs(np.outer(psi, psi.conj()) - rho).max() <= 1e-15


class TestAnalysisCommands:
    def test_marginal(self, capsys, tmsv_file):
        code, out = run_cli(capsys, "marginal", "--state", tmsv_file, "--split", "0")
        assert code == 0
        data = json.loads(out)
        lam = complex(*data["Lambda"][0][0])
        assert abs(lam - 4 * 0.35 ** 2) < 1e-10

    def test_entanglement(self, capsys, tmsv_file):
        code, out = run_cli(capsys, "entanglement", "--state", tmsv_file)
        assert code == 0
        data = json.loads(out)
        assert data["0|1"]["separable"] is False

    def test_entanglement_weakest_split_only(self, capsys, tmp_path):
        # 32,767 splits; the report holds the weakest one, here the lone mode 5
        rng = np.random.default_rng(16)
        a = 0.01 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        a = a + a.T
        a[5, :] = a[:, 5] = 0.0
        a[5, 9] = a[9, 5] = 1e-3
        path = tmp_path / "sixteen.json"
        path.write_text(io.dumps(state_params(a, np.zeros((16, 16))).to_json_dict()))
        code, out = run_cli(capsys, "entanglement", "--state", str(path))
        assert code == 0
        rest = ",".join(str(m) for m in range(16) if m != 5)
        assert json.loads(out) == {f"{rest}|5": {"separable": False,
                                                  "offdiag_norm": pytest.approx(1e-3)}}

    def test_entanglement_one_mode_has_no_split(self, capsys, smsv_file):
        code, out = run_cli(capsys, "entanglement", "--state", smsv_file)
        assert code == 0
        assert json.loads(out) == {}

    def test_entanglement_rejects_mixed(self, capsys, tmp_path):
        path = tmp_path / "thermal.json"
        path.write_text(io.dumps(state_params(np.zeros((2, 2)), np.diag([0.3, 0.2]))
                                 .to_json_dict()))
        code = main(["entanglement", "--state", str(path)])
        assert code == 2 and "pure states only" in capsys.readouterr().err

    def test_charfn(self, capsys, smsv_file):
        code, out = run_cli(capsys, "charfn", "--state", smsv_file,
                            "--z", "[[0.0, 0.0]]")
        assert code == 0
        val = json.loads(out)["values"][0]
        assert val == [1.0, 0.0]

    def test_usage_error_without_split(self, capsys, tmsv_file):
        code, _ = run_cli(capsys, "marginal", "--state", tmsv_file)
        assert code == 1


class TestTomographyPipeline:
    def test_simulate_then_estimate(self, capsys, tmp_path):
        st = state_params(np.array([[0.0, 0.2], [0.2, 0.0]]), 0.1 * np.eye(2))
        path = tmp_path / "state.json"
        path.write_text(io.dumps(st.to_json_dict()))
        code, sim_text = run_cli(capsys, "tomo-simulate", "--state", str(path),
                                 "--shots", "200000", "--seed", "7")
        assert code == 0
        sim = json.loads(sim_text)
        assert len(sim["measurements"]) == 1 + 2 * 2 + 2 * 3 + 1
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(sim_text)
        code, est_text = run_cli(capsys, "tomo-estimate", "--counts", str(counts_path))
        assert code == 0
        est = json.loads(est_text)
        a12 = complex(*est["estimates"]["A"][0][1])
        assert abs(a12 - 0.2) < 0.01
        assert "stderr" in est

    def test_stdin_pipe(self, capsys, monkeypatch, tmp_path):
        import io as stdio
        st = state_params(np.zeros((1, 1)), [[0.2]])
        monkeypatch.setattr("sys.stdin", stdio.StringIO(io.dumps(st.to_json_dict())))
        code, out = run_cli(capsys, "validate", "--state", "-")
        assert code == 0 and json.loads(out)["valid"] is True

    def test_simulation_deterministic(self, capsys, tmp_path):
        st = state_params(np.zeros((1, 1)), [[0.2]])
        path = tmp_path / "state.json"
        path.write_text(io.dumps(st.to_json_dict()))
        _, first = run_cli(capsys, "tomo-simulate", "--state", str(path),
                           "--shots", "5000", "--seed", "3")
        _, second = run_cli(capsys, "tomo-simulate", "--state", str(path),
                            "--shots", "5000", "--seed", "3")
        assert first == second


def assert_one_line_error(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestBoundary:
    @pytest.mark.parametrize("flag, value", [("--cutoff", "-1"), ("--tol", "0"),
                                             ("--tol", "nan")])
    def test_bad_config_one_line(self, capsys, smsv_file, flag, value):
        assert_one_line_error(capsys, "dmf", "--state", smsv_file, flag, value)

    @pytest.mark.parametrize("command, flag, value", [("statevec", "--cut", "1"),
                                                      ("convert", "--to", "cov")])
    def test_abbreviated_flag_refused(self, capsys, smsv_file, command, flag, value):
        # a prefix of a flag is no flag: --cut is not --cutoff, --to not --tol
        err = assert_one_line_error(capsys, command, "--state", smsv_file, flag, value)
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_simulate_rejects_nonpositive_shots(self, capsys, smsv_file, shots):
        err = assert_one_line_error(capsys, "tomo-simulate", "--state", smsv_file,
                                    "--shots", shots)
        assert "shots" in err

    def test_simulate_refuses_shots_beyond_memory(self, capsys, smsv_file):
        err = assert_one_line_error(capsys, "tomo-simulate", "--state", smsv_file,
                                    "--shots", "1000000000000000")
        assert "1000000000000000 shots" in err and "memory" in err

    def test_estimate_rejects_zero_shots(self, capsys, tmp_path, smsv_file):
        code, sim_text = run_cli(capsys, "tomo-simulate", "--state", smsv_file,
                                 "--shots", "100")
        assert code == 0
        sim = json.loads(sim_text)
        sim["measurements"][0]["shots"] = 0
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(sim))
        err = assert_one_line_error(capsys, "tomo-estimate", "--counts", str(path))
        assert "M0" in err

    @pytest.mark.parametrize("command", ["convert", "validate", "dmf", "marginal",
                                         "entanglement", "tomo-simulate"])
    @pytest.mark.parametrize("field, entry, value", [
        ("mu", (0, 0), math.inf), ("A", (0, 1, 0), math.nan),
        ("Lambda", (1, 1, 0), -math.inf)])
    def test_non_finite_entries_rejected(self, capsys, tmp_path, command,
                                         field, entry, value):
        data = tmsv(0.35).params.to_json_dict()
        target = data[field]
        for i in entry[:-1]:
            target = target[i]
        target[entry[-1]] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        extra = {"marginal": ["--split", "0"], "tomo-simulate": ["--shots", "10"]}
        err = assert_one_line_error(capsys, command, "--state", str(path),
                                    *extra.get(command, []))
        assert repr(field) in err

    def test_non_finite_covariance_rejected(self, capsys, tmp_path):
        data = e2_to_cov(tmsv(0.35).params).to_json_dict()
        data["S"][0][0] = math.nan
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(data))
        err = assert_one_line_error(capsys, "convert", "--state", str(path))
        assert "'S'" in err

    @pytest.mark.parametrize("command", ["convert", "validate", "dmf", "marginal",
                                         "entanglement", "tomo-simulate"])
    @pytest.mark.parametrize("field, value", [("n", None), ("c", 1.0), ("n", 1.7)])
    def test_malformed_e2_scalars_named(self, capsys, tmp_path, command, field, value):
        data = tmsv(0.35).params.to_json_dict()
        data[field] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        extra = {"marginal": ["--split", "0"], "tomo-simulate": ["--shots", "10"]}
        err = assert_one_line_error(capsys, command, "--state", str(path),
                                    *extra.get(command, []))
        assert repr(field) in err

    @pytest.mark.parametrize("text, field", [
        ('{"measurements": [{"counts": [3, 7], "shots": 10}]}', "'spec'"),
        ('{"measurements": [{"spec": {"kind": "M0", "n": 1}}]}', "'counts'"),
        ('{"measurements": [{"spec": 5, "counts": [3, 7]}]}', "'spec'"),
        ('{"measurements": [{"spec": {"kind": "M0", "n": 1}, "counts": 5}]}', "'counts'"),
        ('{"measurements": 5}', "'measurements'"),
        ("5", "'measurements'")])
    def test_malformed_counts_file_named(self, capsys, tmp_path, text, field):
        path = tmp_path / "counts.json"
        path.write_text(text)
        err = assert_one_line_error(capsys, "tomo-estimate", "--counts", str(path))
        assert field in err

    def test_charfn_scalar_z(self, capsys, smsv_file):
        err = assert_one_line_error(capsys, "charfn", "--state", smsv_file, "--z", "5")
        assert "--z" in err

    @pytest.mark.parametrize("index, field, value, named", [
        (0, "counts", [None, 2], "'counts'"),
        (0, "shots", None, "'shots'"),
        (-1, "counts", [1, 2], "VN"),
        (1, "counts", [-50, 150], "Mj0(1)"),
        (0, "counts", [250, 50], "M0: counts sum to 300.0"),
        (0, "counts", "1e400", "M0")])
    def test_bad_counts_named(self, capsys, tmp_path, smsv_file, index, field, value, named):
        code, sim_text = run_cli(capsys, "tomo-simulate", "--state", smsv_file,
                                 "--shots", "100")
        assert code == 0
        sim = json.loads(sim_text)
        sim["measurements"][index][field] = value
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(sim).replace('"1e400"', "[1e400, 2]"))
        err = assert_one_line_error(capsys, "tomo-estimate", "--counts", str(path))
        assert named in err

    def test_estimate_refuses_repeated_spec(self, capsys, tmp_path, smsv_file):
        code, sim_text = run_cli(capsys, "tomo-simulate", "--state", smsv_file,
                                 "--shots", "10000")
        assert code == 0
        sim = json.loads(sim_text)
        sim["measurements"].append({"spec": {"kind": "M0", "n": 1}, "counts": [4000, 6000],
                                    "shots": 10000})
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(sim))
        err = assert_one_line_error(capsys, "tomo-estimate", "--counts", str(path))
        assert "M0: given more than once" in err

    def test_null_spec_n_named(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"measurements": [{"spec": {"kind": "M0", "n": null}, '
                        '"counts": [3, 7], "shots": 10}]}')
        err = assert_one_line_error(capsys, "tomo-estimate", "--counts", str(path))
        assert "'n'" in err

    @pytest.mark.parametrize("argv, named", [
        (["dmf", "--cutoff", "abc"], "--cutoff"),
        (["dmf", "--tol", "inf"], "--tol"),
        (["validate", "--seed", "1"], "--seed"),
        (["validate", "--format", "csv"], "--format"),
        (["tomo-simulate", "--shots", "100", "--cutoff", "3"], "--cutoff"),
        (["dmf", "--cutoff", "171"], "171"),
        ([], "command")])
    def test_usage_errors_one_line(self, capsys, smsv_file, argv, named):
        state = ["--state", smsv_file] if argv else []
        err = assert_one_line_error(capsys, *argv, *state)
        assert named in err

    def test_missing_state_one_line(self, capsys):
        err = assert_one_line_error(capsys, "dmf", "--cutoff", "3")
        assert "--state" in err

    def test_window_beyond_memory_one_line(self, capsys, tmp_path):
        path = tmp_path / "vacuum6.json"
        path.write_text(io.dumps(vacuum(6).params.to_json_dict()))
        err = assert_one_line_error(capsys, "dmf", "--state", str(path), "--cutoff", "40")
        assert "dimension 9366819" in err

    def test_non_finite_output_refused(self, capsys, monkeypatch, smsv_file):
        monkeypatch.setattr("gausskit.cli.characteristic_function",
                            lambda state, z: complex(math.nan, 0.0))
        err = assert_one_line_error(capsys, "charfn", "--state", smsv_file,
                                    "--z", "[[0.1, 0.2]]")
        assert "non-finite" in err

    @pytest.mark.parametrize("command, extra", [("convert", []),
                                                ("charfn", ["--z", "[[1e300, 1e300], [0, 0]]"])])
    def test_no_float_warnings(self, capsys, tmp_path, command, extra):
        # a numpy warning would be an extra stderr line
        data = e2_to_cov(tmsv(0.35).params).to_json_dict()
        data["m"][0][0] = 1e300 if command == "convert" else 0.0
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--state", str(path), *extra])
        assert code in (0, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_dumps_refuses_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            io.dumps({"values": [[0.5, value]]})

    def test_help_exits_zero(self, capsys):
        assert main(["dmf", "--help"]) == 0
        assert "--cutoff" in capsys.readouterr().out


class TestFlags:
    """Each subcommand takes exactly the flags its handler reads."""

    FLAGS = {
        "convert": {"--state", "--tol"},
        "validate": {"--state", "--tol"},
        "dmf": {"--state", "--tol", "--cutoff", "--format"},
        "statevec": {"--state", "--tol", "--cutoff", "--format"},
        "marginal": {"--state", "--tol", "--split"},
        "entanglement": {"--state", "--tol", "--split"},
        "charfn": {"--state", "--tol", "--z"},
        "tomo-simulate": {"--state", "--tol", "--seed", "--shots"},
        "tomo-estimate": {"--counts"},
    }

    def test_flag_sets(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
        assert got == self.FLAGS
        assert sum(len(f) for f in got.values()) == 26


class TestNormalization:
    """validate, convert and dmf share GaussianState's unit-trace rule."""

    @pytest.fixture
    def unnormalized_file(self, tmp_path):
        data = tmsv(0.35).params.to_json_dict()
        data["c"][0] *= 0.9
        path = tmp_path / "unnormalized.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_validate_reports_invalid(self, capsys, unnormalized_file):
        code, out = run_cli(capsys, "validate", "--state", unnormalized_file)
        assert code == 2
        data = json.loads(out)
        assert data["valid"] is False and data["min_eig_M"] > 0

    @pytest.mark.parametrize("command", ["convert", "dmf"])
    def test_window_and_convert_reject(self, capsys, unnormalized_file, command):
        code = main([command, "--state", unnormalized_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "not normalized" in lines[0]


# sha256 of CLI stdout for fixed inputs: output bytes are part of the CLI
# contract, so a change that moves one of these hashes changes the contract.
GOLDEN_ZERO = (
    '{"n": 2, "c": [0.55076111881649725, 0], "mu": [[0, 0], [0, 0]], '
    '"A": [[[0.10000000000000001, 0.050000000000000003], [0.12, -0.029999999999999999]], '
    '[[0.12, -0.029999999999999999], [0, -0.080000000000000002]]], '
    '"Lambda": [[[0.20000000000000001, 0], [0.050000000000000003, 0.040000000000000001]], '
    '[[0.050000000000000003, -0.040000000000000001], [0.14999999999999999, 0]]]}')
GOLDEN_DISPLACED = GOLDEN_ZERO.replace(
    '"c": [0.55076111881649725, 0], "mu": [[0, 0], [0, 0]]',
    '"c": [0.4382761704568266, 0], '
    '"mu": [[0.29999999999999999, -0.10000000000000001], [-0.20000000000000001, 0.25]]')
GOLDEN_TOMO = (
    '{"n": 2, "c": [0.63139730756473766, 0], "mu": [[0, 0], [0, 0]], '
    '"A": [[[0, 0], [0.20000000000000001, 0]], [[0.20000000000000001, 0], [0, 0]]], '
    '"Lambda": [[[0.10000000000000001, 0], [0, 0.02]], [[0, -0.02], [0.12, 0]]]}')
GOLDEN_PURE = (
    '{"n": 2, "c": [0.89975543343733144, 0], "mu": [[0, 0], [0, 0]], '
    '"A": [[[0.10000000000000001, 0.050000000000000003], [0.12, -0.029999999999999999]], '
    '[[0.12, -0.029999999999999999], [-0.080000000000000002, 0]]], '
    '"Lambda": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}')


class TestGoldenOutput:
    @pytest.mark.parametrize("state, fmt, digest", [
        (GOLDEN_ZERO, "json", "20cbfbb97ca8598bfa6c648a120dac98fc75d63aaaa3fcde020cd32d58741ca6"),
        (GOLDEN_ZERO, "csv", "acd094b30b130a3330ad8740b3d84233277cd17b6e81adda94b4d422925a3973"),
        (GOLDEN_DISPLACED, "json",
         "57b3205359fbc459f740216b13f7067208801c1a7f0e9599790656ffff1252a2"),
        (GOLDEN_DISPLACED, "csv",
         "01c8bc2ddbc0bf1ac575966ed590fbea6f0d1e16101189bdbae4bbc818661075")])
    def test_dmf_bytes(self, capsys, tmp_path, state, fmt, digest):
        path = tmp_path / "state.json"
        path.write_text(state)
        code, out = run_cli(capsys, "dmf", "--state", str(path), "--cutoff", "8",
                            "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "859b35483d2190751ce538e36108f642f95675e791583064a47a0ed33abce90a"),
        ("csv", "70ec165ae018deefeb1405820f1c0b2049caf086cbd36204bd55ca263f82af95")])
    def test_statevec_bytes(self, capsys, tmp_path, fmt, digest):
        path = tmp_path / "state.json"
        path.write_text(GOLDEN_PURE)
        code, out = run_cli(capsys, "statevec", "--state", str(path), "--cutoff", "8",
                            "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("split, digest", [
        ([], "dc53cb748053645abc96c5978d606072dd3ddb07fb8997d24ce3a6fcdd0753cc"),
        (["--split", "1"], "9a9370d0291d747f5aaeac3c0597a79010976f39b1b87f4a5b6637aefa8652a5")])
    def test_entanglement_bytes(self, capsys, tmsv_file, split, digest):
        code, out = run_cli(capsys, "entanglement", "--state", tmsv_file, *split)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tomography_bytes(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(GOLDEN_TOMO)
        code, sim = run_cli(capsys, "tomo-simulate", "--state", str(path),
                            "--shots", "10000", "--seed", "11")
        assert code == 0
        assert hashlib.sha256(sim.encode()).hexdigest() == \
            "d03737f9e55f87902d67c34a2897bae80a7968946287dd9f7a411e0ec8fdc990"
        counts = tmp_path / "counts.json"
        counts.write_text(sim)
        code, est = run_cli(capsys, "tomo-estimate", "--counts", str(counts))
        assert code == 0
        assert hashlib.sha256(est.encode()).hexdigest() == \
            "14cf8c421509e5878f7aa6681f79421ef4b0616482030d2c2ffc32b70d6ba6d3"


class TestPoolBytes:
    """Replays requests recorded in the benchmark's reference pool and checks
    their stdout sha256, as the benchmark does: the first item of each
    cli-window category, and a tomo-simulate then tomo-estimate per n."""

    POOL = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                       / "pool.json").read_text(encoding="utf-8"))
    WINDOW_ARGS = {"mz3": ["dmf", "--cutoff", "12"], "d3": ["dmf", "--cutoff", "12"],
                   "csv3": ["dmf", "--cutoff", "12", "--format", "csv"],
                   "c20": ["dmf", "--cutoff", "20"]}

    @staticmethod
    def replay(capsys, *argv) -> str:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("category", ["mz3", "d3", "csv3", "c20"])
    def test_window_bytes(self, capsys, tmp_path, category):
        item = self.POOL["cli-window"][category][0]
        path = tmp_path / "state.json"
        path.write_text(io.dumps(item["state"]))
        assert self.replay(capsys, *self.WINDOW_ARGS[category], "--state", str(path)) \
            == item["sha256"]

    @pytest.mark.parametrize("n", ["2", "4", "6"])
    def test_tomography_bytes(self, capsys, tmp_path, n):
        item = self.POOL["tomo-battery"][n][0]
        path, counts = tmp_path / "state.json", tmp_path / "counts.json"
        path.write_text(io.dumps(item["state"]))
        code, sim = run_cli(capsys, "tomo-simulate", "--state", str(path), "--shots", "100000",
                            "--seed", str(item["seed"]))
        assert code == 0
        assert hashlib.sha256(sim.encode()).hexdigest() == item["simulate_sha256"]
        counts.write_text(sim)
        assert self.replay(capsys, "tomo-estimate", "--counts", str(counts)) \
            == item["estimate_sha256"]


def test_cli_import_stays_light():
    """`import gausskit.cli` loads no scipy and no array writer and builds no
    window structure: every CLI request pays for that import."""
    probe = ("import sys\nimport gausskit.cli\nfrom gausskit import fock\n"
             "caches = [f for f in vars(fock).values() if hasattr(f, 'cache_info')]\n"
             "print(len(caches), sum(f.cache_info().currsize for f in caches),\n"
             "      'scipy' in sys.modules, 'gausskit._writer' in sys.modules)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    caches, filled, scipy, writer = proc.stdout.split()
    assert int(caches) >= 1
    assert (int(filled), scipy, writer) == (0, "False", "False")
