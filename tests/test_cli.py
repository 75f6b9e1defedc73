import json
import tomllib
import warnings
from pathlib import Path

import pytest

import closure14

from closure14 import cli
from closure14 import verify as verify_mod
from closure14.cli import CSV_HEADER, dumps17, fmt17, main
from closure14.coeffs import make_family

K10_REF = -43.40082151674337


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_fmt17_round_trips(self):
        for x in (K10_REF, 1.0 / 3.0, -0.0, 1e-300, 28.933881011162246):
            assert float(fmt17(x)) == x

    def test_dumps17_renders_floats_verbatim(self):
        text = dumps17({"a": 1.0 / 3.0, "b": [True, False], "c": "s"})
        assert "0.33333333333333331" in text
        assert json.loads(text) == {"a": 1.0 / 3.0, "b": [True, False], "c": "s"}


class TestCoeffsCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        by_pq = {tuple(l.split(",")[:2]): l for l in lines[1:]}
        row = by_pq[("1", "0")].split(",")
        assert float(row[-1]) == pytest.approx(K10_REF, rel=1e-15)

    def test_json_self_describing(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs")
        payload = json.loads(out)
        assert code == 0
        assert payload["command"] == "coeffs"
        assert payload["family"]["kind"] == "exponential"
        assert payload["S"] == 4 and payload["seed"] == 0
        assert len(payload["rows"]) == 25

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "coeffs", "--format", "csv", "--out", str(target)
        )
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith(CSV_HEADER) and text.endswith("\n")

    def test_domain_error_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"point": {"lam": 0.0, "lam_ll": -1.0}}))
        code, _, err = run_cli(capsys, "coeffs", "--config", str(cfgfile))
        assert code == 3
        assert "positive" in err

    @pytest.mark.parametrize(
        "point, expected",
        [
            ({"lam": -1000.0}, 3),
            ({"lam_ll": 1e-300}, 3),
            ({"lam": float("nan")}, 2),
            ({"lam_ppqq": float("inf")}, 2),
        ],
    )
    def test_overflow_and_non_finite_exit_codes(self, tmp_path, capsys, point, expected):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"point": point}))
        code, out, err = run_cli(capsys, "coeffs", "--config", str(cfgfile))
        assert code == expected
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("coeffs", {"point": {"lam": 0, "lam_ll": 1, "lam_ppqq": -5}}),
            ("eval", {"state": {"lam": 0, "lam_i": [0, 0, 0], "lam_ij": [[0.3, 0, 0], [0, 0.3, 0], [0, 0, 0.3]],
                                "lam_ill": [0, 0, 0], "lam_iill": -0.01}}),
        ],
    )
    def test_negative_quartic_exit_code(self, tmp_path, capsys, command, config):
        # lam_ppqq < 0: the integral diverges, so no formal-series value is printed
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 3
        assert out == "" and "Traceback" not in err and "lambda_ppqq" in err


class TestConfigHandling:
    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n_trnc": 4}))
        code, _, err = run_cli(capsys, "coeffs", "--config", str(cfgfile))
        assert code == 2 and "unknown config fields" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{not json")
        code, _, err = run_cli(capsys, "coeffs", "--config", str(cfgfile))
        assert code == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"S": 2, "seed": 7}))
        code, out, _ = run_cli(capsys, "coeffs", "--config", str(cfgfile), "--s-trunc", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["S"] == 3  # flag wins
        assert payload["seed"] == 7  # config survives where no flag given

    def test_family_dict_form(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"family": {"kind": "exponential", "params": {"scale": 2.0}}})
        )
        code, out, _ = run_cli(capsys, "coeffs", "--config", str(cfgfile))
        payload = json.loads(out)
        assert code == 0
        assert payload["family"]["params"]["scale"] == 2.0

    @pytest.mark.parametrize(
        "command", ["coeffs", "eval", "boost", "verify", "kinetic", "subsystem"]
    )
    @pytest.mark.parametrize(
        "family",
        [
            {"family": "custom"},
            {"family": "custom", "family_params": {"deriv": 3}},
            {"family_params": {"scale": 0}},
            {"family_params": {"scale": -1}},
            {"family_params": {"amplitdue": 2}},
            {"family": "poly_exponential", "family_params": {"scale": 2}},
            {"family_params": {"amplitude": 0}},
            {"family_params": None},
        ],
    )
    def test_bad_family_exit_code(self, tmp_path, capsys, family, command):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(family))
        code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command", ["coeffs", "eval", "boost", "verify", "kinetic", "subsystem"]
    )
    def test_s_max_accepted(self, tmp_path, capsys, command):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"count": 3, "family_params": {"s_max": 8}}))
        code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code in (0, 1), err
        assert json.loads(out)

    def test_unknown_family_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--family", "bogus")
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    def test_config_file_not_mutated(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        original = json.dumps({"S": 3})
        cfgfile.write_text(original)
        run_cli(capsys, "coeffs", "--config", str(cfgfile))
        assert cfgfile.read_text() == original


class TestEvalAndBoost:
    def test_eval_equilibrium(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n-trunc", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["h"] == pytest.approx(28.933881011162246, rel=1e-15)
        assert payload["phi"] == [0.0, 0.0, 0.0]
        assert payload["moments"]["frame"] == "rest"

    def test_boost_zero_velocity_identity(self, capsys):
        code, out, _ = run_cli(capsys, "boost", "--n-trunc", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["rest"]["m"] == payload["lab"]["m"]
        assert payload["rest"]["m_ij"] == payload["lab"]["m_ij"]

    def test_boost_with_explicit_moments(self, tmp_path, capsys):
        # first derive moments, then feed them back through a config file
        code, out, _ = run_cli(capsys, "eval", "--n-trunc", "4")
        moments = json.loads(out)["moments"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"moments": moments, "velocity": [0.1, 0.0, 0.0]}))
        code, out, _ = run_cli(capsys, "boost", "--config", str(cfgfile))
        payload = json.loads(out)
        assert code == 0
        assert payload["lab"]["frame"] == "lab"
        # rank-1 density: m_i + m v
        assert payload["lab"]["m_i"][0] == pytest.approx(
            moments["m_i"][0] + moments["m"] * 0.1, rel=1e-12
        )

    @pytest.mark.parametrize("command", ["eval", "boost"])
    @pytest.mark.parametrize(
        "state",
        [
            {"lam_i": [0, 1e200, 0]},
            # 1e308 overflowed when SymMatrix symmetrized lam_ij
            {"lam_i": [0, 1e308, 0], "lam_ij": [[1e308, 0, 0], [0, 1, 0], [0, 0, 1]]},
        ],
        ids=["lam_i", "lam_ij"],
    )
    def test_overflowing_state_exit_code(self, tmp_path, capsys, command, state):
        # finite multipliers whose potentials overflow: one error line, no NaN output
        full = {"lam": 0, "lam_i": [0, 0, 0], "lam_ij": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "lam_ill": [0, 0, 0], "lam_iill": 0, **state}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"state": full}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 3
        assert out == "" and len(err.splitlines()) == 1 and "overflow" in err

    def test_boost_rejects_non_finite_moments(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"moments": {"frame": "rest", "m": float("nan")}}))
        code, out, err = run_cli(capsys, "boost", "--config", str(cfgfile))
        assert code == 2 and out == "" and "moments.m" in err


class TestVerifyCommand:
    def test_pass_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"count": 3}))
        assert run_cli(capsys, "verify", "--config", str(cfgfile), "--out", str(a))[0] == 0
        assert run_cli(capsys, "verify", "--config", str(cfgfile), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["summary"]["failed"] == 0
        assert payload["metadata"]["seed"] == 0

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake_run_all(f, config, kernel=None):
            rep = verify_mod.VerificationReport(metadata={})
            rep.add("ladder.s0", "anchor", {}, 1.0, 1e-6)
            return rep

        monkeypatch.setattr(cli.verify, "run_all", fake_run_all)
        code, _, err = run_cli(capsys, "verify")
        assert code == 1
        assert "ladder.s0" in err


class TestKineticCommand:
    def test_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "kinetic")
        payload = json.loads(out)
        assert code == 0
        assert payload["kernel"] == "exponential"
        assert payload["max_relative_deviation"] <= 1e-7

    def test_no_kernel_for_custom_family(self, capsys, monkeypatch):
        # a custom family needs a callable, so only a library caller can supply one
        custom = make_family("custom", {"deriv": make_family("exponential").deriv})
        monkeypatch.setattr(cli, "make_family", lambda kind, params: custom)
        code, out, err = run_cli(capsys, "kinetic", "--family", "custom")
        assert code == 2 and out == ""
        assert "no built-in kernel" in err


class TestSubsystemCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "subsystem")
        payload = json.loads(out)
        assert code == 0
        assert sorted(payload["I_q"]) == ["I_0", "I_2", "I_4"]
        assert payload["c_q"] == 0.0
        assert payload["I_q"]["I_0"] == pytest.approx(28.933881011162246, rel=1e-15)


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert closure14.__version__ == tomllib.load(fh)["project"]["version"]
