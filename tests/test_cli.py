import json
import math
import tomllib
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as hst

import closure14

from closure14 import cli
from closure14 import verify as verify_mod
from closure14.cli import CSV_HEADER, dumps17, fmt17, main
from closure14.coeffs import make_family

K10_REF = -43.40082151674337
EQ_STATE = {"lam": 0, "lam_i": [0, 0, 0], "lam_ij": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "lam_ill": [0, 0, 0], "lam_iill": 0}
NONEQ_STATE = {"lam": 0.2, "lam_i": [1e-2, -2e-2, 5e-3],
               "lam_ij": [[0.34, 0.01, -0.02], [0.01, 0.33, 0.015], [-0.02, 0.015, 0.32]],
               "lam_ill": [4e-3, -3e-3, 6e-3], "lam_iill": 5e-3}
ASYMMETRIC = [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]  # a_01 != a_10
ASYMMETRIC_TEXT = "[[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]"
JSON_ONLY = ["eval", "boost", "verify", "kinetic", "subsystem"]  # every command but coeffs


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

    def test_negative_zero_keeps_its_sign(self):
        # "-0" would read back as the integer 0
        assert fmt17(-0.0) == "-0.0" and fmt17(0.0) == "0" and fmt17(-1.0) == "-1"
        assert math.copysign(1.0, json.loads(dumps17([-0.0]))[0]) == -1.0

    def test_dumps17_keeps_every_float_in_place(self):
        values = [k / 7.0 for k in range(-1500, 1500)]  # tokens of one to four digits
        obj = {"rows": [{"i": i, "x": x} for i, x in enumerate(values)], "y": values[::-1]}
        assert json.loads(dumps17(obj)) == obj

    @settings(max_examples=300, deadline=None)
    @given(x=hst.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072009e-308)  # the largest subnormal, negated
    def test_dumps17_round_trips_every_finite_float(self, x):
        (back,) = json.loads(dumps17([x]))
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


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
            # inf members without an OverflowError: the sums were nan and printed
            ({"lam": -700}, 3),
            ({"lam": -600, "lam_ll": 1e-20}, 3),
            ({"lam": -690, "lam_ll": 0.05}, 3),
            ({"lam_ll": 10**400}, 2),  # an integer too large for a float
        ],
    )
    def test_overflow_and_non_finite_exit_codes(self, tmp_path, capsys, point, expected):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"point": point}))
        code, out, err = run_cli(capsys, "coeffs", "--config", str(cfgfile))
        assert code == expected
        assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("point", [3, [0.0, 1.0]], ids=["number", "list"])
    def test_point_must_be_an_object(self, tmp_path, capsys, point):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"point": point}))
        code, out, err = run_cli(capsys, "coeffs", "--config", str(cfgfile))
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err == f"config error: point must be an object, got {point!r}\n"

    @pytest.mark.parametrize("target, reason", [
        ("missing/table.json", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
    ], ids=["no_directory", "directory"])
    def test_unwritable_out_rejected(self, tmp_path, capsys, target, reason):
        # open() raised its OSError as a traceback, with the verification-failure exit 1
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, "coeffs", "--out", path)
        assert code == 2 and out == ""
        assert err == f"config error: cannot write output file: {reason}: {path!r}\n"

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

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, "coeffs", "--config", path)
        assert code == 2 and out == ""
        assert err == (f"config error: cannot read config file: "
                       f"[Errno 2] No such file or directory: {path!r}\n")

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

    @pytest.mark.parametrize("command", ["coeffs", "kinetic"])
    @pytest.mark.parametrize("family", ["exponential", "poly_exponential"])
    def test_family_failing_the_ladder_exit_code(self, tmp_path, capsys, family, command):
        # the ladder residuals are nan; they passed the gate and printed
        # RuntimeWarnings before the command failed later on an overflow
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"family": family, "family_params": {"amplitude": 1e300}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 3
        assert out == ""
        assert err == "error: ladder residual nan at s=2 is not finite\n"

    @pytest.mark.parametrize("command", ["verify", "kinetic"])
    def test_zero_count_rejected(self, tmp_path, capsys, command):
        # kinetic failed on max() of no records, and verify passed checking no point
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"count": 0}))
        code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 2 and out == ""
        assert err == "config error: count must be a positive integer, got 0\n"

    @pytest.mark.parametrize("command", ["verify", "kinetic", "eval", "coeffs", "boost"])
    def test_negative_seed_rejected(self, capsys, command):
        # numpy's error did not name the seed, and the other commands printed it
        code, out, err = run_cli(capsys, command, "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "config error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command, config, message", [
        ("eval", {"N": True, "seed": True}, "N must be a non-negative integer, got True"),
        ("eval", {"seed": True}, "seed must be a non-negative integer, got True"),
        ("verify", {"count": True}, "count must be a positive integer, got True"),
        ("coeffs", {"S": False}, "S must be a non-negative integer, got False"),
        ("coeffs", {"p_max": True}, "p_max must be a non-negative integer, got True"),
        ("kinetic", {"q_max": True}, "q_max must be a non-negative integer, got True"),
        ("subsystem", {"lam": True}, "lam must be a finite number, got True"),
        # a string or null lam reached reduce_to_13 and ended in a TypeError traceback
        ("subsystem", {"lam": "0.5"}, "lam must be a finite number, got '0.5'"),
        ("subsystem", {"lam": None}, "lam must be a finite number, got None"),
        # a string or null noneq_magnitude ended in a TypeError traceback, with exit 1
        ("verify", {"noneq_magnitude": "x"}, "noneq_magnitude must be a finite number, got 'x'"),
        ("verify", {"noneq_magnitude": None}, "noneq_magnitude must be a finite number, got None"),
        ("coeffs", {"point": {"lam": True}}, "point.lam must be a finite number, got True"),
        ("coeffs", {"point": {"lam_ll": "2"}}, "point.lam_ll must be a finite number, got '2'"),
        ("eval", {"state": {**EQ_STATE, "lam": "0"}},
         "state.lam must be a finite number, got '0'"),
        ("eval", {"state": {**EQ_STATE, "lam_i": [True, 0, 0]}},
         "state.lam_i[0] must be a finite number, got True"),
        ("boost", {"velocity": [True, 0, 0]}, "velocity[0] must be a finite number, got True"),
        ("boost", {"velocity": ["0.1", 0, 0]}, "velocity[0] must be a finite number, got '0.1'"),
        # numpy's matmul named a core dimension
        ("eval", {"state": {**EQ_STATE, "lam_i": [0, 0]}},
         "state.lam_i must be a list of 3 numbers, got [0, 0]"),
        # unknown fields inside an object were ignored: "kynd" ran the exponential family
        ("coeffs", {"family": {"kynd": "poly_exponential"}}, "unknown family fields: ['kynd']"),
        ("coeffs", {"point": {"lam_pp": 1}}, "unknown point fields: ['lam_pp']"),
        ("eval", {"state": {**EQ_STATE, "lam_jj": 0}}, "unknown state fields: ['lam_jj']"),
        ("boost", {"state": {"lam": 0, "lam_ij": EQ_STATE["lam_ij"]}},
         "missing state fields: ['lam_i', 'lam_ill', 'lam_iill']"),
        # open() took an integer as a file descriptor: 7 failed on a bad descriptor,
        # and true wrote to standard output and closed it
        ("coeffs", {"out": 7}, "out must be a string, got 7"),
        ("coeffs", {"out": True}, "out must be a string, got True"),
        # SymMatrix averaged lam_ij with its transpose and ran on that state
        ("eval", {"state": {**EQ_STATE, "lam_ij": ASYMMETRIC}},
         f"state.lam_ij must be symmetric, got {ASYMMETRIC_TEXT}"),
        # only coeffs writes CSV; the others printed JSON and exited 0
        *[(command, {"format": "csv"}, f"format must be 'json' for {command}, got 'csv'")
          for command in JSON_ONLY],
        ("coeffs", {"format": "xml"}, "format must be 'json' or 'csv', got 'xml'"),
        ("coeffs", [{"S": 3}], "config file must hold a JSON object"),
    ], ids=["N_seed", "seed", "count", "S", "p_max", "q_max", "lam", "lam_string", "lam_null",
            "noneq_string", "noneq_null", "point_bool", "point_string", "state_string",
            "state_bool", "velocity_bool", "velocity_string", "state_short_list",
            "family_unknown", "point_unknown", "state_unknown", "state_missing", "out_int",
            "out_bool", "state_asymmetric", *[f"csv_{command}" for command in JSON_ONLY],
            "format_xml", "config_list"])
    def test_boolean_or_non_number_rejected(self, tmp_path, capsys, command, config, message):
        # JSON true ran as 1 and was printed back as true; a numeric string ran as its number
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 2 and out == ""
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", JSON_ONLY)
    def test_csv_flag_rejected(self, capsys, command):
        # --format csv printed the JSON output and exited 0
        code, out, err = run_cli(capsys, command, "--format", "csv")
        assert code == 2 and out == ""
        assert err == f"config error: format must be 'json' for {command}, got 'csv'\n"

    @pytest.mark.parametrize("command", ["coeffs", *JSON_ONLY])
    def test_format_listed_only_for_coeffs(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and "--out" in out
        assert ("--format" in out) == (command == "coeffs")

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

    @pytest.mark.parametrize("family", ["exponential", "poly_exponential"])
    def test_nonequilibrium_moments_boost_back(self, tmp_path, capsys, family):
        # eval prints its moments exactly symmetric away from equilibrium too,
        # so boost takes them back through its symmetry check
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"family": family, "state": NONEQ_STATE}))
        code, out, err = run_cli(capsys, "eval", "--config", str(cfgfile))
        assert code == 0 and err == ""
        moments = json.loads(out)["moments"]
        cfgfile.write_text(json.dumps({"family": family, "moments": moments,
                                       "velocity": [0.1, -0.2, 0.05]}))
        code, out, err = run_cli(capsys, "boost", "--config", str(cfgfile))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["rest"] == moments and payload["lab"]["frame"] == "lab"

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
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"state": {**EQ_STATE, **state}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 3
        assert out == "" and len(err.splitlines()) == 1 and "overflow" in err

    @pytest.mark.parametrize("command", ["eval", "boost"])
    @pytest.mark.parametrize(
        "state, path",
        [
            ({"lam_i": [None, 0, 0]}, "state.lam_i[0]"),
            ({"lam_ij": [[1, 0, 0], [0, 1, None], [0, 0, 1]]}, "state.lam_ij[1][2]"),
            ({"lam_ill": [0, 0, None]}, "state.lam_ill[2]"),
        ],
        ids=["lam_i", "lam_ij", "lam_ill"],
    )
    def test_null_in_state_is_a_config_error(self, tmp_path, capsys, command, state, path):
        # numpy read null as NaN, which exited 3 as a domain error
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"state": {**EQ_STATE, **state}}))
        code, out, err = run_cli(capsys, command, "--config", str(cfgfile))
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err == f"config error: {path} must be a finite number, got None\n"

    @pytest.mark.parametrize(
        "block, value, message",
        [("f_k", [1.0], "moments.f_k must be a list of 3 numbers, got [1.0]"),
         ("f_kiill", [2.0], "moments.f_kiill must be a list of 3 numbers, got [2.0]"),
         ("f_ki", [[1, 2, 3]], "moments.f_ki must be a list of 3 lists, got [[1, 2, 3]]"),
         ("m_i", [0.5], "moments.m_i must be a list of 3 numbers, got [0.5]"),
         ("m_ill", [None, 0, 0], "moments.m_ill[0] must be a finite number, got None"),
         ("m", True, "moments.m must be a finite number, got True"),
         ("m_iill", "0.5", "moments.m_iill must be a finite number, got '0.5'"),
         ("f_kk", 0, "unknown moments fields: ['f_kk']"),
         ("m_ij", ASYMMETRIC, f"moments.m_ij must be symmetric, got {ASYMMETRIC_TEXT}"),
         ("f_kij", [[[0, 0, 0]] * 3, [[0, 0, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 0]] * 3],
          "moments.f_kij must be symmetric, got [[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "
          "[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "
          "[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]")],
        ids=["f_k", "f_kiill", "f_ki", "m_i", "m_ill_null", "m_bool", "m_iill_string",
             "unknown", "m_ij_asymmetric", "f_kij_asymmetric"],
    )
    def test_boost_rejects_malformed_moment_block(self, tmp_path, capsys, block, value, message):
        # numpy would broadcast the first three to lab moments, null to NaN and a
        # boolean or string to a number, and an unknown block was ignored; a
        # non-symmetric m_ij or f_kij was boosted as given
        code, out, _ = run_cli(capsys, "eval", "--n-trunc", "4")
        moments = {**json.loads(out)["moments"], block: value}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"moments": moments, "velocity": [0.1, 0.0, 0.0]}))
        code, out, err = run_cli(capsys, "boost", "--config", str(cfgfile))
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err == f"config error: {message}\n"

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

    @pytest.mark.parametrize("family", ["exponential", "poly_exponential"])
    @pytest.mark.parametrize("argv,message", [
        (("verify", "--n-trunc", "4", "--s-trunc", "3"),
         "verify at N=4 needs S >= 4 and family s_max >= S, got S=3 and s_max=6"),
        (("verify", "--n-trunc", "2", "--s-trunc", "2"),
         "verify at N=2 needs S >= 4 and family s_max >= S, got S=2 and s_max=6"),
        (("kinetic", "--s-trunc", "2"),
         "kinetic at p+q<=6 needs S >= 3 and family s_max >= max(S, 4), got S=2 and s_max=6"),
    ], ids=["verify_N4_S3", "verify_N2_S2", "kinetic_S2"])
    def test_short_series_exit_code(self, capsys, argv, message, family):
        # the cells the series could not reach were left out of the records,
        # and the run exited 0 or 1 on what was left
        code, out, err = run_cli(capsys, *argv, "--family", family)
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"


class TestKineticCommand:
    def test_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "kinetic")
        payload = json.loads(out)
        assert code == 0
        assert payload["kernel"] == "exponential"
        assert payload["max_relative_deviation"] <= 1e-7

    def test_slow_kernel_accepted(self, tmp_path, capsys):
        # F = exp(-x/100) decays on each point's own ray; a check on a fixed
        # ray at c = 80 exited 3 here
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"family_params": {"scale": 0.01}}))
        code, out, err = run_cli(capsys, "kinetic", "--config", str(cfgfile))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["family"]["params"] == {"scale": 0.01}
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
