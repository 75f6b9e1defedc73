"""Command-line frontend.

Commands: coeffs, eval, boost, verify, kinetic, subsystem.
Every number in a config is a finite JSON number (true, false, strings and
null exit 2), point, state, moments and the family object take only
their listed fields, and a symmetric tensor must be given symmetric.
All structured output is JSON; only coeffs also writes CSV.  Numbers carry
17 significant digits, except in the verify report, which prints each
float in the shortest form that reads back exactly.  Every output embeds
the family spec, truncations and seed so results are reproducible from the
file alone.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 configuration or usage error, 3 domain or numerical error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import coeffs, kinetic, potentials, verify
from .coeffs import EquilibriumPoint, make_family
from .errors import ClosureError, ConfigError
from .potentials import HATTED, BoostVelocity, MomentSet, MultiplierState

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

CSV_HEADER = "p,q,S,lambda,lambda_ll,lambda_ppqq,value"
_FLOAT_TOKEN = re.compile(r'"@float(\d+)@"')  # a float's placeholder, as json.dumps quotes it


def fmt17(x: float) -> str:
    """17-significant-digit decimal form (round-trips to the same float).

    Negative zero is "-0.0": JSON reads "-0" as the integer 0 and drops the sign.
    """
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def _render_floats(obj, table):
    """Replace floats with placeholder tokens for exact-format JSON output."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        table.append(fmt17(obj))
        return f"@float{len(table) - 1}@"
    if isinstance(obj, dict):
        return {k: _render_floats(v, table) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render_floats(v, table) for v in obj]
    return obj


def dumps17(obj) -> str:
    """json.dumps, indented by 2, with every float printed to 17 significant digits."""
    table = []
    text = json.dumps(_render_floats(obj, table), indent=2, sort_keys=True)
    return _FLOAT_TOKEN.sub(lambda match: table[int(match[1])], text)


def _number(name: str, value) -> float:
    """A finite JSON number; true and false, strings and null are not numbers."""
    # the comparison is exact for an int too large for a float, and false for NaN
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _numbers(name: str, value, shape: tuple):
    """A number for shape (), else nested JSON lists of numbers of that shape."""
    if not shape:
        return _number(name, value)
    if not isinstance(value, list) or len(value) != shape[0]:
        items = "numbers" if len(shape) == 1 else "lists"
        raise ConfigError(f"{name} must be a list of {shape[0]} {items}, got {value!r}")
    return [_numbers(f"{name}[{k}]", item, shape[1:]) for k, item in enumerate(value)]


def _field(name: str, value, kind):
    """A config value of kind: a shape of numbers (see _numbers), str or dict."""
    if isinstance(kind, tuple):
        return _numbers(name, value, kind)
    if not isinstance(value, kind):
        article = "a string" if kind is str else "an object"
        raise ConfigError(f"{name} must be {article}, got {value!r}")
    return value


def _symmetric(name: str, value):
    """Raise ConfigError unless value is exactly symmetric in its last two indices."""
    if not np.array_equal(value, np.swapaxes(value, -1, -2)):
        raise ConfigError(f"{name} must be symmetric, got {value!r}")


def _object(name: str, value, kinds: dict, defaults: dict) -> dict:
    """A JSON object with only the fields of kinds, each read by _field.

    A field with no entry in defaults is required.
    """
    _field(name, value, dict)
    unknown = set(value) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    record = {**defaults, **{k: _field(f"{name}.{k}", v, kinds[k]) for k, v in value.items()}}
    missing = [k for k in kinds if k not in record]
    if missing:
        raise ConfigError(f"missing {name} fields: {missing}")
    return record


# the kinds of the fields of each config object, for _object
_POINT = {"lam": (), "lam_ll": (), "lam_ppqq": ()}
_STATE = {"frame": str, "lam": (), "lam_i": (3,), "lam_ij": (3, 3), "lam_ill": (3,),
          "lam_iill": ()}
_MOMENTS = {"frame": str, "m": (), "m_i": (3,), "m_ij": (3, 3), "m_ill": (3,), "m_iill": (),
            "f_k": (3,), "f_ki": (3, 3), "f_kij": (3, 3, 3), "f_kill": (3, 3), "f_kiill": (3,)}
_FAMILY = {"kind": str, "params": dict}


@dataclass
class RunConfig:
    """Validated, fully-defaulted run parameters.

    Precedence: command-line flags over config file over defaults.
    """

    family: str = coeffs.EXPONENTIAL.name
    family_params: dict = field(default_factory=dict)
    N: int = 6
    S: int = 4
    seed: int = verify.VerifyConfig.seed
    count: int = verify.VerifyConfig.count
    noneq_magnitude: float = verify.VerifyConfig.noneq_magnitude
    format: str = "json"
    out: str | None = None
    point: dict = field(default_factory=dict)
    state: dict | None = None
    velocity: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    moments: dict | None = None
    p_max: int = 4
    q_max: int = 4
    lam: float = 0.0

    def validate(self):
        """Read each value once, in place, or raise ConfigError."""
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {self.format!r}")
        for name in ("N", "S", "count", "p_max", "q_max", "seed"):
            v = getattr(self, name)
            least = 1 if name == "count" else 0  # a run checks at least one point
            if isinstance(v, bool) or not isinstance(v, int) or v < least:  # JSON true is 1
                kind = "a positive" if least else "a non-negative"
                raise ConfigError(f"{name} must be {kind} integer, got {v!r}")
        _field("family_params", self.family_params, dict)
        self.lam = _number("lam", self.lam)
        self.noneq_magnitude = _number("noneq_magnitude", self.noneq_magnitude)
        self.velocity = _numbers("velocity", self.velocity, (3,))
        self.point = _object("point", self.point, _POINT,
                             {"lam": 0.0, "lam_ll": 1.0, "lam_ppqq": 0.0})
        if self.state is not None:
            self.state = _object("state", self.state, _STATE, {"frame": HATTED})
            _symmetric("state.lam_ij", self.state["lam_ij"])
        if self.moments is not None:
            self.moments = _object("moments", self.moments, _MOMENTS, {"frame": "rest"})
            _symmetric("moments.m_ij", self.moments["m_ij"])
            _symmetric("moments.f_kij", self.moments["f_kij"])
        if self.out is not None:
            _field("out", self.out, str)
        return self

    def multiplier_state(self) -> MultiplierState:
        if self.state is not None:
            return MultiplierState.from_dict(self.state)
        pt = EquilibriumPoint(**self.point)
        return MultiplierState.equilibrium(pt.lam, pt.lam_ll, pt.lam_ppqq)

    def build_family(self):
        return make_family(self.family, self.family_params)

    def describe(self) -> dict:
        return {
            "family": {"kind": self.family, "params": dict(self.family_params)},
            "N": self.N,
            "S": self.S,
            "seed": self.seed,
        }


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if isinstance(data.get("family"), dict):
            fam = _object("family", data.pop("family"), _FAMILY,
                          {"kind": cfg.family, "params": {}})
            data["family"] = fam["kind"]
            data.setdefault("family_params", fam["params"])
        for key, value in data.items():
            setattr(cfg, key, value)
    for flag, key in (("family", "family"), ("n_trunc", "N"), ("s_trunc", "S"),
                      ("seed", "seed"), ("out", "out"), ("format", "format")):
        if getattr(args, flag) is not None:  # flags win over config file
            setattr(cfg, key, getattr(args, flag))
    return cfg.validate()


def _emit(out: str | None, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _moments_dict(m: MomentSet) -> dict:
    return {k: np.asarray(getattr(m, k)).tolist() for k in _MOMENTS}  # frame stays a str


# --- commands ----------------------------------------------------------------
# Each returns its payload and whether it passed.  main adds the command name
# and cfg.describe() to a dict payload; a text payload is written as it is.


def cmd_coeffs(cfg: RunConfig) -> tuple[dict | str, bool]:
    f = cfg.build_family()
    pt = EquilibriumPoint(**cfg.point)
    rows = [  # keys in CSV_HEADER order
        {"p": p, "q": q, "S": cfg.S, "lambda": pt.lam, "lambda_ll": pt.lam_ll,
         "lambda_ppqq": pt.lam_ppqq, "value": coeffs.k_pq(f, p, q, pt, cfg.S)}
        for p in range(cfg.p_max + 1)
        for q in range(cfg.q_max + 1)
    ]
    if cfg.format == "csv":
        lines = [",".join(fmt17(v) for v in row.values()) for row in rows]
        return "\n".join([CSV_HEADER, *lines]), True
    return {"rows": rows}, True


def cmd_eval(cfg: RunConfig) -> tuple[dict | str, bool]:
    f = cfg.build_family()
    state = cfg.multiplier_state()
    h = potentials.eval_h_hat(f, state, cfg.N, cfg.S)
    phi = potentials.eval_phi_hat(f, state, cfg.N, cfg.S)
    moments = potentials.moments_from_potentials(f, state, cfg.N, cfg.S)
    return {
        "state": state.to_dict(),
        "h": h,
        "phi": phi.tolist(),
        "moments": _moments_dict(moments),
    }, True


def cmd_boost(cfg: RunConfig) -> tuple[dict | str, bool]:
    v = BoostVelocity(cfg.velocity)
    f = cfg.build_family()  # also checks the family the output describes
    if cfg.moments is not None:
        rest = MomentSet(**{k: np.array(x) if isinstance(x, list) else x
                            for k, x in cfg.moments.items()})
    else:
        rest = potentials.moments_from_potentials(
            f, cfg.multiplier_state(), cfg.N, cfg.S
        )
    lab = potentials.lab_moments_from_rest(rest, v)
    return {
        "velocity": cfg.velocity,
        "rest": _moments_dict(rest),
        "lab": _moments_dict(lab),
    }, True


def _kernel_for(cfg: RunConfig):
    return kinetic.kernel_for(cfg.family, cfg.family_params)


def cmd_verify(cfg: RunConfig) -> tuple[dict | str, bool]:
    f = cfg.build_family()
    report = verify.run_all(
        f,
        verify.VerifyConfig(
            seed=cfg.seed,
            count=cfg.count,
            N=cfg.N,
            S=cfg.S,
            noneq_magnitude=cfg.noneq_magnitude,
        ),
        kernel=_kernel_for(cfg),
    )
    if not report.all_passed:
        print(
            "failed conditions: " + ", ".join(report.failed_conditions()),
            file=sys.stderr,
        )
    return report.to_json(), report.all_passed


def cmd_kinetic(cfg: RunConfig) -> tuple[dict | str, bool]:
    f = cfg.build_family()
    kernel = _kernel_for(cfg)
    if kernel is None:
        raise ConfigError(
            f"family {cfg.family!r} has no built-in kernel for the kinetic comparison"
        )
    config = verify.VerifyConfig(seed=cfg.seed, count=cfg.count)
    report = verify.check_kinetic_equivalence(
        f,
        kernel,
        config.scalar_points(with_ppqq=False)[: config.kinetic_points],
        pq_total_max=min(cfg.p_max + cfg.q_max, 6),
        S=cfg.S,
    )
    max_dev = max(r["residual"] for r in report.records)
    return {
        "kernel": kernel.name,
        "max_relative_deviation": max_dev,
        "records": report.records,
    }, report.all_passed


def cmd_subsystem(cfg: RunConfig) -> tuple[dict | str, bool]:
    f = cfg.build_family()
    q_max = cfg.q_max - cfg.q_max % 2
    table = coeffs.reduce_to_13(f, q_max, cfg.lam)
    return {
        "lam": table.lam,
        "I_q": {f"I_{q}": v for q, v in sorted(table.values.items())},
        "c_q": table.c_q,
        "note": "c_q vanishes identically for the 13-moment reduction",
    }, True


_COMMANDS = {  # name: (command, help text)
    "coeffs": (cmd_coeffs, "write a coefficient table"),
    "eval": (cmd_eval, "evaluate potentials and moments at a state"),
    "boost": (cmd_boost, "boost a rest-frame moment set to the lab frame"),
    "verify": (cmd_verify, "run the full verification suite"),
    "kinetic": (cmd_kinetic, "compare coefficients against the quadrature oracle"),
    "subsystem": (cmd_subsystem, "reduce to the 13-moment subsystem"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closure14",
        description="14-moment closure: coefficient tables, potentials, "
        "boosts, verification, kinetic comparison, subsystem reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--family", help="generating family kind")
        p.add_argument("--n-trunc", type=int, help="tensor-order truncation N")
        p.add_argument("--s-trunc", type=int, help="series truncation S")
        p.add_argument("--seed", type=int, help="seed for test-point generation")
        p.add_argument("--out", help="output path (default stdout)")
        # the JSON-only commands parse --format too, so main rejects csv in one line
        p.add_argument("--format", choices=("json", "csv"),
                       help="output format" if name == "coeffs" else argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config exit code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = load_config(args)
        if cfg.format != "json" and args.command != "coeffs":
            raise ConfigError(f"format must be 'json' for {args.command}, got {cfg.format!r}")
        payload, passed = _COMMANDS[args.command][0](cfg)
        if isinstance(payload, dict):
            payload = dumps17({"command": args.command, **cfg.describe(), **payload})
        _emit(cfg.out, payload)
        return EXIT_OK if passed else EXIT_VERIFY_FAILED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ClosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OverflowError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
