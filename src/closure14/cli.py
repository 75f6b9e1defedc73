"""Command-line frontend.

Commands: coeffs, eval, boost, verify, kinetic, subsystem.
All structured output is JSON (numbers with 17 significant digits) or
CSV for flat tables; every output embeds the family spec, truncations
and seed so results are reproducible from the file alone.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 configuration or usage error, 3 domain or numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import coeffs, kinetic, potentials, verify
from .coeffs import EquilibriumPoint, make_family
from .errors import ClosureError, ConfigError, DomainError
from .potentials import BoostVelocity, MomentSet, MultiplierState

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


def _require_finite(name: str, value):
    """Reject NaN, infinite numbers and null list items anywhere inside a config value.

    Other entries that are not numbers are left to the parsing that uses them.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(f"{name}.{key}", item)
    elif isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            if item is None:  # numpy would read it as NaN
                raise ConfigError(f"{name} must be finite, got null at {name}[{k}]")
            _require_finite(f"{name}[{k}]", item)
    elif value is not None and not isinstance(value, bool):
        try:
            finite = math.isfinite(float(value))
        except OverflowError:
            finite = False
        except (TypeError, ValueError):
            return
        if not finite:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass
class RunConfig:
    """Validated, fully-defaulted run parameters.

    Precedence: command-line flags over config file over defaults.
    """

    family: str = coeffs.EXPONENTIAL.name
    family_params: dict = field(default_factory=dict)
    N: int = 6
    S: int = 4
    seed: int = 0
    count: int = 10
    noneq_magnitude: float = 5e-4
    format: str = "json"
    out: str | None = None
    point: dict = field(default_factory=lambda: {"lam": 0.0, "lam_ll": 1.0, "lam_ppqq": 0.0})
    state: dict | None = None
    velocity: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    moments: dict | None = None
    p_max: int = 4
    q_max: int = 4
    lam: float = 0.0

    def validate(self):
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {self.format!r}")
        for name in ("N", "S", "count", "p_max", "q_max", "seed"):
            v = getattr(self, name)
            least = 1 if name == "count" else 0  # a run checks at least one point
            if isinstance(v, bool) or not isinstance(v, int) or v < least:  # JSON true is 1
                kind = "a positive" if least else "a non-negative"
                raise ConfigError(f"{name} must be {kind} integer, got {v!r}")
        if not isinstance(self.family_params, dict):
            raise ConfigError(f"family_params must be an object, got {self.family_params!r}")
        if isinstance(self.lam, bool) or not isinstance(self.lam, (int, float)):
            raise ConfigError(f"lam must be a finite number, got {self.lam!r}")
        for name in ("point", "state", "lam", "velocity", "moments"):
            _require_finite(name, getattr(self, name))
        return self

    def equilibrium_point(self) -> EquilibriumPoint:
        try:
            values = [float(self.point.get(key, default))
                      for key, default in (("lam", 0.0), ("lam_ll", 1.0), ("lam_ppqq", 0.0))]
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid point record: {exc}") from exc
        return EquilibriumPoint(*values)  # outside the try: a DomainError exits 3

    def multiplier_state(self) -> MultiplierState:
        if self.state is None:
            pt = self.equilibrium_point()
            return MultiplierState.equilibrium(pt.lam, pt.lam_ll, pt.lam_ppqq)
        try:
            return MultiplierState.from_dict({"frame": "hatted", **self.state})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid state record: {exc}") from exc

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
            fam = data.pop("family")
            data["family"] = fam.get("kind", cfg.family)
            data.setdefault("family_params", fam.get("params", {}))
        for key, value in data.items():
            setattr(cfg, key, value)
    # flags win over config file
    if args.family is not None:
        cfg.family = args.family
    if args.n_trunc is not None:
        cfg.N = args.n_trunc
    if args.s_trunc is not None:
        cfg.S = args.s_trunc
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.format = args.format
    return cfg.validate()


def _emit(cfg: RunConfig, text: str):
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


_MOMENT_BLOCKS = [f.name for f in fields(MomentSet) if f.name != "frame"]
_MOMENT_SHAPES = {"m": (), "m_i": (3,), "m_ij": (3, 3), "m_ill": (3,), "m_iill": (),
                  "f_k": (3,), "f_ki": (3, 3), "f_kij": (3, 3, 3), "f_kill": (3, 3),
                  "f_kiill": (3,)}


def _moments_dict(m: MomentSet) -> dict:
    return {"frame": m.frame, **{k: np.asarray(getattr(m, k)).tolist() for k in _MOMENT_BLOCKS}}


def _moments_from_dict(d: dict) -> MomentSet:
    blocks = {}
    for k in _MOMENT_BLOCKS:
        try:
            block = np.array(d[k], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid moments record: {exc}") from exc
        if block.shape != _MOMENT_SHAPES[k] or not np.isfinite(block).all():
            raise ConfigError(
                f"moments.{k} must be finite with shape {_MOMENT_SHAPES[k]}, got {d[k]!r}"
            )
        blocks[k] = float(block) if block.ndim == 0 else block
    return MomentSet(frame=d.get("frame", "rest"), **blocks)


# --- commands ----------------------------------------------------------------


def cmd_coeffs(cfg: RunConfig) -> int:
    f = cfg.build_family()
    pt = cfg.equilibrium_point()
    rows = [  # keys in CSV_HEADER order
        {"p": p, "q": q, "S": cfg.S, "lambda": pt.lam, "lambda_ll": pt.lam_ll,
         "lambda_ppqq": pt.lam_ppqq, "value": coeffs.k_pq(f, p, q, pt, cfg.S)}
        for p in range(cfg.p_max + 1)
        for q in range(cfg.q_max + 1)
    ]
    if cfg.format == "csv":
        lines = [",".join(fmt17(v) for v in row.values()) for row in rows]
        _emit(cfg, "\n".join([CSV_HEADER, *lines]))
    else:
        _emit(cfg, dumps17({"command": "coeffs", **cfg.describe(), "rows": rows}))
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    f = cfg.build_family()
    state = cfg.multiplier_state()
    h = potentials.eval_h_hat(f, state, cfg.N, cfg.S)
    phi = potentials.eval_phi_hat(f, state, cfg.N, cfg.S)
    moments = potentials.moments_from_potentials(f, state, cfg.N, cfg.S)
    _emit(
        cfg,
        dumps17(
            {
                "command": "eval",
                **cfg.describe(),
                "state": state.to_dict(),
                "h": h,
                "phi": phi.tolist(),
                "moments": _moments_dict(moments),
            }
        ),
    )
    return EXIT_OK


def cmd_boost(cfg: RunConfig) -> int:
    v = BoostVelocity(np.array(cfg.velocity, dtype=float))
    f = cfg.build_family()  # also checks the family the output describes
    if cfg.moments is not None:
        rest = _moments_from_dict(cfg.moments)
    else:
        rest = potentials.moments_from_potentials(
            f, cfg.multiplier_state(), cfg.N, cfg.S
        )
    lab = potentials.lab_moments_from_rest(rest, v)
    _emit(
        cfg,
        dumps17(
            {
                "command": "boost",
                **cfg.describe(),
                "velocity": list(map(float, cfg.velocity)),
                "rest": _moments_dict(rest),
                "lab": _moments_dict(lab),
            }
        ),
    )
    return EXIT_OK


def _kernel_for(cfg: RunConfig):
    return kinetic.kernel_for(cfg.family, cfg.family_params)


def cmd_verify(cfg: RunConfig) -> int:
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
    _emit(cfg, report.to_json())
    if not report.all_passed:
        print(
            "failed conditions: " + ", ".join(report.failed_conditions()),
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_kinetic(cfg: RunConfig) -> int:
    f = cfg.build_family()
    kernel = _kernel_for(cfg)
    if kernel is None:
        raise ConfigError(
            f"family {cfg.family!r} has no built-in kernel for the kinetic comparison"
        )
    pts = verify.TestPointSet(seed=cfg.seed, count=cfg.count)
    report = verify.check_kinetic_equivalence(
        f,
        kernel,
        pts.scalar_points(with_ppqq=False)[: verify.VerifyConfig.kinetic_points],
        pq_total_max=min(cfg.p_max + cfg.q_max, 6),
        S=cfg.S,
    )
    max_dev = max(r["residual"] for r in report.records)
    _emit(
        cfg,
        dumps17(
            {
                "command": "kinetic",
                **cfg.describe(),
                "kernel": kernel.name,
                "max_relative_deviation": max_dev,
                "records": report.records,
            }
        ),
    )
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def cmd_subsystem(cfg: RunConfig) -> int:
    f = cfg.build_family()
    q_max = cfg.q_max - cfg.q_max % 2
    table = coeffs.reduce_to_13(f, q_max, cfg.lam)
    _emit(
        cfg,
        dumps17(
            {
                "command": "subsystem",
                **cfg.describe(),
                "lam": table.lam,
                "I_q": {f"I_{q}": v for q, v in sorted(table.values.items())},
                "c_q": table.c_q,
                "note": "c_q vanishes identically for the 13-moment reduction",
            }
        ),
    )
    return EXIT_OK


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "eval": cmd_eval,
    "boost": cmd_boost,
    "verify": cmd_verify,
    "kinetic": cmd_kinetic,
    "subsystem": cmd_subsystem,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closure14",
        description="14-moment closure: coefficient tables, potentials, "
        "boosts, verification, kinetic comparison, subsystem reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("coeffs", "write a coefficient table"),
        ("eval", "evaluate potentials and moments at a state"),
        ("boost", "boost a rest-frame moment set to the lab frame"),
        ("verify", "run the full verification suite"),
        ("kinetic", "compare coefficients against the quadrature oracle"),
        ("subsystem", "reduce to the 13-moment subsystem"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--family", help="generating family kind")
        p.add_argument("--n-trunc", type=int, help="tensor-order truncation N")
        p.add_argument("--s-trunc", type=int, help="series truncation S")
        p.add_argument("--seed", type=int, help="seed for test-point generation")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
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
        return _COMMANDS[args.command](cfg)
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
