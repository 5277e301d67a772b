"""Command-line front end: JSON job configs in, CSV/JSON artifacts out.

Eight subcommands cover special-function tabulation, the forward and
inverse series transforms, profile projection and synthesis, round-trip
verdicts, the identity audit suite, and kernel-table persistence.  Each
run is driven by a JSON config document validated against a per-command
schema; unknown keys are rejected so that typos fail loudly instead of
silently falling back to defaults.  Flags override config values.

File output is atomic (temp-file rename), and every file write is
accompanied by a ``<path>.manifest.json`` recording the resolved config,
tool version, quadrature settings, wall time, and a SHA-256 digest per
output file.  Re-running the command named in a manifest with the
embedded config reproduces the output bytes exactly.

Exit codes: 0 success (all checks passed), 1 a verdict or identity check
failed, 2 usage or config errors, 3 numerical failure, 4 precision
budget exceeded, 5 persistence errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
import warnings

import jsonschema
import numpy as np

from . import __version__
from .errors import (
    DiwtError,
    DomainError,
    InvalidDecayScale,
    InvalidInterval,
    OrderError,
    PersistenceError,
    PrecisionBudgetExceeded,
    UnknownCheckId,
)
from .kernels import KernelKind, KernelTable, build_kernel_table
from .oracles import CHECK_IDS, run_suite
from .quad import DEFAULT_SPEC, QuadSpec
from .specfun import (
    ComplexIndex,
    WhittakerOrder,
    _positive,
    bessel_k_imag,
    erfc,
    incomplete_bessel_j,
    parabolic_cylinder_d,
    whittaker_w_mb,
)
from .transforms import (
    CoefficientSeq,
    ForwardHandle,
    FourierPolynomial,
    ProfileHandle,
    SampledHandle,
    TransformParams,
    closed_form_coefficients,
    coefficient_transform_many,
    invert_many,
    synthesize_series,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_PRECISION = 4
EXIT_PERSISTENCE = 5

_CACHE_ENV_VAR = "DIWT_CACHE_DIR"


class _UsageError(Exception):
    """Bad invocation or config; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

_PRECISION_PROPS = {
    "precision": {"type": "string", "enum": ["double", "extended"]},
    "dps": {"type": "integer", "minimum": 15, "maximum": 120},
}

_NUMBERS = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_SAMPLES = {
    "type": "object",
    "additionalProperties": False,
    "required": ["x", "values"],
    "properties": {"x": _NUMBERS, "values": _NUMBERS},
}

_PSI = {
    "type": "object",
    "additionalProperties": False,
    "required": ["sine"],
    "properties": {
        "sine": {"type": "array", "items": {"type": "number"}},
        "cosine": {"type": "array", "items": {"type": "number"}},
    },
}

_N_RANGE = {
    "type": "array",
    "items": {"type": "integer", "minimum": 1},
    "minItems": 2,
    "maxItems": 2,
}

_SCHEMAS = {
    "eval": {
        "type": "object",
        "additionalProperties": False,
        "required": ["function", "points"],
        "properties": {
            "function": {"enum": ["W", "K", "K0", "D", "erfc", "J"]},
            "parameters": {"type": "object"},
            "points": _NUMBERS,
            **_PRECISION_PROPS,
        },
    },
    "forward": {
        "type": "object",
        "additionalProperties": False,
        "required": ["mu", "coefficients", "x_grid"],
        "properties": {
            "mu": {"type": "number"},
            "coefficients": _NUMBERS,
            "x_grid": _NUMBERS,
            **_PRECISION_PROPS,
        },
    },
    "invert": {
        "type": "object",
        "additionalProperties": False,
        "required": ["mu", "n_range"],
        "oneOf": [{"required": ["coefficients"]}, {"required": ["samples"]}],
        "properties": {
            "mu": {"type": "number"},
            "delta": {"type": "number"},
            "n_range": _N_RANGE,
            "coefficients": _NUMBERS,
            "samples": _SAMPLES,
            **_PRECISION_PROPS,
        },
    },
    "coeff": {
        "type": "object",
        "additionalProperties": False,
        "required": ["mu", "n_range"],
        "oneOf": [
            {"required": ["coefficients"]},
            {"required": ["samples"]},
            {"required": ["psi"]},
        ],
        "properties": {
            "mu": {"type": "number"},
            "n_range": _N_RANGE,
            "coefficients": _NUMBERS,
            "samples": _SAMPLES,
            "psi": _PSI,
            **_PRECISION_PROPS,
        },
    },
    "synthesize": {
        "type": "object",
        "additionalProperties": False,
        "required": ["mu", "coefficients", "x_grid"],
        "properties": {
            "mu": {"type": "number"},
            "coefficients": _NUMBERS,
            "x_grid": _NUMBERS,
            **_PRECISION_PROPS,
        },
    },
    "roundtrip": {
        "type": "object",
        "additionalProperties": False,
        "required": ["theorem", "mu"],
        "properties": {
            "theorem": {"enum": [1, 2]},
            "mu": {"type": "number"},
            "delta": {"type": "number"},
            "coefficients": {"type": "array", "items": {"type": "number"}},
            "psi": _PSI,
            "n_range": _N_RANGE,
            "x_grid": _NUMBERS,
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            **_PRECISION_PROPS,
        },
        "allOf": [
            {
                "if": {"properties": {"theorem": {"const": 1}}},
                "then": {"required": ["coefficients"]},
            },
            {
                "if": {"properties": {"theorem": {"const": 2}}},
                "then": {"required": ["psi"]},
            },
        ],
    },
    "identity": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "selection": {
                "oneOf": [
                    {"const": "all"},
                    {"type": "array", "items": {"type": "string"}},
                ]
            },
            "trials": {"type": "integer", "minimum": 0},
            "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
            **_PRECISION_PROPS,
        },
    },
    "kernel-table": {
        "type": "object",
        "additionalProperties": False,
        "required": ["action"],
        "properties": {
            "action": {"enum": ["build", "load"]},
            "kind": {"enum": [k.value for k in KernelKind]},
            "mu": {"type": "number"},
            "indices": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "oneOf": [
                        {"type": "number"},
                        {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    ]
                },
            },
            "x_grid": _NUMBERS,
            "path": {"type": "string"},
            **_PRECISION_PROPS,
        },
        "allOf": [
            {
                "if": {"properties": {"action": {"const": "build"}}},
                "then": {"required": ["kind", "mu", "indices", "x_grid"]},
            },
            {
                "if": {"properties": {"action": {"const": "load"}}},
                "then": {"required": ["path"]},
            },
        ],
    },
}

_EVAL_PARAM_SCHEMAS = {
    "W": {
        "type": "object",
        "additionalProperties": False,
        "required": ["mu", "tau"],
        "properties": {
            "mu": {"type": "number"},
            "tau": {"type": "number"},
            "scaled": {"type": "boolean"},
        },
    },
    "K": {
        "type": "object",
        "additionalProperties": False,
        "required": ["tau"],
        "properties": {"tau": {"type": "number"}},
    },
    "K0": {"type": "object", "additionalProperties": False, "properties": {}},
    "D": {
        "type": "object",
        "additionalProperties": False,
        "required": ["nu"],
        "properties": {"nu": {"type": "number", "exclusiveMaximum": 0}},
    },
    "erfc": {"type": "object", "additionalProperties": False, "properties": {}},
    "J": {
        "type": "object",
        "additionalProperties": False,
        "required": ["n"],
        "properties": {"n": {"type": "integer", "minimum": 1}},
    },
}


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _UsageError("config root must be a JSON object")
    return cfg


# One validator per schema, checked against its metaschema on first use
# (jsonschema.validate checks it on every call).  Keyed by id: a validator
# holds its schema, so no other object takes the id while the entry lives.
_VALIDATORS: dict = {}


def _validate(instance, schema, what: str) -> None:
    validator = _VALIDATORS.get(id(schema))
    if validator is None:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[id(schema)] = cls(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(instance))
    if error is not None:
        raise _UsageError(f"{what}: {error.message}") from error


def _merged_config(args, command: str) -> dict:
    """Config file plus flag overrides, schema-checked."""
    cfg = _load_config(args.config)
    if args.precision is not None:
        cfg["precision"] = args.precision
    if args.seed is not None:
        if command == "identity":
            cfg["seed"] = args.seed
        else:
            _note(args, "note: --seed only affects the identity suite; ignored")
    _validate(cfg, _SCHEMAS[command], f"config does not match the {command} schema")
    return cfg


def _quad_of(cfg: dict) -> QuadSpec:
    if cfg.get("precision", "double") == "extended":
        return QuadSpec(precision="extended", dps=int(cfg.get("dps", 30)))
    return DEFAULT_SPEC


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _note(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _g17(v) -> str:
    return f"{float(v):.17g}"


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(parent, f".{os.path.basename(path)}.tmp{os.getpid()}")
    try:
        os.makedirs(parent, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise PersistenceError(f"cannot write {path}: {exc}") from exc


def _deliver(args, command: str, cfg: dict, quad: QuadSpec, text: str,
             started: float, out_path: str | None = None) -> None:
    """Send the payload to a file (atomic, with manifest) or to stdout."""
    path = out_path if out_path is not None else args.out
    if path is None:
        sys.stdout.write(text)
        return
    _atomic_write(path, text)
    manifest = _json_doc({
        "command": command,
        "config": cfg,
        "outputs": {path: _sha256(text)},
        "quad": quad.as_dict(),
        "tool_version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    })
    _atomic_write(path + ".manifest.json", manifest)
    _note(args, f"wrote {path} ({len(text)} bytes)")


# ---------------------------------------------------------------------------
# shared config-to-object helpers
# ---------------------------------------------------------------------------

def _checked_range(pair) -> tuple[int, int]:
    lo, hi = int(pair[0]), int(pair[1])
    if lo > hi:
        raise _UsageError(f"n_range lower bound {lo} exceeds upper bound {hi}")
    return lo, hi


def _profile_from_config(psi: dict) -> FourierPolynomial:
    return FourierPolynomial(sine_coeffs=tuple(psi.get("sine", ())),
                             cosine_coeffs=tuple(psi.get("cosine", ())))


def _handle_from_config(cfg: dict):
    if "coefficients" in cfg:
        return ForwardHandle(CoefficientSeq(tuple(cfg["coefficients"])),
                             float(cfg["mu"]))
    if "samples" in cfg:
        s = cfg["samples"]
        return SampledHandle(s["x"], s["values"])
    return ProfileHandle(_profile_from_config(cfg["psi"]), float(cfg["mu"]))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL_INPUT_COLUMNS = {
    "W": ("mu", "tau", "x"),
    "K": ("tau", "x"),
    "K0": ("x",),
    "D": ("nu", "z"),
    "erfc": ("z",),
    "J": ("n", "x"),
}


def _eval_cells(fn: str, params: dict, point: float) -> tuple:
    if fn == "W":
        return (params["mu"], params["tau"], point)
    if fn == "K":
        return (params["tau"], point)
    if fn == "D":
        return (params["nu"], point)
    if fn == "J":
        return (params["n"], point)
    return (point,)


def _eval_value(fn: str, params: dict, point: float, quad: QuadSpec):
    """One table entry: (value, error estimate)."""
    quad_est = lambda v: 2.0 * max(quad.abs_tol, abs(v) * quad.rel_tol)
    if fn == "W":
        order = WhittakerOrder(float(params["mu"]), float(params["tau"]))
        v = whittaker_w_mb(order, point, quad=quad,
                           scaled=bool(params.get("scaled", False)))
        return v, quad_est(v)
    if fn == "K":
        v = bessel_k_imag(float(params["tau"]), point, quad)
        return v, quad_est(v)
    if fn == "K0":
        v = bessel_k_imag(0.0, point, quad)
        return v, quad_est(v)
    if fn == "D":
        v = parabolic_cylinder_d(float(params["nu"]), point, quad)
        # series/quadrature hybrid; test_cylinder_scaled_accuracy_grid
        # (tests/test_specfun.py) measures it against mpmath below 1e-13
        return v, max(abs(v) * 1e-13, 5e-324)
    if fn == "erfc":
        v = erfc(point)
        # delegated to a vetted library routine: correct to a few ulp
        return v, max(4.0 * float(np.spacing(abs(v))), 5e-324)
    v = incomplete_bessel_j(point, int(params["n"]), quad)
    return v, quad_est(v)


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "eval")
    fn = cfg["function"]
    params = cfg.get("parameters", {})
    _validate(params, _EVAL_PARAM_SCHEMAS[fn], f"parameters for {fn} are invalid")
    quad = _quad_of(cfg)

    header = [*_EVAL_INPUT_COLUMNS[fn], "value", "error_estimate", "status"]
    rows = []
    failed = False
    for p in cfg["points"]:
        cells = [_g17(c) for c in _eval_cells(fn, params, float(p))]
        try:
            v, est = _eval_value(fn, params, float(p), quad)
            rows.append(cells + [_g17(v), _g17(est), "ok"])
        except DiwtError as exc:
            failed = True
            rows.append(cells + ["nan", "inf", "failed"])
            _note(args, f"point {p}: {type(exc).__name__}: {exc}")
    _deliver(args, "eval", cfg, quad, _csv(header, rows), started)
    return EXIT_NUMERICAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# transform commands
# ---------------------------------------------------------------------------

def _cmd_forward(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "forward")
    quad = _quad_of(cfg)
    seq = CoefficientSeq(tuple(cfg["coefficients"]))
    # forward_series' check of each x, then one array call over the grid
    xs = [_positive(x, "forward_series") for x in cfg["x_grid"]]
    values = ForwardHandle(seq, float(cfg["mu"]))(np.array(xs), quad)
    rows = [[_g17(x), _g17(v)] for x, v in zip(cfg["x_grid"], values.tolist())]
    _deliver(args, "forward", cfg, quad, _csv(["x", "value"], rows), started)
    return EXIT_OK


def _cmd_invert(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "invert")
    quad = _quad_of(cfg)
    f = _handle_from_config(cfg)
    params = TransformParams(float(cfg["mu"]), float(cfg.get("delta", 0.0)))
    lo, hi = _checked_range(cfg["n_range"])
    ns = range(lo, hi + 1)
    rows = [[str(n), _g17(r.value), _g17(r.error_bound)]
            for n, r in zip(ns, invert_many(f, params, ns, quad))]
    _deliver(args, "invert", cfg, quad,
             _csv(["n", "value", "error_bound"], rows), started)
    return EXIT_OK


def _cmd_coeff(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "coeff")
    quad = _quad_of(cfg)
    f = _handle_from_config(cfg)
    lo, hi = _checked_range(cfg["n_range"])
    ns = range(lo, hi + 1)
    rows = [[str(n), _g17(v)]
            for n, v in zip(ns, coefficient_transform_many(f, float(cfg["mu"]), ns, quad))]
    _deliver(args, "coeff", cfg, quad, _csv(["n", "value"], rows), started)
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "synthesize")
    quad = _quad_of(cfg)
    seq = CoefficientSeq(tuple(cfg["coefficients"]))
    rows = [[_g17(x),
             _g17(synthesize_series(seq, float(cfg["mu"]), float(x), quad).value)]
            for x in cfg["x_grid"]]
    _deliver(args, "synthesize", cfg, quad, _csv(["x", "value"], rows), started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def _roundtrip_theorem1(cfg: dict, quad: QuadSpec) -> dict:
    coeffs = [float(c) for c in cfg["coefficients"]]
    tol = float(cfg.get("tolerance", 1e-3))
    rows = []
    if coeffs:
        mu = float(cfg["mu"])
        seq = CoefficientSeq(tuple(coeffs))
        f = ForwardHandle(seq, mu)
        params = TransformParams(mu, float(cfg.get("delta", 0.0)))
        lo, hi = _checked_range(cfg.get("n_range", [1, len(coeffs)]))
        ns = range(lo, hi + 1)
        for n, r in zip(ns, invert_many(f, params, ns, quad)):
            target = coeffs[n - 1] if n <= len(coeffs) else 0.0
            err = abs(r.value - target)
            rows.append({
                "n": n,
                "input": target,
                "output": r.value,
                "error": err,
                "bound": r.error_bound,
                "pass": err <= max(tol, r.error_bound),
            })
    return {"theorem": 1, "rows": rows,
            "overall_pass": all(r["pass"] for r in rows)}


def _roundtrip_theorem2(cfg: dict, quad: QuadSpec) -> dict:
    profile = _profile_from_config(cfg["psi"])
    mu = float(cfg["mu"])
    tol = float(cfg.get("tolerance", 1e-4))
    xs = [float(x) for x in cfg.get("x_grid", (0.5, 1.0, 2.0, 5.0, 10.0))]
    coeffs = tuple(closed_form_coefficients(profile, mu, n)
                   for n in range(1, profile.degree + 1))
    seq = CoefficientSeq(coeffs) if any(coeffs) else None
    wants = ProfileHandle(profile, mu)(np.array(xs), quad).tolist()
    rows = []
    for x, want in zip(xs, wants):
        got = synthesize_series(seq, mu, x, quad).value if seq else 0.0
        err = abs(got - want)
        if want != 0.0:
            rel = err / abs(want)
            # the coefficients are doubles, so agreement below double
            # roundoff is not certified even where the two sides coincide
            ok = max(rel, sys.float_info.epsilon) <= tol
        else:
            rel = 0.0 if err == 0.0 else math.inf
            ok = err <= tol
        rows.append({"x": x, "profile": want, "synthesis": got,
                     "rel_error": rel, "pass": ok})
    return {"theorem": 2, "rows": rows,
            "overall_pass": all(r["pass"] for r in rows)}


def _cmd_roundtrip(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "roundtrip")
    quad = _quad_of(cfg)
    if cfg["theorem"] == 1:
        doc = _roundtrip_theorem1(cfg, quad)
    else:
        doc = _roundtrip_theorem2(cfg, quad)
    _deliver(args, "roundtrip", cfg, quad, _json_doc(doc), started)
    return EXIT_OK if doc["overall_pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def _cmd_identity(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "identity")
    quad = _quad_of(cfg)
    selection = cfg.get("selection", "all")
    if selection == "all":
        selection = list(CHECK_IDS)
    reports = run_suite(selection, trials=int(cfg.get("trials", 1)),
                        seed=int(cfg.get("seed", 0)), quad=quad)
    docs = [r.to_json_dict() for r in reports]
    _deliver(args, "identity", cfg, quad, _json_doc(docs), started)
    return EXIT_OK if all(d["pass"] for d in docs) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# kernel-table persistence
# ---------------------------------------------------------------------------

_TABLE_SIGNATURE = "# diwt-kernel-table"
_TABLE_COLUMNS = "index_re,index_im,x,value_re,value_im,error,status"


def serialize_kernel_table(table: KernelTable) -> str:
    """Decimal-text table: '#' preamble, then one row per (index, x) entry.

    17 significant digits everywhere, so parse + re-serialize is the
    identity on the bytes.
    """
    q = {**DEFAULT_SPEC.as_dict(), **table.meta.get("quad", {})}
    failed = {(i, j) for i, j, _ in table.failures}
    lines = [
        f"{_TABLE_SIGNATURE} {table.meta.get('tool_version', __version__)}",
        f"# kind: {table.kind.value}",
        f"# mu: {_g17(table.mu)}",
        f"# quad: abs_tol={_g17(q['abs_tol'])} rel_tol={_g17(q['rel_tol'])}"
        f" max_refinements={int(q['max_refinements'])}"
        f" max_evals={int(q['max_evals'])}"
        f" precision={q['precision']} dps={int(q['dps'])}",
        _TABLE_COLUMNS,
    ]
    for i, idx in enumerate(table.indices):
        for j, x in enumerate(table.grid):
            v = complex(table.values[i][j])
            lines.append(",".join([
                _g17(idx.re), _g17(idx.im), _g17(x),
                _g17(v.real), _g17(v.imag),
                _g17(table.achieved_tolerances[i][j]),
                "failed" if (i, j) in failed else "ok",
            ]))
    return "\n".join(lines) + "\n"


def parse_kernel_table(raw: str) -> KernelTable:
    """Strict inverse of serialize_kernel_table; anything off is corrupt."""
    lines = raw.splitlines()
    if len(lines) < 6:
        raise PersistenceError("kernel table file is truncated")

    m = re.fullmatch(re.escape(_TABLE_SIGNATURE) + r" (\S+)", lines[0])
    if m is None:
        raise PersistenceError("missing kernel-table signature line")
    version = m.group(1)
    if version != __version__:
        raise PersistenceError(
            f"kernel table written by version {version}; this tool is {__version__}")

    m = re.fullmatch(r"# kind: (\S+)", lines[1])
    try:
        kind = KernelKind(m.group(1)) if m else None
    except ValueError:
        kind = None
    if kind is None:
        raise PersistenceError("unknown or missing kernel kind in preamble")

    m = re.fullmatch(r"# mu: (\S+)", lines[2])
    try:
        mu = float(m.group(1)) if m else math.nan
    except ValueError:
        mu = math.nan
    if not math.isfinite(mu):
        raise PersistenceError("missing or non-numeric mu in preamble")

    m = re.fullmatch(
        r"# quad: abs_tol=(\S+) rel_tol=(\S+) max_refinements=(\d+)"
        r" max_evals=(\d+) precision=(double|extended) dps=(\d+)",
        lines[3])
    if m is None:
        raise PersistenceError("missing or malformed quad line in preamble")
    try:
        quad = {
            "abs_tol": float(m.group(1)),
            "rel_tol": float(m.group(2)),
            "max_refinements": int(m.group(3)),
            "max_evals": int(m.group(4)),
            "precision": m.group(5),
            "dps": int(m.group(6)),
        }
    except ValueError as exc:
        raise PersistenceError(f"malformed quad line: {exc}") from exc

    if lines[4] != _TABLE_COLUMNS:
        raise PersistenceError("unexpected column header in kernel table")

    indices: list[ComplexIndex] = []
    grid: list[float] = []
    values: list[list] = []
    tols: list[list[float]] = []
    failures: list[tuple] = []
    for ln, line in enumerate(lines[5:], start=6):
        cells = line.split(",")
        if len(cells) != 7:
            raise PersistenceError(f"line {ln}: expected 7 fields, got {len(cells)}")
        status = cells[6]
        if status not in ("ok", "failed"):
            raise PersistenceError(f"line {ln}: unknown status {status!r}")
        try:
            ire, iim, x, vre, vim, err = (float(c) for c in cells[:6])
        except ValueError as exc:
            raise PersistenceError(f"line {ln}: non-numeric field: {exc}") from exc

        if not indices or (ire, iim) != (indices[-1].re, indices[-1].im):
            indices.append(ComplexIndex(ire, iim))
            values.append([])
            tols.append([])
        i = len(indices) - 1
        j = len(values[i])
        if i == 0:
            grid.append(x)
        elif j >= len(grid) or x != grid[j]:
            raise PersistenceError(f"line {ln}: grid is not a consistent product")

        if status == "failed":
            failures.append((i, j, "recorded during build; message not persisted"))
            values[i].append(float("nan"))
        elif kind is KernelKind.CYLINDER_COS and iim != 0.0:
            values[i].append(complex(vre, vim))
        elif vim != 0.0:
            raise PersistenceError(
                f"line {ln}: real-valued kernel with nonzero imaginary part")
        else:
            values[i].append(vre)
        tols[i].append(err)

    try:
        return KernelTable(
            kind=kind,
            mu=mu,
            indices=tuple(indices),
            grid=tuple(grid),
            values=tuple(tuple(row) for row in values),
            achieved_tolerances=tuple(tuple(row) for row in tols),
            failures=tuple(failures),
            meta={"tool_version": version, "quad": quad},
        )
    except DiwtError as exc:
        raise PersistenceError(f"kernel table fails validation: {exc}") from exc


def load_kernel_table(path: str) -> KernelTable:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read kernel table {path}: {exc}") from exc
    return parse_kernel_table(raw)


def _default_table_path(cfg: dict) -> str:
    base = os.environ.get(_CACHE_ENV_VAR) \
        or os.path.join(os.path.expanduser("~"), ".cache", "diwt")
    keys = ("kind", "mu", "indices", "x_grid", "precision", "dps")
    key = json.dumps({k: cfg[k] for k in keys if k in cfg}, sort_keys=True)
    return os.path.join(base, f"{cfg['kind']}-{_sha256(key)[:12]}.csv")


def _index_from_config(v) -> ComplexIndex:
    if isinstance(v, (int, float)):
        return ComplexIndex(float(v), 0.0)
    return ComplexIndex(float(v[0]), float(v[1]))


def _cmd_kernel_table(args) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args, "kernel-table")
    quad = _quad_of(cfg)

    if cfg["action"] == "load":
        table = load_kernel_table(cfg["path"])
        _deliver(args, "kernel-table", cfg, quad,
                 serialize_kernel_table(table), started)
        return EXIT_OK

    table = build_kernel_table(
        KernelKind(cfg["kind"]), float(cfg["mu"]),
        [_index_from_config(v) for v in cfg["indices"]],
        [float(x) for x in cfg["x_grid"]], quad)
    path = args.out or cfg.get("path") or _default_table_path(cfg)
    _deliver(args, "kernel-table", cfg, quad,
             serialize_kernel_table(table), started, out_path=path)
    for i, j, msg in table.failures:
        _note(args, f"entry (index {table.indices[i]}, x={table.grid[j]}) "
                    f"failed: {msg}")
    return EXIT_NUMERICAL if table.failures else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "eval": _cmd_eval,
    "forward": _cmd_forward,
    "invert": _cmd_invert,
    "coeff": _cmd_coeff,
    "synthesize": _cmd_synthesize,
    "roundtrip": _cmd_roundtrip,
    "identity": _cmd_identity,
    "kernel-table": _cmd_kernel_table,
}

_COMMAND_HELP = {
    "eval": "tabulate one special function over a set of points",
    "forward": "weighted series f(x) from a coefficient sequence",
    "invert": "recover series coefficients from a function",
    "coeff": "coefficient transform of a function or trigonometric profile",
    "synthesize": "sine-kernel synthesis partial sum on an x grid",
    "roundtrip": "transform/inverse consistency verdict",
    "identity": "run the seeded identity audit suite",
    "kernel-table": "build or load a persisted kernel value table",
}


# built once per process: parse_args leaves the parser as it was
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diwt",
        description="Index Whittaker series transforms: evaluation, inversion,"
                    " synthesis, and identity audits.",
    )
    parser.add_argument("--version", action="version",
                        version=f"diwt {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the JSON job config")
    common.add_argument("--out", help="output file; omit to print to stdout")
    common.add_argument("--precision", choices=("double", "extended"),
                        help="override the config precision mode")
    common.add_argument("--seed", type=int,
                        help="64-bit seed for identity-suite draws")
    common.add_argument("--quiet", action="store_true",
                        help="suppress notes and warnings")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, blurb in _COMMAND_HELP.items():
        sub.add_parser(name, parents=[common], help=blurb, description=blurb)
    return parser


def _exit_code_for(exc: DiwtError) -> int:
    if isinstance(exc, PrecisionBudgetExceeded):
        return EXIT_PRECISION
    if isinstance(exc, PersistenceError):
        return EXIT_PERSISTENCE
    if isinstance(exc, (DomainError, OrderError, InvalidInterval,
                        InvalidDecayScale, UnknownCheckId)):
        return EXIT_USAGE
    return EXIT_NUMERICAL


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help/--version
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return EXIT_USAGE
    try:
        with warnings.catch_warnings():
            if args.quiet:
                warnings.simplefilter("ignore")
            return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiwtError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PERSISTENCE


if __name__ == "__main__":
    sys.exit(main())
