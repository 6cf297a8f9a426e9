"""Batch front end: validate a JSON run config, dispatch, emit summaries.

Subcommands
    predict            closed-form transfer matrix at a single h
    solve-model        numeric vs predicted transfer for the reduced model
    solve-schrodinger  numeric vs predicted transfer for the coupled pair
    sweep              transfer matrices over an h grid, CSV + power-law fits
    verify             sweep plus pass/fail checks on exponents and prefactors

Exit codes: 0 success (all checks passed), 1 a verify check failed,
2 configuration error, 3 numerical failure.

The config file is JSON with a strict schema: unknown keys are rejected
with the full key path. CSV output is byte deterministic for a fixed
config. Set CROSSING_KIT_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import sweep as sweep_mod
from .errors import CrossingKitError, SchemaError, ValidationError
from .normalform import NormalFormProblem, model_corpus
from .profiles import Bump, Poly1
from .schrodinger import SchrodingerProblem, schrodinger_corpus
from .transfer import Problem, TransferMatrix

# Not called here: perfbench/tracer.py wraps these two attributes of this
# module by name, so they must stay importable from it.
from .normalform import predict_transfer  # noqa: F401
from .schrodinger import predict_transfer_case_i  # noqa: F401

log = logging.getLogger("crossing_kit.cli")

MODES = ("predict", "solve-model", "solve-schrodinger", "sweep", "verify")
KINDS = ("model", "schrodinger", "model-corpus", "schrodinger-corpus", "random-model")
# the single-solve modes that only one problem family can run
_SOLVE_FAMILY = {"solve-model": "model", "solve-schrodinger": "schrodinger"}

# keys accepted at the top level, per mode
_COMMON_KEYS = {"mode", "problem", "seed", "output"}
_MODE_KEYS = {
    "predict": _COMMON_KEYS | {"h", "branch"},
    "solve-model": _COMMON_KEYS | {"h"},
    "solve-schrodinger": _COMMON_KEYS | {"h", "branch"},
    "sweep": _COMMON_KEYS | {"h_grid"},
    "verify": _COMMON_KEYS | {"h_grid", "tolerances"},
}

# default verify grids, one per family (both extracted by the march); the
# model's starts at h = 1e-3, below which the corpus fits are asymptotic.
# Changing them changes every default verify CSV
_DEFAULT_GRIDS = {
    "model": (1e-3, 1e-5, 12),
    "schrodinger": (1e-2, 1e-4, 8),
}
_DEFAULT_TOLERANCES = {"exponent": 0.05, "prefactor": 0.10}
# largest m (model kinds) or n (schrodinger): the contact order, at most 2n,
# stays far below 170, where m! in the stationary prefactor overflows a float.
# A coefficient list has at most MAX_ORDER + 1 entries: root finding and
# bracket algebra grow with the degree
MAX_ORDER = 64


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, ready to dispatch."""

    mode: str
    problem: Problem
    h_values: tuple[float, ...] | None
    branch: int
    tolerances: dict
    csv_path: str | None
    summary_path: str | None


def _type_name(node) -> str:
    return {
        dict: "object",
        list: "array",
        str: "string",
        bool: "boolean",
        type(None): "null",
    }.get(type(node), type(node).__name__)


def _expect_object(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(path, f"expected an object, got {_type_name(node)}")
    return node


def _expect_number(node, path: str, positive: bool = False) -> float:
    # bool is an int subclass and must not pass as a number
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise SchemaError(path, f"expected a number, got {_type_name(node)}")
    try:
        value = float(node)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(path, "must be finite")
    if positive and value <= 0.0:
        raise SchemaError(path, "must be positive")
    return value


def _expect_int(
    node, path: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise SchemaError(path, f"expected an integer, got {_type_name(node)}")
    if minimum is not None and node < minimum:
        raise SchemaError(path, f"must be at least {minimum}")
    if maximum is not None and node > maximum:
        raise SchemaError(path, f"must be at most {maximum}")
    return node


def _expect_string(node, path: str, choices=None) -> str:
    if not isinstance(node, str):
        raise SchemaError(path, f"expected a string, got {_type_name(node)}")
    if "\0" in node:  # no file name can hold one
        raise SchemaError(path, "must not contain a NUL character")
    if choices is not None and node not in choices:
        raise SchemaError(path, f"must be one of {', '.join(choices)}")
    return node


def _expect_number_list(
    node, path: str, length: int | None = None, most: int | None = None
) -> list[float]:
    if not isinstance(node, list):
        raise SchemaError(path, f"expected an array, got {_type_name(node)}")
    if length is not None and len(node) != length:
        raise SchemaError(path, f"expected exactly {length} entries")
    if most is not None and len(node) > most:
        raise SchemaError(path, f"must have at most {most} entries")
    return [_expect_number(v, f"{path}[{k}]") for k, v in enumerate(node)]


def _reject_unknown(obj: dict, path: str, allowed) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise SchemaError(
                where, f"unknown key; allowed: {', '.join(sorted(allowed))}"
            )


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        where = f"{path}.{key}" if path else key
        raise SchemaError(where, "required key is missing")
    return obj[key]


def _build_bump(node, path: str) -> Bump:
    obj = _expect_object(node, path)
    _reject_unknown(obj, path, {"width", "amplitude", "center"})
    width = _expect_number(_require(obj, "width", path), f"{path}.width", positive=True)
    amplitude = _expect_number(obj.get("amplitude", 1.0), f"{path}.amplitude")
    center = _expect_number(obj.get("center", 0.0), f"{path}.center")
    return Bump(width=width, amplitude=amplitude, center=center)


def _random_model_problem(m: int, h: float, seed: int) -> NormalFormProblem:
    """Draw an admissible model problem; identical seed, identical problem."""
    rng = np.random.default_rng(seed)
    width = float(rng.uniform(0.5, 1.0))
    amp1 = float(rng.uniform(0.3, 1.2))
    amp2 = float(rng.uniform(0.3, 1.2))
    lead = float(rng.uniform(0.5, 2.0))
    coeffs = (0.0,) * m + (lead,)
    return NormalFormProblem(
        f=Poly1(coeffs),
        r1=Bump(width=width, amplitude=amp1),
        r2=Bump(width=width, amplitude=amp2),
        x0=-1.5,
        x1=1.5,
        h=h,
        m=m,
    )


def _build_problem(node, path: str, h: float, seed: int):
    obj = _expect_object(node, path)
    kind = _expect_string(_require(obj, "kind", path), f"{path}.kind", choices=KINDS)
    try:
        if kind == "model":
            _reject_unknown(
                obj, path, {"kind", "m", "f_coeffs", "coupling", "coupling2", "interval"}
            )
            m = _expect_int(
                _require(obj, "m", path), f"{path}.m", minimum=1, maximum=MAX_ORDER
            )
            coeffs = _expect_number_list(
                _require(obj, "f_coeffs", path), f"{path}.f_coeffs", most=MAX_ORDER + 1
            )
            r1 = _build_bump(_require(obj, "coupling", path), f"{path}.coupling")
            r2 = (
                _build_bump(obj["coupling2"], f"{path}.coupling2")
                if "coupling2" in obj
                else r1
            )
            lo, hi = _expect_number_list(
                _require(obj, "interval", path), f"{path}.interval", length=2
            )
            return NormalFormProblem(
                f=Poly1(tuple(coeffs)), r1=r1, r2=r2, x0=lo, x1=hi, h=h, m=m
            )
        if kind == "schrodinger":
            _reject_unknown(
                obj,
                path,
                {"kind", "n", "v1_coeffs", "v2_coeffs", "e0", "coupling", "interval"},
            )
            n = _expect_int(
                _require(obj, "n", path), f"{path}.n", minimum=1, maximum=MAX_ORDER
            )
            v1, v2 = (
                _expect_number_list(
                    _require(obj, key, path), f"{path}.{key}", most=MAX_ORDER + 1
                )
                for key in ("v1_coeffs", "v2_coeffs")
            )
            e0 = _expect_number(_require(obj, "e0", path), f"{path}.e0")
            w = _build_bump(_require(obj, "coupling", path), f"{path}.coupling")
            lo, hi = _expect_number_list(
                _require(obj, "interval", path), f"{path}.interval", length=2
            )
            return SchrodingerProblem(
                v1=Poly1(tuple(v1)),
                v2=Poly1(tuple(v2)),
                w=w,
                e0=e0,
                n=n,
                h=h,
                x_in=lo,
                x_out=hi,
            )
        if kind in ("model-corpus", "schrodinger-corpus"):
            _reject_unknown(obj, path, {"kind", "index"})
            corpus = model_corpus if kind == "model-corpus" else schrodinger_corpus
            problems = corpus(h)
            index = _expect_int(_require(obj, "index", path), f"{path}.index", minimum=0)
            if index >= len(problems):
                raise SchemaError(
                    f"{path}.index", f"must be below {len(problems)}"
                )
            return problems[index]
        # random-model: seeded draw, used for randomized property runs
        _reject_unknown(obj, path, {"kind", "m"})
        m = _expect_int(
            _require(obj, "m", path), f"{path}.m", minimum=1, maximum=MAX_ORDER
        )
        return _random_model_problem(m, h, seed)
    except ValidationError as exc:
        raise SchemaError(path, str(exc)) from exc


def _build_grid(node, path: str) -> tuple[float, ...]:
    obj = _expect_object(node, path)
    if "values" in obj:
        _reject_unknown(obj, path, {"values"})
        values = _expect_number_list(obj["values"], f"{path}.values")
    else:
        _reject_unknown(obj, path, {"start", "stop", "count"})
        start = _expect_number(_require(obj, "start", path), f"{path}.start", positive=True)
        stop = _expect_number(_require(obj, "stop", path), f"{path}.stop", positive=True)
        # bounded before the grid array is built
        count = _expect_int(
            _require(obj, "count", path),
            f"{path}.count",
            minimum=4,
            maximum=sweep_mod.MAX_GRID_POINTS,
        )
        values = np.geomspace(start, stop, count)
    try:
        return sweep_mod.check_grid(values)
    except ValidationError as exc:
        raise SchemaError(path, str(exc)) from exc


def _build_tolerances(node, path: str) -> dict:
    obj = _expect_object(node, path)
    _reject_unknown(obj, path, set(_DEFAULT_TOLERANCES))
    out = dict(_DEFAULT_TOLERANCES)
    for key in obj:
        out[key] = _expect_number(obj[key], f"{path}.{key}", positive=True)
    return out


def parse_config(
    path,
    mode: str | None = None,
    seed: int | None = None,
    out: str | None = None,
) -> RunConfig:
    """Load and validate a JSON run config.

    The optional arguments carry command-line overrides: the subcommand
    fixes the mode, and --seed/--out take precedence over the file.
    Raises SchemaError naming the offending key path, also for a file that
    is not UTF-8 or nests too deeply to parse; lets OSError from the file
    read propagate to the caller.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are both ValueErrors
            raise SchemaError("", f"invalid JSON: {exc}") from exc
    obj = _expect_object(raw, "")

    file_mode = None
    if "mode" in obj:
        file_mode = _expect_string(obj["mode"], "mode", choices=MODES)
    if mode is None:
        mode = file_mode
    elif file_mode is not None and file_mode != mode:
        raise SchemaError(
            "mode", f"config says {file_mode!r} but the subcommand is {mode!r}"
        )
    if mode is None:
        raise SchemaError("mode", "required key is missing")

    _reject_unknown(obj, "", _MODE_KEYS[mode])

    if seed is None:
        seed = obj.get("seed", 0)
    seed = _expect_int(seed, "seed", minimum=0)

    single_h = mode in ("predict", "solve-model", "solve-schrodinger")
    h_values = None
    if single_h:
        h = _expect_number(_require(obj, "h", ""), "h", positive=True)
    elif "h_grid" in obj:
        h_values = _build_grid(obj["h_grid"], "h_grid")

    problem_node = _expect_object(_require(obj, "problem", ""), "problem")
    kind = _expect_string(
        _require(problem_node, "kind", "problem"), "problem.kind", choices=KINDS
    )
    family = "schrodinger" if kind.startswith("schrodinger") else "model"
    needed = _SOLVE_FAMILY.get(mode)
    if needed is not None and needed != family:
        raise SchemaError("problem.kind", f"{mode} needs a {needed} problem, got {kind!r}")
    # defaults for verify depend on the problem family
    if h_values is None and not single_h:
        if mode == "sweep":
            raise SchemaError("h_grid", "required key is missing")
        start, stop, count = _DEFAULT_GRIDS[family]
        h_values = tuple(float(v) for v in np.geomspace(start, stop, count))

    problem = _build_problem(
        problem_node, "problem", h if single_h else max(h_values), seed
    )

    if family == "schrodinger" and problem.case == "ii" and mode != "predict":
        raise SchemaError(
            "problem.e0",
            "zero-energy problems have no oscillatory solver; "
            "only predict supports them",
        )

    branch = 1
    if "branch" in obj:
        if family != "schrodinger":
            raise SchemaError("branch", "only meaningful for schrodinger problems")
        branch = _expect_int(obj["branch"], "branch")
        if branch not in (1, -1):
            raise SchemaError("branch", "must be 1 or -1")

    tolerances = dict(_DEFAULT_TOLERANCES)
    if "tolerances" in obj:
        tolerances = _build_tolerances(obj["tolerances"], "tolerances")

    csv_path = None
    summary_path = None
    if "output" in obj:
        out_obj = _expect_object(obj["output"], "output")
        allowed = {"csv", "summary"} if not single_h else {"summary"}
        _reject_unknown(out_obj, "output", allowed)
        if "csv" in out_obj:
            csv_path = _expect_string(out_obj["csv"], "output.csv")
        if "summary" in out_obj:
            summary_path = _expect_string(out_obj["summary"], "output.summary")
    if not single_h and csv_path is None:
        csv_path = "sweep.csv"
    # --out names the primary artifact: the CSV for grid modes, the JSON
    # summary for single-h modes
    if out is not None:
        if single_h:
            summary_path = out
        else:
            csv_path = out

    return RunConfig(
        mode=mode,
        problem=problem,
        h_values=h_values,
        branch=branch,
        tolerances=tolerances,
        csv_path=csv_path,
        summary_path=summary_path,
    )


def _matrix_payload(t: TransferMatrix) -> dict:
    return {name: [z.real, z.imag] for name, z in t.named().items()}


def _print_matrix(label: str, t: TransferMatrix) -> None:
    print(f"{label}:")
    for name, z in t.named().items():
        print(f"  {name} = {z.real:+.12e} {z.imag:+.12e}j")


def _write_summary(config: RunConfig, payload: dict) -> None:
    if config.summary_path is None:
        return
    with open(config.summary_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote summary to %s", config.summary_path)


def _run_predict(config: RunConfig) -> int:
    t = config.problem.predict(config.branch)
    print(f"predict  h={config.problem.h:.6e}  branch={config.branch}")
    _print_matrix("predicted", t)
    summary = {"mode": "predict", "h": config.problem.h, "branch": config.branch}
    _write_summary(config, {**summary, "entries": _matrix_payload(t)})
    return 0


def _run_single_solve(config: RunConfig) -> int:
    prob = config.problem
    predicted = prob.predict(config.branch)
    extracted = prob.extract(config.branch)
    errors = extracted.entrywise_abs_diff(predicted)
    print(f"{config.mode}  h={prob.h:.6e}  branch={config.branch}")
    _print_matrix("extracted", extracted)
    _print_matrix("predicted", predicted)
    print(f"max abs error: {extracted.max_abs_diff(predicted):.6e}")
    _write_summary(
        config,
        {
            "mode": config.mode,
            "h": prob.h,
            "branch": config.branch,
            "extracted": _matrix_payload(extracted),
            "predicted": _matrix_payload(predicted),
            "abs_errors": dict(zip(TransferMatrix.ENTRIES, map(float, errors.flat))),
            "max_abs_error": float(extracted.max_abs_diff(predicted)),
        },
    )
    return 0


def _run_grid(config: RunConfig) -> int:
    prob = config.problem
    report = sweep_mod.run_sweep(prob, config.h_values)
    sweep_mod.write_csv(report, config.csv_path)
    log.info("wrote %d rows to %s", len(report.rows), config.csv_path)

    n_ok = len(report.ok_rows())
    print(
        f"{config.mode}  h={max(config.h_values):.3e} .. {min(config.h_values):.3e}"
        f"  rows={len(report.rows)} ok={n_ok}  csv={config.csv_path}"
    )
    for row in report.rows:
        if row.status != "ok":
            print(f"  h={row.h:.6e}  {row.status}  {row.detail}")
    # too few usable rows to fit is a numerical failure of the sweep: its
    # rows, failed ones with their detail, are written all the same
    try:
        sweep_mod.attach_fits(report, prob.order)
        failure = "" if n_ok else "no usable rows"
    except CrossingKitError as exc:
        report.fits.clear()
        failure = f"{n_ok} usable rows: {exc}"
    for q, f in report.fits.items():
        tag = " (log envelope)" if f.with_log else ""
        print(
            f"  fit {q}: exponent={f.exponent:.4f} amplitude={f.amplitude:.6e}"
            f" rms={f.residual_rms:.2e}{tag}"
        )

    summary = {
        "mode": config.mode,
        "rows": len(report.rows),
        "ok_rows": n_ok,
        "csv": config.csv_path,
        "fits": {q: dataclasses.asdict(f) for q, f in report.fits.items()},
        "failed_rows": [
            {"h": r.h, "status": r.status, "detail": r.detail}
            for r in report.rows
            if r.status != "ok"
        ],
    }

    if failure:
        _write_summary(config, summary)
        print(f"result: NUMERICAL FAILURE ({failure})")
        return 3

    if config.mode == "sweep":
        _write_summary(config, summary)
        return 0

    # verify: the problem was built at the largest h, where the prediction
    # is the reference
    passed = sweep_mod.verify(
        report, prob.predict(config.branch), prob.order, config.tolerances
    )
    for key in sorted(report.verdicts):
        v = report.verdicts[key]
        print(
            f"  {v.quantity} {v.kind}: observed={v.observed:.6f}"
            f" expected={v.expected:.6f} tol={v.tolerance:.3g}"
            f"  {'PASS' if v.passed else 'FAIL'}"
        )
    n_pass = sum(v.passed for v in report.verdicts.values())
    reason = "" if report.verdicts else ": no off-diagonal entry has signal to check"
    print(
        f"result: {'PASS' if passed else 'FAIL'}"
        f" ({n_pass}/{len(report.verdicts)} checks{reason})"
    )

    summary["verdicts"] = {k: dataclasses.asdict(v) for k, v in report.verdicts.items()}
    summary["passed"] = passed
    _write_summary(config, summary)
    return 0 if passed else 1


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    try:
        if config.mode == "predict":
            return _run_predict(config)
        if config.mode in ("solve-model", "solve-schrodinger"):
            return _run_single_solve(config)
        return _run_grid(config)
    except CrossingKitError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # an output path that cannot be written is a configuration error
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _setup_logging() -> None:
    name = os.environ.get("CROSSING_KIT_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossing-kit",
        description=(
            "Transfer matrices across finite-order crossings: predictions, "
            "numerical extraction, h sweeps, and verification."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    helps = {
        "predict": "evaluate the closed-form transfer matrix",
        "solve-model": "integrate the reduced model and compare to the prediction",
        "solve-schrodinger": "integrate the coupled pair and compare to the prediction",
        "sweep": "run an h grid and write CSV rows plus power-law fits",
        "verify": "sweep, then check exponents and prefactors; nonzero exit on failure",
    }
    for name in MODES:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="primary output path (CSV for grid modes)")
        # kept so that existing command lines still parse; rows run serially
        p.add_argument("--jobs", type=int, help="accepted and ignored")
        p.add_argument("--seed", type=int, help="seed for randomized problem draws")
    args = parser.parse_args(argv)

    _setup_logging()
    try:
        config = parse_config(
            args.config, mode=args.mode, seed=args.seed, out=args.out
        )
    except (SchemaError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
