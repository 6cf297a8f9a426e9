"""Batch front end: validate a JSON run config, dispatch, emit summaries.

Options
    --config PATH      the JSON run config (required)
    --jobs N           accepted and ignored: rows run serially
    -h, --help         print this help

Options may also be written --opt=value, and shortened to a unique
prefix (--conf PATH). A malformed command line exits 2.

Subcommands
    predict            closed-form transfer matrix at a single h
    solve              numeric vs predicted transfer matrix at a single h
    sweep              transfer matrices over an h grid, CSV + power-law fits
    verify             sweep plus pass/fail checks on exponents and prefactors

Exit codes: 0 success (all checks passed), 1 a verify check failed,
2 a malformed command line or configuration error, 3 numerical failure.

The config file is JSON with a strict schema: unknown keys are rejected
with the full key path; it alone names the outputs and the seed, and its
problem.kind the family that solve runs. CSV output is byte deterministic
for a fixed config. Set CROSSING_KIT_LOG=INFO (or DEBUG) for progress
logging; a predicted off-diagonal modulus of 1 or more warns.
"""

from __future__ import annotations

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
from .normalform import MODEL_CORPUS, NormalFormProblem, random_model
from .profiles import Bump, Poly1
from .schrodinger import SCHRODINGER_CORPUS, SchrodingerProblem
from .transfer import MAX_ORDER, Problem, TransferMatrix

# Not called here: perfbench/tracer.py wraps these two attributes of this
# module by name, so they must stay importable from it.
from .normalform import predict_transfer  # noqa: F401
from .schrodinger import predict_transfer_case_i  # noqa: F401

log = logging.getLogger("crossing_kit.cli")

MODES = ("predict", "solve", "sweep", "verify")
KINDS = ("model", "schrodinger", "model-corpus", "schrodinger-corpus", "random-model")
# the corpus kinds: the problem class and its table of h-free fields
_CORPORA = {
    "model-corpus": (NormalFormProblem, MODEL_CORPUS),
    "schrodinger-corpus": (SchrodingerProblem, SCHRODINGER_CORPUS),
}

# keys accepted at the top level, per mode
_COMMON_KEYS = {"mode", "problem", "seed", "output"}
_MODE_KEYS = {
    "predict": _COMMON_KEYS | {"h", "branch"},
    "solve": _COMMON_KEYS | {"h", "branch"},
    "sweep": _COMMON_KEYS | {"h_grid"},
    "verify": _COMMON_KEYS | {"h_grid"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description, ready to dispatch: the problem, built
    once without h, and the h values it runs at."""

    mode: str
    problem: Problem
    # the h grid, or the one h of a single-h mode
    h_values: tuple[float, ...]
    # None for the zero-energy pair, whose one crossing has no branch
    branch: int | None
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


def _build_problem(obj: dict, kind: str, seed: int):
    """The one problem the config's ``problem`` object names."""
    path = "problem"

    def field(key, expect=_expect_number, **limits):
        # obj[key], required, checked by ``expect`` at its key path
        return expect(_require(obj, key, path), f"{path}.{key}", **limits)

    # the library's bounds, checked here first to name the key path
    def order(key):
        return field(key, _expect_int, minimum=1, maximum=MAX_ORDER)

    def poly(key):
        return Poly1(tuple(field(key, _expect_number_list, most=MAX_ORDER + 1)))

    try:
        if kind == "model":
            _reject_unknown(
                obj, path, {"kind", "m", "f_coeffs", "coupling", "coupling2", "interval"}
            )
            m, f = order("m"), poly("f_coeffs")
            r1 = field("coupling", _build_bump)
            r2 = field("coupling2", _build_bump) if "coupling2" in obj else r1
            lo, hi = field("interval", _expect_number_list, length=2)
            return NormalFormProblem(f=f, r1=r1, r2=r2, x0=lo, x1=hi, m=m)
        if kind == "schrodinger":
            _reject_unknown(
                obj,
                path,
                {"kind", "n", "v1_coeffs", "v2_coeffs", "e0", "coupling", "interval"},
            )
            n, v1, v2 = order("n"), poly("v1_coeffs"), poly("v2_coeffs")
            e0, w = field("e0"), field("coupling", _build_bump)
            lo, hi = field("interval", _expect_number_list, length=2)
            return SchrodingerProblem(
                v1=v1, v2=v2, w=w, e0=e0, n=n, x_in=lo, x_out=hi
            )
        if kind in _CORPORA:
            _reject_unknown(obj, path, {"kind", "index"})
            cls, table = _CORPORA[kind]
            index = field("index", _expect_int, minimum=0)
            if index >= len(table):
                raise SchemaError(f"{path}.index", f"must be below {len(table)}")
            return cls(**table[index])
        # random-model: seeded draw, used for randomized property runs
        _reject_unknown(obj, path, {"kind", "m"})
        return random_model(order("m"), seed)
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


def parse_config(path, mode: str | None = None) -> RunConfig:
    """Load and validate a JSON run config.

    ``mode`` is the subcommand's, which a ``mode`` key in the file must
    match; without it the file names the mode. Raises SchemaError naming
    the offending key path, also for a file that is not UTF-8 or nests too
    deeply to parse; lets OSError from the file read propagate to the
    caller.
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

    seed = _expect_int(obj.get("seed", 0), "seed", minimum=0)

    single_h = mode in ("predict", "solve")
    h_values = None
    if single_h:
        h_values = (_expect_number(_require(obj, "h", ""), "h", positive=True),)
    elif "h_grid" in obj:
        h_values = _build_grid(obj["h_grid"], "h_grid")

    problem_node = _expect_object(_require(obj, "problem", ""), "problem")
    kind = _expect_string(
        _require(problem_node, "kind", "problem"), "problem.kind", choices=KINDS
    )
    family = "schrodinger" if kind.startswith("schrodinger") else "model"
    # verify's default grid depends on the problem family
    if h_values is None:
        if mode == "sweep":
            raise SchemaError("h_grid", "required key is missing")
        h_values = sweep_mod.DEFAULT_GRIDS[family]

    problem = _build_problem(problem_node, kind, seed)

    if family == "schrodinger" and problem.case == "ii" and mode != "predict":
        raise SchemaError(
            "problem.e0",
            "zero-energy problems have no oscillatory solver; "
            "only predict supports them",
        )

    branch = None if family == "schrodinger" and problem.case == "ii" else 1
    if "branch" in obj:
        if family != "schrodinger":
            raise SchemaError("branch", "only meaningful for schrodinger problems")
        if problem.case != "i":
            raise SchemaError("branch", "the zero-energy origin crossing has no branch")
        branch = _expect_int(obj["branch"], "branch")
        if branch not in (1, -1):
            raise SchemaError("branch", "must be 1 or -1")

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
    # the summary, written last, would replace the CSV
    if summary_path is not None and csv_path is not None:
        if os.path.abspath(summary_path) == os.path.abspath(csv_path):
            raise SchemaError("output.summary", "must differ from the CSV path")

    return RunConfig(
        mode=mode,
        problem=problem,
        h_values=h_values,
        branch=branch,
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


def _warn_outside_regime(t: TransferMatrix, h: float) -> None:
    """One WARNING where a predicted off-diagonal modulus is 1 or more,
    which no unitary T has: h lies outside the prediction's regime."""
    moduli = {q: abs(getattr(t, q)) for q in ("t12", "t21")}
    big = " and ".join(f"|{q}| = {v:.4g}" for q, v in moduli.items() if v >= 1.0)
    if big:
        log.warning(
            "predicted %s at h=%.6e: at least 1, which no unitary T has; "
            "h is outside the prediction's regime", big, h
        )


def _run_predict(config: RunConfig) -> int:
    (h,), branch = config.h_values, config.branch
    t = config.problem.predict(h, branch or 1)
    _warn_outside_regime(t, h)
    print(f"predict  h={h:.6e}" + ("" if branch is None else f"  branch={branch}"))
    _print_matrix("predicted", t)
    summary = {"mode": "predict", "h": h, "branch": branch}
    summary = {k: v for k, v in summary.items() if v is not None}
    _write_summary(config, {**summary, "entries": _matrix_payload(t)})
    return 0


def _run_single_solve(config: RunConfig) -> int:
    (h,), prob = config.h_values, config.problem
    predicted = prob.predict(h, config.branch)
    extracted = prob.extract(h, config.branch)
    _warn_outside_regime(predicted, h)
    errors = extracted.entrywise_abs_diff(predicted)
    print(f"{config.mode}  h={h:.6e}  branch={config.branch}")
    _print_matrix("extracted", extracted)
    _print_matrix("predicted", predicted)
    print(f"max abs error: {extracted.max_abs_diff(predicted):.6e}")
    _write_summary(
        config,
        {
            "mode": config.mode,
            "h": h,
            "branch": config.branch,
            "extracted": _matrix_payload(extracted),
            "predicted": _matrix_payload(predicted),
            "abs_errors": dict(zip(TransferMatrix.ENTRIES, map(float, errors.flat))),
            "max_abs_error": float(extracted.max_abs_diff(predicted)),
        },
    )
    return 0


def _run_grid(config: RunConfig) -> int:
    report = sweep_mod.run_sweep(config.problem, config.h_values)
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
        sweep_mod.attach_fits(report)
        failure = "" if n_ok else "no usable rows"
    except CrossingKitError as exc:
        report.fits.clear()
        failure = f"{n_ok} usable rows: {exc}"
    for q, f in report.fits.items():
        print(
            f"  fit {q}: exponent={f.exponent:.4f} amplitude={f.amplitude:.6e}"
            f" rms={f.residual_rms:.2e}"
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

    passed = sweep_mod.verify(report, config.problem.order)
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
        if config.mode == "solve":
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


USAGE = "usage: crossing-kit {%s} %s" % (
    ",".join(MODES),
    "--config PATH [--jobs N]",
)
# the options, each with a value, and whether it is an integer; no option
# name is a prefix of another, so a prefix names at most one exactly
_OPTIONS = {"--config": False, "--jobs": True}


class _UsageError(Exception):
    """A command line that is not ``MODE --config PATH [options]``."""


def _parse_args(argv: list[str]) -> dict | None:
    """The mode and the options of a command line, keyed "mode" and by
    option name (a repeated option keeps its last value), or None where it
    asks for help. Raises _UsageError for any other shape."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0].startswith("-"):
        raise _UsageError("the mode is required: " + ", ".join(MODES))
    if argv[0] not in MODES:
        raise _UsageError(f"unknown mode {argv[0]!r}: choose from {', '.join(MODES)}")
    args, rest = {"mode": argv[0]}, argv[1:]
    while rest:
        word = rest.pop(0)
        name, eq, value = word.partition("=")
        named = [o for o in (*_OPTIONS, "--help") if o.startswith(name)]
        named = named if len(name) > 2 else []
        if word == "-h" or named == ["--help"]:
            return None
        if len(named) != 1:
            raise _UsageError(f"unrecognized argument {word!r}")
        option = named[0]
        if not eq:
            # a value may be a negative number, not another option
            if not rest or (rest[0].startswith("-") and not rest[0][1:2].isdigit()):
                raise _UsageError(f"{option} expects a value")
            value = rest.pop(0)
        if _OPTIONS[option]:
            try:
                value = int(value)
            except ValueError:
                message = f"{option} expects an integer, got {value!r}"
                raise _UsageError(message) from None
        args[option] = value
    if "--config" not in args:
        raise _UsageError("--config PATH is required")
    return args


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default); returns the exit
    code, 2 with the usage on stderr for a malformed one."""
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        print(f"{USAGE}\ncrossing-kit: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(f"{USAGE}\n\n{__doc__}", end="")
        return 0

    _setup_logging()
    try:
        config = parse_config(args["--config"], mode=args["mode"])
    except (SchemaError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
