"""Command-line front end: schema validation with key paths, exit codes,
and byte-deterministic CSV output."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from crossing_kit.cli import MAX_ORDER, main, parse_config
from crossing_kit.errors import SchemaError
from crossing_kit.normalform import NormalFormProblem, predict_transfer
from crossing_kit.schrodinger import SchrodingerProblem
from crossing_kit.sweep import MAX_GRID_POINTS, PowerLawFit, Verdict
from crossing_kit.transfer import TransferMatrix


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def model_block(**overrides):
    block = {
        "kind": "model",
        "m": 1,
        "f_coeffs": [0.0, 1.0],
        "coupling": {"width": 0.8, "amplitude": 1.0},
        "interval": [-1.0, 1.0],
    }
    block.update(overrides)
    return block


def test_minimal_model_config_fills_defaults(tmp_path):
    path = write_config(
        tmp_path, {"mode": "solve-model", "problem": model_block(), "h": 1e-2}
    )
    config = parse_config(path)
    assert config.mode == "solve-model"
    assert config.problem.h == 1e-2
    assert config.branch == 1
    assert config.tolerances == {"exponent": 0.05, "prefactor": 0.10}
    assert config.csv_path is None and config.summary_path is None
    assert config.problem.m == 1


def test_negative_h_rejected(tmp_path, capsys):
    path = write_config(tmp_path, {"problem": model_block(), "h": -0.5})
    with pytest.raises(SchemaError, match="must be positive"):
        parse_config(path, mode="solve-model")
    assert main(["solve-model", "--config", path]) == 2
    assert "h: must be positive" in capsys.readouterr().err


def test_unknown_key_named_with_path(tmp_path, capsys):
    # the model has one extraction path: no key selects a solver or its
    # terms, T is read at the interval end, with no read-off window, and
    # sweep rows run serially
    unknown = (
        ("hh", 0.5),
        ("method", "ode"),
        ("terms", 8),
        ("window_eps", 0.1),
        ("jobs", 2),
    )
    for key, value in unknown:
        path = write_config(tmp_path, {"problem": model_block(), key: value})
        with pytest.raises(SchemaError) as exc:
            parse_config(path, mode="solve-model")
        assert exc.value.key_path == key
        assert main(["solve-model", "--config", path]) == 2
        assert key in capsys.readouterr().err


def test_unknown_nested_key_reports_full_path(tmp_path):
    bad = model_block(coupling={"widht": 0.8})
    path = write_config(tmp_path, {"problem": bad, "h": 1e-2})
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode="solve-model")
    assert exc.value.key_path == "problem.coupling.widht"


def test_problem_level_validation_becomes_schema_error(tmp_path):
    # vanishing order of f disagrees with the declared m
    path = write_config(
        tmp_path, {"problem": model_block(m=2), "h": 1e-2}
    )
    with pytest.raises(SchemaError, match="problem"):
        parse_config(path, mode="solve-model")


def test_mode_mismatch_rejected(tmp_path, capsys):
    path = write_config(
        tmp_path, {"mode": "sweep", "problem": model_block(), "h": 1e-2}
    )
    assert main(["solve-model", "--config", path]) == 2
    assert "mode" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    assert main(["predict", "--config", "/no/such/file.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    # not JSON; not UTF-8; nested past the parser's recursion limit; an
    # integer literal past the int-to-str digit limit
    p = tmp_path / "broken.json"
    for raw in (
        b"{not json",
        b'\xff\xfe{"mode": "predict"}',
        b"[" * 100000,
        b'{"seed": ' + b"1" * 5000 + b"}",
    ):
        p.write_bytes(raw)
        assert main(["predict", "--config", str(p)]) == 2
        assert "invalid JSON" in _one_line_error(capsys)


def test_grid_spec_forms(tmp_path):
    base = {"problem": {"kind": "model-corpus", "index": 0}}
    path = write_config(
        tmp_path,
        base | {"h_grid": {"start": 1e-1, "stop": 1e-3, "count": 5}},
    )
    config = parse_config(path, mode="sweep")
    assert len(config.h_values) == 5
    assert config.h_values[0] == pytest.approx(1e-1)
    assert config.h_values[-1] == pytest.approx(1e-3)

    path = write_config(
        tmp_path, base | {"h_grid": {"values": [1e-1, 1e-2, 1e-3, 1e-4]}}
    )
    assert parse_config(path, mode="sweep").h_values == (1e-1, 1e-2, 1e-3, 1e-4)

    path = write_config(
        tmp_path, base | {"h_grid": {"start": 1e-1, "stop": 1e-2, "count": 6}}
    )
    with pytest.raises(SchemaError, match="2 decades"):
        parse_config(path, mode="sweep")

    path = write_config(tmp_path, base)
    with pytest.raises(SchemaError, match="h_grid"):
        parse_config(path, mode="sweep")


def test_branch_key_requires_schrodinger(tmp_path):
    path = write_config(
        tmp_path, {"problem": model_block(), "h": 1e-2, "branch": -1}
    )
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode="solve-model")
    assert exc.value.key_path == "branch"


def test_csv_output_rejected_for_single_solve(tmp_path):
    path = write_config(
        tmp_path,
        {"problem": model_block(), "h": 1e-2, "output": {"csv": "x.csv"}},
    )
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode="solve-model")
    assert exc.value.key_path == "output.csv"


def test_zero_energy_problem_only_predicts(tmp_path, capsys):
    cfg = {"problem": {"kind": "schrodinger-corpus", "index": 2}, "h": 1e-3}
    path = write_config(tmp_path, cfg)
    assert main(["solve-schrodinger", "--config", path]) == 2
    assert "problem.e0" in capsys.readouterr().err
    assert main(["predict", "--config", path]) == 0


def test_seeded_random_problem_is_reproducible(tmp_path):
    path = write_config(
        tmp_path, {"problem": {"kind": "random-model", "m": 2}, "h": 1e-2}
    )
    a = parse_config(path, mode="predict", seed=7).problem
    b = parse_config(path, mode="predict", seed=7).problem
    c = parse_config(path, mode="predict", seed=8).problem
    assert a == b
    assert a != c
    assert a.m == 2 and a.f.coeffs[2] > 0


def test_predict_summary_matches_library(tmp_path, capsys):
    out = tmp_path / "summary.json"
    path = write_config(
        tmp_path,
        {
            "problem": model_block(),
            "h": 1e-3,
            "output": {"summary": str(out)},
        },
    )
    assert main(["predict", "--config", path]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    expected = predict_transfer(parse_config(path, mode="predict").problem)
    re, im = payload["entries"]["t21"]
    assert complex(re, im) == pytest.approx(complex(expected.t21), abs=1e-15)


def test_solve_model_writes_summary_and_small_error(tmp_path, capsys):
    out = tmp_path / "summary.json"
    path = write_config(
        tmp_path,
        {
            "problem": model_block(),
            "h": 1e-2,
            "output": {"summary": str(out)},
        },
    )
    assert main(["solve-model", "--config", path]) == 0
    assert "max abs error" in capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) >= {"extracted", "predicted", "abs_errors", "max_abs_error"}
    assert payload["branch"] == 1
    assert payload["max_abs_error"] < 0.05


def test_solve_schrodinger_minus_branch(tmp_path, capsys):
    # the header line and the summary name the crossing that was solved
    out = tmp_path / "summary.json"
    cfg = {
        "problem": {"kind": "schrodinger-corpus", "index": 0},
        "h": 2.5e-3,
        "branch": -1,
        "output": {"summary": str(out)},
    }
    path = write_config(tmp_path, cfg)
    assert main(["solve-schrodinger", "--config", path]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "solve-schrodinger  h=2.500000e-03  branch=-1"
    assert "extracted" in stdout
    assert json.loads(out.read_text(encoding="utf-8"))["branch"] == -1


def test_verify_model_corpus_passes(tmp_path, capsys):
    # the default grid passes for m = 1 (corpus 0) and m = 2 (corpus 4)
    for index in (0, 4):
        csv = tmp_path / f"rows{index}.csv"
        summary = tmp_path / f"verify{index}.json"
        cfg = {
            "problem": {"kind": "model-corpus", "index": index},
            "output": {"csv": str(csv), "summary": str(summary)},
        }
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--config", path]) == 0, index
        assert "result: PASS" in capsys.readouterr().out
        lines = csv.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 13  # header plus the 12-point default grid
        payload = json.loads(summary.read_text(encoding="utf-8"))
        assert payload["passed"] is True
        assert payload["ok_rows"] == 12
        assert all(v["passed"] for v in payload["verdicts"].values())


@pytest.mark.parametrize(
    "kind, family",
    [("model-corpus", NormalFormProblem), ("schrodinger-corpus", SchrodingerProblem)],
)
def test_prefactor_gate_fails_a_prediction_off_by_15_percent(
    tmp_path, capsys, monkeypatch, kind, family
):
    # verify on the default grid of corpus 0, with the prediction's
    # off-diagonals scaled by 1.15 and 1/1.15: the prefactors miss by
    # -13.3% and +14.7% on the model and by -15.0% and +12.5% on the pair,
    # against -0.3% and -2.2% unscaled, so they fail the 0.10 tolerance;
    # the exponents do not read the prediction's size and still pass
    predict = family.predict
    summary = tmp_path / "verify.json"
    cfg = {
        "problem": {"kind": kind, "index": 0},
        "output": {"csv": str(tmp_path / "rows.csv"), "summary": str(summary)},
    }
    path = write_config(tmp_path, cfg)
    for scale, code in ((1.0, 0), (1.15, 1), (1 / 1.15, 1)):

        def scaled(self, branch=1, scale=scale):
            t = predict(self, branch).entries * np.array([[1.0, scale], [scale, 1.0]])
            return TransferMatrix(t, h=self.h)

        monkeypatch.setattr(family, "predict", scaled)
        assert main(["verify", "--config", path]) == code, scale
        capsys.readouterr()
        verdicts = json.loads(summary.read_text(encoding="utf-8"))["verdicts"]
        assert len(verdicts) == 4
        for key, v in verdicts.items():
            assert v["passed"] is (scale == 1.0 or v["kind"] == "exponent"), (scale, key)


def test_summary_entries_carry_the_dataclass_fields(tmp_path, capsys):
    # perfbench/accuracy.py reads quantity, kind, observed and expected of
    # each verdict; the summary dumps the dataclasses whole
    summary = tmp_path / "verify.json"
    cfg = {
        "problem": {"kind": "model-corpus", "index": 0},
        "h_grid": {"values": [1e-1, 3e-2, 1e-2, 1e-3]},
        "output": {"csv": str(tmp_path / "rows.csv"), "summary": str(summary)},
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) in (0, 1)
    capsys.readouterr()
    payload = json.loads(summary.read_text(encoding="utf-8"))
    fit_fields = {f.name for f in dataclasses.fields(PowerLawFit)}
    verdict_fields = {f.name for f in dataclasses.fields(Verdict)}
    assert verdict_fields >= {"quantity", "kind", "observed", "expected"}
    assert set(payload["fits"]) == {"t12", "t21", "t11_deficit", "t22_deficit"}
    assert all(set(f) == fit_fields for f in payload["fits"].values())
    assert set(payload["verdicts"]) == {
        f"{q}:{k}" for q in ("t12", "t21") for k in ("exponent", "prefactor")
    }
    assert all(set(v) == verdict_fields for v in payload["verdicts"].values())


def test_grid_outside_unit_interval_or_too_long_rejected(tmp_path, capsys):
    # h = 1 has no log(1/h) envelope, and a values list is bounded like a
    # count; both are refused before any problem is solved
    too_long = [float(h) for h in np.geomspace(1e-1, 1e-4, MAX_GRID_POINTS + 1)]
    for values in ([1.0, 1e-1, 1e-2, 1e-3], [2.0, 1e-1, 1e-2, 1e-3], too_long):
        cfg = {
            "problem": {"kind": "model-corpus", "index": 0},
            "h_grid": {"values": values},
        }
        path = write_config(tmp_path, cfg)
        for mode in ("sweep", "verify"):
            with pytest.raises(SchemaError) as exc:
                parse_config(path, mode=mode)
            assert exc.value.key_path == "h_grid"
            assert main([mode, "--config", path]) == 2
            assert "h_grid" in _one_line_error(capsys)


def test_verify_absurd_tolerance_fails(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "model-corpus", "index": 0},
        "tolerances": {"exponent": 1e-15},
        "output": {"csv": str(tmp_path / "rows.csv")},
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_verify_with_no_check_fails(tmp_path, capsys):
    # a coupling that misses the crossing predicts no off-diagonal signal,
    # so no verdict is made, and a verify that checked nothing fails
    summary = tmp_path / "verify.json"
    cfg = {
        "problem": model_block(coupling={"width": 0.3, "center": 0.5}),
        "h_grid": {"values": [1e-2, 1e-3, 1e-4, 1e-5]},
        "output": {"csv": str(tmp_path / "rows.csv"), "summary": str(summary)},
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        "result: FAIL (0/0 checks: no off-diagonal entry has signal to check)"
    )
    payload = json.loads(summary.read_text(encoding="utf-8"))
    assert payload["passed"] is False
    assert payload["verdicts"] == {}


def test_sweep_csv_byte_deterministic(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "model-corpus", "index": 0},
        "h_grid": {"start": 1e-1, "stop": 1e-3, "count": 5},
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", path, "--out", str(out2), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a coupling so strong that Picard iteration cannot converge even on
    # the shortest chunk
    cfg = {
        "problem": model_block(coupling={"width": 0.8, "amplitude": 1e4}),
        "h": 1e-2,
    }
    path = write_config(tmp_path, cfg)
    assert main(["solve-model", "--config", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_overflow_is_a_numerical_failure_without_warnings(tmp_path, capsys):
    # the march stops at the first non-finite Picard change and names the
    # overflow, instead of warning and sweeping on NaN to the cap
    cfg = {
        "problem": model_block(coupling={"width": 0.5, "amplitude": 1e300}),
        "h": 1e-2,
    }
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["solve-model", "--config", path]) == 3
    assert seen == []
    assert "overflowed" in _one_line_error(capsys)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_h_near_underflow_is_a_numerical_failure(tmp_path, capsys):
    # the node count is infinite: refused before any integer conversion
    path = write_config(tmp_path, {"problem": model_block(), "h": 1e-320})
    assert main(["solve-model", "--config", path]) == 3
    assert "n_max" in _one_line_error(capsys)
    # the Schrodinger march is refused by the same node budget before
    # marching, instead of stepping on NaNs
    for h in (1e-320, 1e-200):
        problem = {"kind": "schrodinger-corpus", "index": 0}
        path = write_config(tmp_path, {"problem": problem, "h": h})
        assert main(["solve-schrodinger", "--config", path]) == 3
        assert "n_max" in _one_line_error(capsys)
    # in a sweep each refused row says why, on stdout and in the summary
    summary = tmp_path / "summary.json"
    cfg = {
        "problem": model_block(),
        "h_grid": {"values": [1e-8, 1e-9, 1e-10, 1e-11]},
        "output": {"csv": str(tmp_path / "rows.csv"), "summary": str(summary)},
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 3
    failed = [ln for ln in capsys.readouterr().out.splitlines() if "failed:" in ln]
    assert len(failed) == 4 and all("n_max" in ln for ln in failed)
    rows = json.loads(summary.read_text(encoding="utf-8"))["failed_rows"]
    assert [r["h"] for r in rows] == [1e-8, 1e-9, 1e-10, 1e-11]
    assert all(r["status"] == "failed:ValidationError" for r in rows)
    assert all("n_max" in r["detail"] for r in rows)


@pytest.mark.parametrize("mode", ["sweep", "verify"])
def test_too_few_rows_to_fit_keep_their_outputs(tmp_path, capsys, mode):
    # a coupling that Picard cannot resolve at the three largest h: the two
    # rows left cannot be fitted, which is a numerical failure, but the CSV
    # and the summary are written and each failed row says why
    csv, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
    cfg = {
        "problem": model_block(coupling={"width": 0.8, "amplitude": 380.0}),
        "h_grid": {"values": [0.1, 0.03, 0.01, 0.003, 0.001]},
        "output": {"csv": str(csv), "summary": str(summary)},
    }
    assert main([mode, "--config", write_config(tmp_path, cfg)]) == 3
    out = capsys.readouterr().out.splitlines()
    assert sum("failed:StepFailure  Picard iteration" in ln for ln in out) == 3
    assert out[-1] == (
        "result: NUMERICAL FAILURE (2 usable rows: power-law fit needs at "
        "least 3 points)"
    )
    assert len(csv.read_text(encoding="utf-8").strip().splitlines()) == 6
    payload = json.loads(summary.read_text(encoding="utf-8"))
    assert payload["ok_rows"] == 2 and payload["fits"] == {}
    rows = payload["failed_rows"]
    assert [r["h"] for r in rows] == [0.1, 0.03, 0.01]
    assert all("Picard iteration" in r["detail"] for r in rows)


def test_huge_grid_count_rejected_before_allocation(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "model-corpus", "index": 0},
        "h_grid": {"start": 1e-1, "stop": 1e-4, "count": 10**15},
    }
    path = write_config(tmp_path, cfg)
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode="verify")
    assert exc.value.key_path == "h_grid.count"
    assert main(["verify", "--config", path]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize(
    "mode, problem",
    [
        ("solve-model", {"kind": "schrodinger-corpus", "index": 0}),
        ("solve-schrodinger", {"kind": "model-corpus", "index": 0}),
    ],
)
def test_solve_mode_rejects_the_other_problem_family(tmp_path, capsys, mode, problem):
    path = write_config(tmp_path, {"problem": problem, "h": 1e-2})
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode=mode)
    assert exc.value.key_path == "problem.kind"
    assert main([mode, "--config", path]) == 2
    assert "problem.kind" in _one_line_error(capsys)


def _order_block(kind: str, order: int) -> dict:
    """A problem of the given kind whose m or n is ``order``."""
    if kind == "model":
        return model_block(m=order, f_coeffs=[0.0] * order + [1.0])
    if kind == "random-model":
        return {"kind": "random-model", "m": order}
    return {
        "kind": "schrodinger",
        "n": order,
        "v1_coeffs": [0.0, -0.25],
        "v2_coeffs": [0.0, -0.25] + [0.0] * (order - 2) + [1.0],
        "e0": 1.0,
        "coupling": {"width": 0.3},
        "interval": [-0.5, 0.5],
    }


@pytest.mark.parametrize(
    "kind, key", [("model", "m"), ("random-model", "m"), ("schrodinger", "n")]
)
def test_contact_order_above_the_bound_rejected(tmp_path, capsys, kind, key):
    # m! in the stationary prefactor overflows a float from m = 170 on
    path = write_config(
        tmp_path, {"problem": _order_block(kind, MAX_ORDER + 1), "h": 1e-2}
    )
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode="predict")
    assert exc.value.key_path == f"problem.{key}"
    assert main(["predict", "--config", path]) == 2
    assert f"problem.{key}" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "kind, key",
    [("model", "f_coeffs"), ("schrodinger", "v1_coeffs"), ("schrodinger", "v2_coeffs")],
)
def test_coefficient_list_above_the_bound_rejected(tmp_path, capsys, kind, key):
    # root finding and bracket algebra grow with the degree: a list is
    # refused at once, before any problem is built
    block = _order_block(kind, 1)
    block[key] = [0.0, 1.0] + [0.0] * (MAX_ORDER - 1)
    assert len(block[key]) == MAX_ORDER + 1
    parse_config(write_config(tmp_path, {"problem": block, "h": 1e-2}), mode="predict")
    block[key].append(0.0)
    path = write_config(tmp_path, {"problem": block, "h": 1e-2})
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode="predict")
    assert exc.value.key_path == f"problem.{key}"
    assert main(["predict", "--config", path]) == 2
    assert f"problem.{key}" in _one_line_error(capsys)
