"""Command-line front end: schema validation with key paths, exit codes,
and byte-deterministic CSV output."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import crossing_kit
from crossing_kit.cli import MAX_ORDER, main, parse_config
from crossing_kit.errors import SchemaError
from crossing_kit.normalform import NormalFormProblem, predict_transfer
from crossing_kit.schrodinger import SchrodingerProblem
from crossing_kit.sweep import MAX_GRID_POINTS, PowerLawFit, Verdict
from crossing_kit.transfer import TransferMatrix

from uniform_plan import march_uniformly


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


@pytest.mark.parametrize(
    "mode, config",
    [
        # f = x (x - 0.45)^2: a double zero under the coupling
        (
            "solve-model",
            {"problem": model_block(f_coeffs=[0.0, 0.2025, -0.9, 1.0]), "h": 1e-3},
        ),
        # V2 - V1 = 0.2 x - x^2 vanishes again at 0.2, inside supp W; on its
        # default grid verify used to fail its 4 checks with exit 1
        (
            "verify",
            {
                "problem": {
                    "kind": "schrodinger",
                    "n": 1,
                    "v1_coeffs": [0.0, 0.25],
                    "v2_coeffs": [0.0, 0.45, -1.0],
                    "e0": 1.0,
                    "coupling": {"width": 0.8},
                    "interval": [-1.2, 1.2],
                }
            },
        ),
    ],
    ids=["model", "schrodinger"],
)
def test_a_second_crossing_is_a_config_error(tmp_path, capsys, mode, config):
    path = write_config(tmp_path, config)
    with pytest.raises(SchemaError, match="vanishes away from 0") as exc:
        parse_config(path, mode=mode)
    assert exc.value.key_path == "problem"
    assert main([mode, "--config", path]) == 2
    assert "vanishes away from 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, size", [("model-corpus", 6), ("schrodinger-corpus", 3)]
)
def test_a_corpus_config_builds_only_its_problem(
    tmp_path, monkeypatch, kind, size
):
    built = []
    for cls in (NormalFormProblem, SchrodingerProblem):

        def counted(self, _run=cls.__post_init__):
            built.append(self)
            return _run(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    path = write_config(tmp_path, {"problem": {"kind": kind, "index": 1}, "h": 1e-2})
    config = parse_config(path, mode="predict")
    assert built == [config.problem]
    # the index is checked against the table before anything is built
    path = write_config(tmp_path, {"problem": {"kind": kind, "index": size}, "h": 1e-2})
    with pytest.raises(SchemaError, match=f"must be below {size}") as exc:
        parse_config(path, mode="predict")
    assert exc.value.key_path == "problem.index"
    assert len(built) == 1


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


@pytest.mark.parametrize(
    "problem",
    [
        {"kind": "schrodinger-corpus", "index": 2},
        {
            "kind": "schrodinger",
            "n": 1,
            "v1_coeffs": [0.0, -1.0],
            "v2_coeffs": [0.0, -2.0],
            "e0": 0.0,
            "coupling": {"width": 0.5},
            "interval": [-0.9, 0.9],
        },
    ],
    ids=["corpus", "schrodinger"],
)
def test_branch_key_requires_positive_energy(tmp_path, capsys, problem):
    # the zero-energy pair has one crossing, at the origin: a branch key
    # would be ignored by the prediction and recorded all the same
    for branch in (1, -1):
        path = write_config(tmp_path, {"problem": problem, "h": 1e-3, "branch": branch})
        assert main(["predict", "--config", path]) == 2
        assert "branch: the zero-energy origin crossing has no branch" in (
            _one_line_error(capsys)
        )
    # nor does the accepted run print or record one
    summary = tmp_path / "summary.json"
    path = write_config(
        tmp_path, {"problem": problem, "h": 1e-3, "output": {"summary": str(summary)}}
    )
    assert main(["predict", "--config", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "predict  h=1.000000e-03"
    assert "branch" not in json.loads(summary.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "config, branch",
    [
        ({"problem": model_block()}, 1),
        ({"problem": {"kind": "schrodinger-corpus", "index": 0}}, 1),
        ({"problem": {"kind": "schrodinger-corpus", "index": 0}, "branch": -1}, -1),
    ],
    ids=["model", "schrodinger-plus", "schrodinger-minus"],
)
def test_predict_reports_the_branch_of_a_branched_crossing(
    tmp_path, capsys, config, branch
):
    summary = tmp_path / "summary.json"
    config = {**config, "h": 1e-3, "output": {"summary": str(summary)}}
    assert main(["predict", "--config", write_config(tmp_path, config)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"predict  h=1.000000e-03  branch={branch}"
    assert json.loads(summary.read_text(encoding="utf-8"))["branch"] == branch


def test_csv_output_rejected_for_single_solve(tmp_path):
    path = write_config(
        tmp_path,
        {"problem": model_block(), "h": 1e-2, "output": {"csv": "x.csv"}},
    )
    with pytest.raises(SchemaError) as exc:
        parse_config(path, mode="solve-model")
    assert exc.value.key_path == "output.csv"


@pytest.mark.parametrize("mode", ["sweep", "verify"])
def test_summary_may_not_overwrite_the_csv(tmp_path, capsys, mode):
    # the summary is written after the CSV, so one path for both would
    # leave only the summary: refused at output.summary, also where --out
    # names the CSV or the two paths differ only in spelling
    target = tmp_path / "out.x"
    for output, out in (
        ({"csv": str(target), "summary": str(target)}, None),
        ({"summary": str(target)}, str(target)),
        ({"csv": str(target), "summary": str(tmp_path / "." / "out.x")}, None),
    ):
        cfg = {
            "problem": {"kind": "model-corpus", "index": 0},
            "h_grid": {"values": [1e-1, 1e-2, 1e-3, 1e-4]},
            "output": output,
        }
        path = write_config(tmp_path, cfg)
        with pytest.raises(SchemaError) as exc:
            parse_config(path, mode=mode, out=out)
        assert exc.value.key_path == "output.summary"
        argv = [mode, "--config", path] + (["--out", out] if out else [])
        assert main(argv) == 2
        assert "output.summary" in _one_line_error(capsys)
        assert not target.exists()


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
    # h = 1 is outside the semiclassical regime, and a values list is
    # bounded like a count; both are refused before any problem is solved
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


_MALFORMED = {
    "no-mode": [],
    "unknown-mode": ["check", "--config", "{path}"],
    "missing-config": ["verify", "--out", "out.csv"],
    "unknown-option": ["verify", "--config", "{path}", "--threads", "2"],
    "jobs-not-an-integer": ["verify", "--config", "{path}", "--jobs", "x"],
    "option-without-value": ["verify", "--config", "{path}", "--out"],
    "config-without-value": ["verify", "--config"],
    "stray-word": ["verify", "extra", "--config", "{path}"],
}


@pytest.mark.parametrize("argv", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_command_line_exits_2_with_usage(tmp_path, capsys, argv):
    # the usage line and a one-line error on stderr, exit 2, no traceback
    # and no SystemExit out of main
    path = write_config(tmp_path, {"problem": {"kind": "model-corpus", "index": 0}})
    argv = [word.format(path=path) for word in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # pragma: no cover - the failure being tested
        pytest.fail(f"main raised SystemExit({exc.code})")
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    usage, error, *rest = err.splitlines()
    assert usage.startswith("usage: crossing-kit ") and "--config PATH" in usage
    assert error.startswith("crossing-kit: error: ") and rest == [], err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_the_subcommands(capsys, flag):
    for argv in ([flag], ["verify", flag], ["verify", "--config", "c.json", flag]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: crossing-kit ") and err == ""
        for mode in ("predict", "solve-model", "solve-schrodinger", "sweep", "verify"):
            assert f"\n    {mode} " in out, mode


def test_option_spellings_still_run(tmp_path, capsys):
    # --opt=value, a unique prefix and --jobs (accepted, ignored) all run
    # the same command
    path = write_config(tmp_path, {"problem": model_block(), "h": 1e-2})
    outs = [tmp_path / f"{k}.json" for k in range(4)]
    for argv in (
        ["predict", f"--config={path}", "--out", str(outs[0])],
        ["predict", "--conf", path, f"--out={outs[1]}"],
        ["predict", "--config", path, "--jobs", "2", "--out", str(outs[2])],
        ["predict", "--jo=1", "--se", "3", "--config", path, "--o", str(outs[3])],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert len({p.read_bytes() for p in outs}) == 1


def test_seed_option_reaches_the_config(tmp_path, capsys):
    # --seed overrides the file's seed, and a negative one (a value, not an
    # option) is a configuration error
    config = {"problem": {"kind": "random-model", "m": 1}, "h": 1e-2}
    path = write_config(tmp_path, config)
    outs = [tmp_path / f"{k}.json" for k in range(3)]
    for out, seed in zip(outs, ("0", "0", "1")):
        argv = ["predict", "--config", path, "--seed", seed, "--out", str(out)]
        assert main(argv) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()
    capsys.readouterr()
    assert main(["predict", "--config", path, "--seed", "-1"]) == 2
    assert "config error: seed: must be at least 0" in capsys.readouterr().err


def _loaded_by_cli_import(names) -> list[str]:
    """Those of the module ``names`` that `import crossing_kit.cli` loads
    in a fresh interpreter."""
    code = (
        "import sys, crossing_kit.cli; "
        f"print(' '.join(sorted({set(names)!r} & set(sys.modules))))"
    )
    src = os.path.dirname(os.path.dirname(crossing_kit.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return done.stdout.split()


def test_cli_import_loads_no_argparse():
    # the command line is parsed by hand: importing the CLI loads neither
    # argparse nor gettext
    assert _loaded_by_cli_import({"argparse", "gettext"}) == []


def test_cli_import_loads_no_polynomial_package_or_kernel_module():
    # Poly1 evaluates and finds roots on its own and the pair's quadrature
    # rule is data: importing the CLI loads neither numpy.polynomial nor a
    # second numerical engine beside the march
    names = {"numpy.polynomial", "crossing_kit._kernels"}
    assert _loaded_by_cli_import(names) == []


_VERIFY_GRIDS = {
    "model": ({"kind": "model-corpus", "index": 0}, [1e-1, 1e-2, 1e-3, 1e-4]),
    "pair": ({"kind": "schrodinger-corpus", "index": 0}, [1e-2, 5e-3, 2.5e-3, 1e-4]),
}


@pytest.mark.parametrize("problem, grid", _VERIFY_GRIDS.values(), ids=list(_VERIFY_GRIDS))
def test_verify_imports_no_module_after_the_cli(tmp_path, problem, grid):
    # a module imported for the first time inside a verify call is paid in
    # its run time (np.union1d imports numpy.ma, 13 ms, on its first call):
    # after `import crossing_kit.cli`, a verify on either family adds
    # nothing to sys.modules
    cfg = {
        "problem": problem,
        "h_grid": {"values": grid},
        "output": {"csv": str(tmp_path / "r.csv"), "summary": str(tmp_path / "s.json")},
    }
    code = (
        "import json, sys, crossing_kit.cli as cli; before = set(sys.modules); "
        "rc = cli.main(['verify', '--config', sys.argv[1]]); "
        "print(json.dumps([rc, sorted(set(sys.modules) - before)]))"
    )
    src = os.path.dirname(os.path.dirname(crossing_kit.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code, write_config(tmp_path, cfg)],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    rc, added = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0 and added == [], (rc, added)


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a coupling so strong that its support needs more than
    # march.MAX_PANELS panels within PICARD_REACH: refused before any work
    cfg = {
        "problem": model_block(coupling={"width": 0.8, "amplitude": 1e4}),
        "h": 1e-2,
    }
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["solve-model", "--config", path]) == 3
    assert seen == []
    err = _one_line_error(capsys)
    assert "numerical failure" in err and "max_panels" in err


def test_overflow_is_a_numerical_failure_without_warnings(tmp_path, capsys):
    # a coupling near the float limit is refused by the same panel budget,
    # before any product can overflow, instead of warning and sweeping on
    # NaN to the cap
    cfg = {
        "problem": model_block(coupling={"width": 0.5, "amplitude": 1e300}),
        "h": 1e-2,
    }
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["solve-model", "--config", path]) == 3
    assert seen == []
    assert "max_panels" in _one_line_error(capsys)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_h_near_underflow_is_a_numerical_failure(tmp_path, capsys):
    # the stationary zone needs hundreds of levels of halves (at 1e-320 its
    # ratio to the span is infinite): refused before any integer conversion
    path = write_config(tmp_path, {"problem": model_block(), "h": 1e-320})
    assert main(["solve-model", "--config", path]) == 3
    assert "max_levels" in _one_line_error(capsys)
    # the Schrodinger march is refused by the same split budget before
    # marching, instead of stepping on NaNs
    for h in (1e-320, 1e-200):
        problem = {"kind": "schrodinger-corpus", "index": 0}
        path = write_config(tmp_path, {"problem": problem, "h": h})
        assert main(["solve-schrodinger", "--config", path]) == 3
        assert "max_levels" in _one_line_error(capsys)
    # in a sweep each refused row says why, on stdout and in the summary
    summary = tmp_path / "summary.json"
    grid = [1e-200, 1e-250, 1e-300, 1e-320]
    cfg = {
        "problem": model_block(),
        "h_grid": {"values": grid},
        "output": {"csv": str(tmp_path / "rows.csv"), "summary": str(summary)},
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 3
    failed = [ln for ln in capsys.readouterr().out.splitlines() if "failed:" in ln]
    assert len(failed) == 4 and all("max_levels" in ln for ln in failed)
    rows = json.loads(summary.read_text(encoding="utf-8"))["failed_rows"]
    assert [r["h"] for r in rows] == grid
    assert all(r["status"] == "failed:ValidationError" for r in rows)
    assert all("max_levels" in r["detail"] for r in rows)


@pytest.mark.parametrize("mode", ["sweep", "verify"])
def test_too_few_rows_to_fit_keep_their_outputs(monkeypatch, tmp_path, capsys, mode):
    # a coupling that Picard cannot resolve on the uniform plan at the three
    # largest h (the panels resolve it): the two rows left cannot be
    # fitted, which is a numerical failure, but the CSV and the summary are
    # written and each failed row says why
    march_uniformly(monkeypatch)
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
