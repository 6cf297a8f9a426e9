"""Committed reference outputs of `verify`, rerun in process.

tests/reference holds what scripts/make_reference.py wrote: the CSV, the
JSON summary, stdout and the exit code of `verify` on the three perfbench
grids and the default grid of schrodinger-corpus 1. A change that leaves
the algorithm alone must reproduce them: h, the predictions, the status,
the exit code and the verdicts exactly, the extracted entries to 1e-12
and the fits to 1e-9 relative.
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"
CASES = json.loads((REFERENCE / "cases.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location(
    "make_reference", ROOT / "scripts" / "make_reference.py"
)
make_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_reference)

EX_ABS = 1e-12
FIT_REL = 1e-9
_NUMBER = re.compile(r"[-+]?\d+\.\d+(e[-+]\d+)?")


def _rows(text: str):
    header, *rows = text.splitlines()
    return header.split(","), [r.split(",") for r in rows]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_verify_reproduces_the_reference(case, tmp_path, capsys):
    name = case["name"]
    code, stdout, csv, summary = make_reference.run_case(case["config"], tmp_path)
    capsys.readouterr()
    assert code == case["exit_code"]

    header, rows = _rows(csv)
    ref_header, ref_rows = _rows((REFERENCE / f"{name}.csv").read_text("utf-8"))
    assert header == ref_header and len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        for column, got, want in zip(header, row, ref):
            if column.startswith("ex_"):
                assert abs(float(got) - float(want)) <= EX_ABS, (column, row[0])
            elif not column.startswith("abserr_"):
                assert got == want, (column, row[0])

    ref = json.loads((REFERENCE / f"{name}.json").read_text("utf-8"))
    assert summary.keys() == ref.keys()
    for key in ("mode", "rows", "ok_rows", "csv", "failed_rows", "passed"):
        assert summary[key] == ref[key], key
    assert summary["fits"].keys() == ref["fits"].keys()
    for q, fit in summary["fits"].items():
        want = ref["fits"][q]
        for field in ("exponent", "amplitude"):
            assert math.isclose(fit[field], want[field], rel_tol=FIT_REL), (q, field)
        assert fit["npoints"] == want["npoints"], q
    assert summary["verdicts"].keys() == ref["verdicts"].keys()
    for key, verdict in summary["verdicts"].items():
        want = ref["verdicts"][key]
        observed = verdict.pop("observed")
        assert math.isclose(observed, want.pop("observed"), rel_tol=FIT_REL), key
        assert verdict == want, key

    # stdout prints the fits and verdicts rounded: its words must match
    ref_stdout = (REFERENCE / f"{name}.txt").read_text("utf-8")
    assert _NUMBER.sub("#", stdout) == _NUMBER.sub("#", ref_stdout)
