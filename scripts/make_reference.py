"""Write the committed reference outputs of ``crossing-kit verify``.

    PYTHONPATH=src python3 scripts/make_reference.py [--dir tests/reference]

Runs ``verify`` in this process on each case in CASES, with the
``crossing_kit`` package found on PYTHONPATH, and writes to ``--dir``:

- ``cases.json``: each case's name, config and exit code;
- ``<name>.csv``: the sweep CSV;
- ``<name>.json``: the JSON summary, its ``"csv"`` entry cut to the file
  name;
- ``<name>.txt``: stdout, the CSV path on its first line cut to ``csv=``.

The cases are the three perfbench grids and the default grids of
``model-corpus`` 0-5 and ``schrodinger-corpus`` 0 and 1 (``model-corpus``
2 is recorded with its exit code 1: its prefactor checks fail).
``tests/test_reference.py`` reruns them and compares. Regenerate only
from a tree whose outputs are known good: the files are the record that
a refactor left the numbers alone; rerunning the script on such a tree
leaves ``git diff tests/reference`` empty.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from crossing_kit import cli

CASES = {
    "model-verify": {
        "problem": {"kind": "model-corpus", "index": 0},
        "h_grid": {"start": 1e-1, "stop": 1e-4, "count": 12},
    },
    "model-deep": {
        "problem": {"kind": "model-corpus", "index": 1},
        "h_grid": {"values": [1e-3, 5e-4, 2e-5, 1e-5]},
    },
    "schrodinger-verify": {
        "problem": {"kind": "schrodinger-corpus", "index": 0},
        "h_grid": {"values": [1e-2, 5e-3, 2.5e-3, 1e-4]},
    },
    **{
        f"model-corpus-{i}": {"problem": {"kind": "model-corpus", "index": i}}
        for i in range(6)
    },
    **{
        f"schrodinger-corpus-{i}": {
            "problem": {"kind": "schrodinger-corpus", "index": i}
        }
        for i in (0, 1)
    },
}

_CSV_PATH = re.compile(r"csv=\S+")


def run_case(config: dict, work: Path) -> tuple[int, str, str, dict]:
    """Run ``verify`` on ``config`` in ``work``; returns the exit code, the
    stdout with its CSV path cut, the CSV text and the summary."""
    csv, summary = work / "verify.csv", work / "summary.json"
    path = work / "config.json"
    path.write_text(
        json.dumps({**config, "output": {"csv": str(csv), "summary": str(summary)}}),
        encoding="utf-8",
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--config", str(path)])
    payload = json.loads(summary.read_text(encoding="utf-8"))
    payload["csv"] = Path(payload["csv"]).name
    stdout = _CSV_PATH.sub("csv=", out.getvalue())
    return code, stdout, csv.read_text(encoding="utf-8"), payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="tests/reference", help="output directory")
    args = parser.parse_args(argv)
    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    index = []
    for name, config in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            code, stdout, csv, summary = run_case(config, Path(work))
        (target / f"{name}.csv").write_text(csv, encoding="utf-8")
        (target / f"{name}.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (target / f"{name}.txt").write_text(stdout, encoding="utf-8")
        index.append({"name": name, "config": config, "exit_code": code})
        print(f"{name}: exit {code}")
    (target / "cases.json").write_text(
        json.dumps(index, indent=2) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
