"""Byte-level CLI goldens.

Each case runs through `python -m xoppak` and must print exactly the
committed `tests/golden/<name>.out` with the committed exit code, once the
`seconds` fields (wall-clock timings) are dropped.  The verify cases run the
exact checks only, so the bytes do not depend on the mpmath version: their
norms rows come from the exact Darboux chain.

`python tests/test_golden.py` rewrites the corpus from the current code.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "construct-meixner": [
        "construct", "--kind", "meixner", "--F1", "1,2", "--F2", "1,3",
        "--a", "1/2", "--c", "3",
    ],
    "construct-laguerre": [
        "construct", "--kind", "laguerre", "--F1", "1,2", "--F2", "1",
        "--alpha", "1/3", "--n", "0..6",
    ],
    "construct-krawtchouk": [
        "construct", "--kind", "krawtchouk", "--F1", "1", "--a", "1/3",
        "--c", "-4", "--n", "0..3",
    ],
    "construct-trivial": [
        "construct", "--kind", "meixner", "--a", "1/2", "--c", "3", "--n", "0..3",
    ],
    "verify-meixner": [
        "verify", "--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2",
        "--c", "3", "--checks", "eigen,duality,darboux,altrep,admissible",
    ],
    "verify-meixner-inadmissible": [
        "verify", "--kind", "meixner", "--F1", "1", "--a", "1/2", "--c", "-7/2",
        "--checks", "eigen,duality,darboux,altrep,admissible",
    ],
    "verify-laguerre": [
        "verify", "--kind", "laguerre", "--F1", "1,2", "--F2", "3", "--alpha", "1/2",
        "--checks", "eigen,darboux,altrep,admissible,nonvanish",
    ],
    "verify-laguerre-inadmissible": [
        "verify", "--kind", "laguerre", "--F1", "1", "--F2", "2", "--alpha", "1/2",
        "--checks", "eigen,darboux,altrep,admissible,nonvanish",
    ],
    "verify-norms-meixner": [
        "verify", "--kind", "meixner", "--F2", "2,4", "--a", "99/100", "--c", "3",
        "--checks", "norms",
    ],
    "verify-norms-laguerre": [
        "verify", "--kind", "laguerre", "--F2", "1", "--alpha", "1/2", "--checks", "norms",
    ],
    "admissible-meixner": [
        "admissible", "--kind", "meixner", "--F1", "1", "--c", "-7/2",
    ],
    "admissible-laguerre": [
        "admissible", "--kind", "laguerre", "--F1", "1,2", "--F2", "3", "--alpha", "1/2",
    ],
    "sweep-json": ["sweep", "2", "2", "--a", "1/2", "--c", "3", "--alpha", "1/2"],
    "sweep-csv": [
        "sweep", "2", "2", "--a", "1/2", "--c", "3", "--alpha", "1/2", "--format", "csv",
    ],
}


def run_case(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "xoppak", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    # "seconds" is the last key of a verify row, so the comma before it goes too
    stdout = re.sub(r',\n\s*"seconds": [^\n]*', "", proc.stdout)
    return proc.returncode, stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, stdout = run_case(CASES[name])
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exit_codes[name]
    assert stdout == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], stdout = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
