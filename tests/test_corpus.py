"""A committed output corpus: the hash of every run's exit code and stdout.

Each run calls `cli.main` in-process and drops the `seconds` fields
(wall-clock timings), as the goldens do.  `tests/golden/corpus.json` maps
each run's name to the SHA-256 of its exit code and stdout; a mismatch names
every run that changed.  A change of output on purpose regenerates the file
with `python tests/test_corpus.py`.

What the runs exercise:

- `meixner <pair>`: every Meixner check on each pair of `enumerate_pairs(3,
  3)` at a = 1/2, c = 3.  15 of the 41 pairs are admissible there: their
  norms take the Darboux chain and their orthogonality decides the weight's
  sign; the others refuse norms and orthogonality with the admissibility
  reason, and altrep with Omega's integer zero where it has one.
- `laguerre <pair>`: every Laguerre check but norms on the same pairs at
  alpha = 1/2: eigen, darboux, altrep, orthogonality, admissible, nonvanish
  and the exact limit.  Norms fall back to quadrature on most of these
  pairs, which would cost seconds; the named runs below cover norms.
- `meixner norms,orthogonality a=...`: the chain norms and the positive
  weight of (1,2; -) at a = 1/2, 4/5 and 99/100, where Omega's root bound
  grows like 1/(1 - a), and of (1,2; 1) at a = 4/5.
- `meixner omega zero`: (1; -) at a = 1/2, c = 3, whose Omega vanishes at
  x = 3: the altrep refusal names that zero.
- `laguerre nonvanish pass` and `laguerre nonvanish refused`: Omega without
  a root on [0, inf) for (1,2; 3) at alpha = 1/2, and an inadmissible pair.
- `laguerre numeric norms alpha<-1`: (1; -) at alpha = -3/2, where no chain
  step exists and the norms are tail-bounded quadrature (its floats depend on
  mpmath's quadrature, so a new mpmath may need the file regenerated).
- `sweep 3 3`, two `construct` runs and two `admissible` runs.
"""
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from xoppak import cli, meixner
from xoppak.exact import AdmissibilityRefusal
from xoppak.pairs import enumerate_pairs

CORPUS = Path(__file__).parent / "golden" / "corpus.json"

MEIXNER_CHECKS = "eigen,duality,darboux,altrep,norms,orthogonality,admissible"
LAGUERRE_CHECKS = "eigen,darboux,altrep,orthogonality,admissible,nonvanish,limit"


def _sets(pair):
    return ["--F1", ",".join(map(str, pair.F1.elems)), "--F2", ",".join(map(str, pair.F2.elems))]


NAMED = {
    **{f"meixner norms,orthogonality a={a}": [
        "verify", "--kind", "meixner", "--F1", "1,2", "--a", a, "--c", "3",
        "--checks", "norms,orthogonality"] for a in ("1/2", "4/5", "99/100")},
    "meixner norms,orthogonality (1,2; 1) a=4/5": [
        "verify", "--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "4/5", "--c", "3",
        "--checks", "norms,orthogonality"],
    "meixner omega zero": ["verify", "--kind", "meixner", "--F1", "1", "--a", "1/2", "--c", "3"],
    "laguerre nonvanish pass": [
        "verify", "--kind", "laguerre", "--F1", "1,2", "--F2", "3", "--alpha", "1/2",
        "--checks", "nonvanish,orthogonality"],
    "laguerre nonvanish refused": [
        "verify", "--kind", "laguerre", "--F1", "1", "--F2", "2", "--alpha", "1/2",
        "--checks", "nonvanish,orthogonality"],
    "laguerre numeric norms alpha<-1": [
        "verify", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2",
        "--checks", "norms,nonvanish"],
    "sweep 3 3": ["sweep", "3", "3", "--a", "1/2", "--c", "3", "--alpha", "1/2"],
    "construct meixner": [
        "construct", "--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "4/5", "--c", "3"],
    "construct laguerre": ["construct", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"],
    "admissible meixner": ["admissible", "--kind", "meixner", "--F1", "1,2", "--c", "3"],
    "admissible laguerre": [
        "admissible", "--kind", "laguerre", "--F1", "1", "--F2", "2", "--alpha", "1/2"],
}

RUNS = {
    **NAMED,
    **{f"meixner {pair!r}": ["verify", "--kind", "meixner", *_sets(pair), "--a", "1/2",
                             "--c", "3", "--checks", MEIXNER_CHECKS]
       for pair in enumerate_pairs(3, 3)},
    **{f"laguerre {pair!r}": ["verify", "--kind", "laguerre", *_sets(pair), "--alpha", "1/2",
                              "--checks", LAGUERRE_CHECKS]
       for pair in enumerate_pairs(3, 3)},
}


def digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    # "seconds" is the last key of a verify row, so the comma before it goes too
    stdout = re.sub(r',\n\s*"seconds": [^\n]*', "", out.getvalue())
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def changed_runs(names) -> list:
    """The names among `names` whose hash differs from the committed one."""
    want = json.loads(CORPUS.read_text())
    return [name for name in names if digest(RUNS[name]) != want.get(name)]


def test_corpus_is_unchanged():
    assert sorted(json.loads(CORPUS.read_text())) == sorted(RUNS)
    assert changed_runs(RUNS) == []


def test_a_planted_kappa_changes_the_corpus(perturb_chain):
    perturb_chain(meixner, "kappa")
    assert "meixner norms,orthogonality a=1/2" in changed_runs(NAMED)


def test_an_edited_reason_changes_the_corpus(monkeypatch):
    refuse = meixner._refuse_unless_positive

    def edited(fam):
        try:
            refuse(fam)
        except AdmissibilityRefusal as exc:
            raise AdmissibilityRefusal(str(exc).replace("needs", "requires"))

    monkeypatch.setattr(meixner, "_refuse_unless_positive", edited)
    assert changed_runs(NAMED) == ["meixner omega zero"]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({name: digest(argv) for name, argv in RUNS.items()},
                                 indent=1, sort_keys=True) + "\n")
