"""Sweep layer: enumeration, cell execution, aggregation."""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import xoppak
from xoppak import cli, meixner, sweep
from xoppak.exact import PoleError, rat
from xoppak.sweep import run_cell, run_sweep, sweep_specs

MEX = {"meixner": (rat(1, 2), rat(3))}
LAG = {"laguerre": (rat(1, 2),)}
BOTH = {**MEX, **LAG}


def test_sweep_small_counts():
    rep = run_sweep(3, 3, BOTH)
    assert rep["max_elem"] == 3
    assert rep["max_card"] == 3
    assert rep["total"] == 164
    assert rep["passed"] == 161
    assert rep["skipped"] == 3
    assert rep["counterexamples"] == []


def test_sweep_skips_carry_reasons():
    rep = run_sweep(3, 3, BOTH)
    skipped = [c for c in rep["cells"] if c["ok"] is None]
    assert len(skipped) == 3
    for cell in skipped:
        assert "vanishes" in cell["skipped"]
        assert cell["kind"] == "meixner"
        assert cell["check"] == "altrep"


def test_sweep_empty_enumeration():
    rep = run_sweep(3, 0, BOTH)
    assert rep["total"] == 0
    assert rep["passed"] == 0
    assert rep["cells"] == []


def test_sweep_single_kind():
    rep = run_sweep(2, 2, LAG)
    assert rep["total"] == 20
    assert all(c["kind"] == "laguerre" for c in rep["cells"])
    rep = run_sweep(2, 2, MEX)
    assert all(c["kind"] == "meixner" for c in rep["cells"])


def test_sweep_deterministic_order():
    specs = sweep_specs(2, 2, BOTH)
    # four cells per enumerated pair (two kinds times two checks), in the
    # sorted pair order, so the pair sequence is grouped and non-decreasing
    pairs = [(s[2], s[3]) for s in specs]
    assert pairs == sorted(pairs)
    assert specs[0][2] == () and specs[0][3] == (1,)
    kinds = {s[1] for s in specs[:4]}
    assert kinds == {"meixner", "laguerre"}


def test_sweep_parallel_matches_serial():
    serial = run_sweep(2, 2, BOTH, jobs=1)
    parallel = run_sweep(2, 2, BOTH, jobs=2)
    assert serial["cells"] == parallel["cells"]


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(item) for item in items]


def test_sweep_workers_are_capped(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    # sweep 1 1 over one kind has 4 cells: two pairs, two checks each
    for cpus, jobs, size in ((3, 1000, 3), (3, 2, 2), (64, 1000, 4)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = run_sweep(1, 1, MEX, jobs=jobs)
        assert rep["total"] == 4 and rep["passed"] + rep["skipped"] == 4
        assert RecordingPool.sizes[-1] == size, (cpus, jobs)
    # one worker, one core or no cell at all starts no pool
    for cpus, jobs, max_card in ((3, 1, 1), (1, 8, 1), (3, 8, 0)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run_sweep(1, max_card, MEX, jobs=jobs)
    assert len(RecordingPool.sizes) == 3


def test_command_line_loads_no_process_pool():
    # only `sweep --jobs` above 1 needs multiprocessing, so a fresh import of
    # the command line tool must not pay for loading it
    src = str(Path(xoppak.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, xoppak.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_run_cell_invariance_pass():
    out = run_cell(("invariance", "laguerre", (1,), (), (rat(-3, 2),)))
    assert out["ok"] is True
    assert out["check"] == "invariance"
    assert out["f1"] == [1]


def test_run_cell_skip_reports_reason():
    # Omega for this meixner family vanishes at a natural number, so the
    # alternative representation is undefined there and the cell skips
    out = run_cell(("altrep", "meixner", (1,), (), (rat(1, 2), rat(3))))
    assert out["ok"] is None
    assert "vanishes" in out["skipped"]


def test_a_pole_in_one_cell_skips_that_cell_only(capsys, monkeypatch):
    argv = ["sweep", "3", "3", "--a", "1/2", "--c", "3", "--alpha", "1/2", "--jobs", "1"]
    assert cli.main(argv) == 0
    before = json.loads(capsys.readouterr().out)

    invariance = meixner.invariance_conjecture

    def pole_at_one_pair(fam):
        if fam.pair.F1.elems == (1,) and fam.pair.F2.elems == (2,):
            raise PoleError("evaluation at pole 5")
        return invariance(fam)

    monkeypatch.setattr(meixner, "invariance_conjecture", pole_at_one_pair)
    assert cli.main(argv) == 0
    after = json.loads(capsys.readouterr().out)
    hit = [i for i, (x, y) in enumerate(zip(before["cells"], after["cells"])) if x != y]
    assert len(hit) == 1 and len(after["cells"]) == len(before["cells"])
    cell = after["cells"][hit[0]]
    assert cell == {"kind": "meixner", "check": "invariance", "f1": [1], "f2": [2],
                    "ok": None, "skipped": "evaluation at pole 5"}
    assert after["skipped"] == before["skipped"] + 1
    assert after["passed"] == before["passed"] - 1
    assert after["counterexamples"] == before["counterexamples"] == []


def count_builds(monkeypatch, fail_on=None):
    """Wrap every KINDS builder to count its builds per (kind, F1, F2); the
    builder raises PoleError on the pair fail_on = (kind, F1, F2)."""
    builds = Counter()
    for kind, (mod, build, formal) in list(sweep.KINDS.items()):
        def counted(pair, *values, kind=kind, build=build):
            key = (kind, pair.F1.elems, pair.F2.elems)
            builds[key] += 1
            if key == fail_on:
                raise PoleError("evaluation at pole 7")
            return build(pair, *values)

        monkeypatch.setitem(sweep.KINDS, kind, (mod, counted, formal))
    return builds


def test_each_family_is_built_once_per_sweep(monkeypatch):
    builds = count_builds(monkeypatch)
    rep = run_sweep(3, 3, BOTH)
    # two checks per (kind, pair), one build
    assert len(builds) == rep["total"] // 2
    assert set(builds.values()) == {1}
    specs = sweep_specs(3, 3, BOTH)
    fresh = []
    for spec in specs:  # every cell with a build of its own
        sweep._family.cache_clear()
        fresh.append(run_cell(spec))
    assert rep["cells"] == fresh
    # a second sweep starts cold: it builds every family again, even the one
    # a cell run just before it left in the memo
    builds.clear()
    run_cell(specs[0])
    assert run_sweep(3, 3, BOTH) == rep
    assert len(builds) == rep["total"] // 2
    first = (specs[0][1], specs[0][2], specs[0][3])
    assert builds.pop(first) == 2 and set(builds.values()) == {1}


class ReversedPool(RecordingPool):
    """Maps the cells last to first."""

    def map(self, func, items):
        return [func(item) for item in reversed(items)][::-1]


class ChunkedPool(RecordingPool):
    """Maps the cells in chunks of 3, each as a fresh worker would, so the
    two cells of a (kind, pair) may land in different chunks."""

    def map(self, func, items):
        out = []
        for start in range(0, len(items), 3):
            sweep._family.cache_clear()
            out += [func(item) for item in items[start:start + 3]]
        return out


def test_cells_do_not_depend_on_how_the_pool_splits_them(monkeypatch):
    import multiprocessing

    serial = run_sweep(3, 3, BOTH)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for pool in (ReversedPool, ChunkedPool):
        monkeypatch.setattr(multiprocessing, "Pool", pool)
        assert run_sweep(3, 3, BOTH, jobs=2) == serial, pool.__name__
    assert RecordingPool.sizes == [2, 2]


def test_a_failed_build_skips_both_cells_of_its_pair(monkeypatch):
    before = run_sweep(3, 3, BOTH)
    hit = ("laguerre", (1,), (2,))
    builds = count_builds(monkeypatch, fail_on=hit)
    after = run_sweep(3, 3, BOTH)
    # the failed build is not kept: each of the pair's two cells tries it
    assert builds[hit] == 2
    assert set(count for key, count in builds.items() if key != hit) == {1}
    skipped = [i for i, c in enumerate(after["cells"])
               if (c["kind"], tuple(c["f1"]), tuple(c["f2"])) == hit]
    assert [after["cells"][i]["check"] for i in skipped] == ["invariance", "altrep"]
    assert {after["cells"][i]["skipped"] for i in skipped} == {"evaluation at pole 7"}
    assert all(after["cells"][i]["ok"] is None for i in skipped)
    # every other cell, the next pair's included, is as before
    assert [c for i, c in enumerate(after["cells"]) if i not in skipped] == [
        c for i, c in enumerate(before["cells"]) if i not in skipped]
    assert before["cells"][skipped[-1] + 1]["ok"] is True
