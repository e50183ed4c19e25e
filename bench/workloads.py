"""The four workloads: inputs made from a seed, one round of operations, and
the checks of every output.

A round is a fixed list of operations run one at a time by one client (a
closed loop).  Every operation starts cold, as a fresh ``xoppak`` process
would: the classical basis caches and mpmath's quadrature node caches are
emptied first.  ``sweep-pairs`` is the one exception, as one operation is one
cell of a single ``xoppak sweep`` call, so its cells share the caches the way
they do inside that call; the round starts cold.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

import mpmath

import oracles
from xoppak import classical, cli, sweep
from xoppak import laguerre as lag
from xoppak import meixner as mex
from xoppak.classical import LaguerreParams, MeixnerParams
from xoppak.exact import rat
from xoppak.pairs import PairSpec, enumerate_pairs


@dataclass
class Round:
    wall_s: float
    op_s: list  # latency of each operation attempted
    failed: int
    outputs: list  # one per operation that did not fail, None for one that did


def cold():
    """Empty the process-wide caches a fresh xoppak process starts without."""
    classical._meixner_cached.cache_clear()
    classical._laguerre_cached.cache_clear()
    mpmath.mp._tanh_sinh.clear()
    mpmath.mp._gauss_legendre.clear()


def call_cli(argv):
    """(exit code, standard output) of one in-process `xoppak` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _family_flags(kind, f1, f2, params):
    flags = ["--kind", kind, "--F1", ",".join(map(str, f1)), "--F2", ",".join(map(str, f2))]
    names = ("--a", "--c") if kind == "meixner" else ("--alpha",)
    for name, value in zip(names, params):
        flags += [name, value]
    return flags


class OpWorkload:
    """A round that runs ``self.ops`` in order, each from cold."""

    ops: list

    def run_round(self) -> Round:
        op_s, outputs, failed = [], [], 0
        start = perf_counter()
        for op in self.ops:
            cold()
            t0 = perf_counter()
            try:
                out = self.execute(op)
            except Exception:  # one failed operation must not end the run
                traceback.print_exc()
                out = None
            op_s.append(perf_counter() - t0)
            if out is None or not self.succeeded(out):
                failed += 1
                out = None
            outputs.append(out)
        return Round(perf_counter() - start, op_s, failed, outputs)

    def succeeded(self, out) -> bool:
        return True

    def check(self, rounds) -> list:
        problems = []
        for r in rounds:
            for op, out in zip(self.ops, r.outputs):
                if out is not None:
                    problems += self.check_output(op, out)
        return problems + self.check_apart()

    def check_apart(self) -> list:
        return []


class CliWorkload(OpWorkload):
    # exit codes of a call that ran to its end; any other one fails the operation
    COMPLETED = (0,)

    def execute(self, op):
        return call_cli(op.argv)

    def succeeded(self, out) -> bool:
        return out[0] in self.COMPLETED


# -- eigen-grid ------------------------------------------------------------------

MEIXNER_PARAMS = [(a, c) for a in ("1/3", "1/2", "2/3") for c in ("3", "5/2", "-1/2")]
ALPHAS = ("1/2", "-1/2", "-3/2")


@dataclass(frozen=True)
class EigenOp:
    kind: str
    f1: tuple
    f2: tuple
    params: tuple
    n: int


def _size(pair):
    return (pair.u + pair.k, pair.k1, pair.k2)


class EigenGrid(OpWorkload):
    """Exact eigen-residuals over a seeded slice of the criterion-1 grid.

    The pairs of enumerate_pairs(5, 4) fall into classes of equal u, k1 and
    k2, whose determinants and members have the same sizes.  A round takes
    the three largest pairs, and one seeded pair from each of six classes
    spread over the sizes, so that every seed does about the same work.
    Each pair runs both kinds at every degree of sigma up to u+8.  The nine
    pairs take the nine Meixner (a, c) and the three alphas in a fixed turn,
    since the parameters change the cost of a residual by up to a fifth.
    """

    name = "eigen-grid"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        pairs = sorted(enumerate_pairs(5, 4), key=_size)
        largest = pairs[-3:]
        classes = {}
        for pair in pairs[:-3]:
            classes.setdefault(_size(pair), []).append(pair)
        shared = [group for group in classes.values() if len(group) > 1]
        count = 2 if small else 6
        picked = [rng.choice(shared[i * len(shared) // count])
                  for i in range(count)]
        if not small:
            picked += largest
        self.ops = []
        self.families = []
        for i, pair in enumerate(picked):
            degrees = [n for n in range(pair.u, pair.u + 9) if pair.sigma_contains(n)]
            if small:
                degrees = degrees[:2]
            f1, f2 = pair.F1.elems, pair.F2.elems
            for kind, params in (
                ("meixner", MEIXNER_PARAMS[i % len(MEIXNER_PARAMS)]),
                ("laguerre", (ALPHAS[i % len(ALPHAS)],)),
            ):
                self.families.append((kind, f1, f2, params, degrees))
                self.ops += [EigenOp(kind, f1, f2, params, n) for n in degrees]

    def execute(self, op):
        pair = PairSpec(op.f1, op.f2)
        if op.kind == "meixner":
            fam = mex.MeixnerExcFamily(MeixnerParams(*map(rat, op.params)), pair)
            return mex.eigen_residual(op.n, fam)
        fam = lag.LaguerreExcFamily(LaguerreParams(rat(op.params[0])), pair)
        return lag.eigen_residual(op.n, fam)

    def check_output(self, op, residual):
        if residual.is_zero:
            return []
        return [f"{op}: nonzero eigen-residual of degree {residual.degree}"]

    def check_apart(self):
        # the three smallest pairs, both kinds: members against the
        # defining determinants rebuilt in sympy
        problems = []
        for kind, f1, f2, params, degrees in self.families[:6]:
            pair = PairSpec(f1, f2)
            if kind == "meixner":
                fam = mex.MeixnerExcFamily(MeixnerParams(*map(rat, params)), pair)
                member = fam.m
            else:
                fam = lag.LaguerreExcFamily(LaguerreParams(rat(params[0])), pair)
                member = fam.member
            for n in degrees[:2]:
                want = oracles.member_by_determinant(kind, f1, f2, params, n)
                if list(member(n).coeffs) != want:
                    problems.append(f"{kind} F1={f1} F2={f2} {params}: member {n} "
                                    f"differs from the sympy determinant")
        return problems


# -- verify-numeric --------------------------------------------------------------

DEFAULT_CHECKS = {
    "meixner": ["eigen", "duality", "darboux", "altrep", "norms", "orthogonality",
                "admissible"],
    "laguerre": ["eigen", "darboux", "altrep", "norms", "orthogonality", "admissible",
                 "nonvanish", "limit"],
}


@dataclass(frozen=True)
class CliOp:
    verb: str
    kind: str
    f1: tuple
    f2: tuple
    params: tuple
    checks: tuple = ()

    @property
    def argv(self):
        flags = [self.verb] + _family_flags(self.kind, self.f1, self.f2, self.params)
        return flags + (["--checks", ",".join(self.checks)] if self.checks else [])


class VerifyNumeric(CliWorkload):
    """`xoppak verify` with the default checks on four admissible families.

    The families are fixed; the seed sets their order.  The a=4/5 family shows
    how the exact summation terms grow as a approaches 1.
    """

    name = "verify-numeric"
    COMPLETED = (0, 4)  # 4: the report is complete but a check failed
    FAMILIES = (
        CliOp("verify", "meixner", (1, 2), (1,), ("1/2", "3")),
        CliOp("verify", "meixner", (1, 2), (1,), ("4/5", "3")),
        CliOp("verify", "laguerre", (), (1,), ("1/2",)),
        CliOp("verify", "laguerre", (1,), (), ("-3/2",)),
    )
    SMALL = (
        CliOp("verify", "meixner", (1, 2), (1,), ("1/2", "3"), ("eigen", "darboux", "norms")),
        CliOp("verify", "laguerre", (), (1,), ("1/2",), ("eigen", "darboux", "norms")),
        CliOp("verify", "laguerre", (1,), (), ("-3/2",), ("darboux", "altrep")),
    )
    # one norm of one family of each kind is recomputed apart from the program
    NORM_FAMILIES = (FAMILIES[0], FAMILIES[2])

    def __init__(self, seed, small=False):
        self.ops = list(self.SMALL if small else self.FAMILIES)
        random.Random(seed).shuffle(self.ops)

    def check_output(self, op, out):
        report = json.loads(out[1])
        statuses = {row["check"]: row["status"] for row in report["checks"]}
        expected = list(op.checks) or DEFAULT_CHECKS[op.kind]
        problems = [f"{op}: exit code {out[0]}"] if out[0] != 0 else []
        if list(statuses) != expected:
            problems.append(f"{op}: checks {list(statuses)}, expected {expected}")
        for name, status in statuses.items():
            want = "refused" if name == "darboux" and not op.f2 else "pass"
            if status != want:
                problems.append(f"{op}: {name} is {status}, expected {want}")
        return problems

    def check_apart(self):
        problems = []
        for op in self.NORM_FAMILIES:
            u = oracles.degree_offset(op.f1, op.f2)
            r = next(n for n in itertools.count(u) if n - u not in op.f1)
            code, text = call_cli(replace(op, verb="construct").argv + ["--n", str(r)])
            if code != 0:
                problems.append(f"{op}: construct exited {code}")
                continue
            payload = json.loads(text)
            if op.kind == "meixner":
                err = oracles.meixner_norm_error(payload, r)
            else:
                err = oracles.laguerre_norm_error(payload, r)
            if not err < 1e-25:
                problems.append(f"{op}: norm of member {r} is off the closed form by {err:.3g}")
        return problems


# -- sweep-pairs -----------------------------------------------------------------

_OMEGA_ZERO = re.compile(r"Omega vanishes at x=(-?\d+)")


class SweepPairs:
    """`xoppak sweep 4 4 --a 1/2 --c 3 --alpha 1/2 --jobs 1`; one operation
    is one cell.  The input is fixed, so the seed changes nothing."""

    name = "sweep-pairs"
    PARAMS = {"a": "1/2", "c": "3", "alpha": "1/2"}

    def __init__(self, seed, small=False):
        self.max_elem, self.max_card = (2, 2) if small else (4, 4)

    @property
    def argv(self):
        out = ["sweep", str(self.max_elem), str(self.max_card), "--jobs", "1"]
        for name, value in self.PARAMS.items():
            out += [f"--{name}", value]
        return out

    def run_round(self) -> Round:
        cell_s = []
        run_cell = sweep.run_cell

        def timed_cell(spec):
            t0 = perf_counter()
            try:
                return run_cell(spec)
            finally:
                cell_s.append(perf_counter() - t0)

        cold()
        sweep.run_cell = timed_cell
        start = perf_counter()
        try:
            code, text = call_cli(self.argv)
        except Exception:  # a crashed sweep fails the cells it reached
            traceback.print_exc()
            code, text = None, ""
        finally:
            wall = perf_counter() - start
            sweep.run_cell = run_cell
        if code == 0:
            return Round(wall, cell_s, 0, [text])
        return Round(wall, cell_s or [wall], len(cell_s) or 1, [None])

    def expected_cells(self) -> int:
        universe = range(1, self.max_elem + 1)
        subsets = [s for r in range(self.max_card + 1)
                   for s in itertools.combinations(universe, r)]
        pairs = sum(1 for s1, s2 in itertools.product(subsets, subsets)
                    if (s1 or s2) and len(s1) + len(s2) <= self.max_card)
        return 4 * pairs  # two kinds times two checks

    def check(self, rounds) -> list:
        problems = []
        want = self.expected_cells()
        zeros = {}
        for r in rounds:
            if r.outputs[0] is None:
                continue
            report = json.loads(r.outputs[0])
            cells = report["cells"]
            if report["total"] != want or len(cells) != want:
                problems.append(f"sweep has {report['total']} cells, expected {want}")
            if report["counterexamples"] or any(c["ok"] is False for c in cells):
                problems.append(f"sweep found {len(report['counterexamples'])} counterexamples")
            for cell in cells:
                if cell["ok"] is None:
                    match = _OMEGA_ZERO.search(cell["skipped"])
                    if match is None:
                        problems.append(f"cell {cell} skipped without a zero of Omega")
                        continue
                    params = ((self.PARAMS["a"], self.PARAMS["c"]) if cell["kind"] == "meixner"
                              else (self.PARAMS["alpha"],))
                    key = (cell["kind"], tuple(cell["f1"]), tuple(cell["f2"]), params,
                           int(match.group(1)))
                    zeros[key] = cell
        for (kind, f1, f2, params, point), cell in zeros.items():
            if oracles.omega_at(kind, f1, f2, params, point) != 0:
                problems.append(f"cell {cell}: Omega({point}) is not zero")
        return problems


# -- construct-ladder ------------------------------------------------------------


def spread_pair(k):
    """F1 the first ceil(k/2) odd numbers, F2 the first floor(k/2) even ones."""
    return tuple(range(1, k + 1, 2)), tuple(range(2, k + 1, 2))


class ConstructLadder(CliWorkload):
    """`xoppak construct` for both kinds on the spread pairs of k = 7..10
    (at k = 10, deg Omega = 35).  The pairs are fixed; the seed sets the
    order of the operations."""

    name = "construct-ladder"
    MEIXNER = ("1/2", "5/2")
    ALPHA = ("1/2",)

    def __init__(self, seed, small=False):
        self.ops = []
        for k in (2, 3) if small else range(7, 11):
            f1, f2 = spread_pair(k)
            self.ops.append(CliOp("construct", "meixner", f1, f2, self.MEIXNER))
            self.ops.append(CliOp("construct", "laguerre", f1, f2, self.ALPHA))
        random.Random(seed).shuffle(self.ops)

    def check_output(self, op, out):
        return oracles.construct_problems(json.loads(out[1]))


WORKLOADS = {w.name: w for w in (EigenGrid, VerifyNumeric, SweepPairs, ConstructLadder)}
