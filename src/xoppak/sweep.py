"""Conjecture sweeps over enumerated pairs.

Each cell runs one check (the reflection invariance of Omega or the
involuted-representation equality) on one family at fixed parameters, and
returns a plain dict of primitives.  The two cells of a (kind, pair) run one
after the other and share one build of their family.  Cells can run in a
worker pool, and the report is the same with or without it: the cell order
is fixed by the pair enumeration, and a cell's result does not depend on
which cell built its family.
"""
from __future__ import annotations

import functools
import os

from . import laguerre as _lag
from . import meixner as _mex
from .classical import LaguerreParams, MeixnerParams
from .exact import DomainError, ParameterError, PoleError, poly_strings, rat
from .pairs import PairSpec, enumerate_pairs


def _meixner(pair, a, c):
    return _mex.MeixnerExcFamily(MeixnerParams(a, c), pair)


def _krawtchouk(pair, a, c):
    return _mex.MeixnerExcFamily(MeixnerParams.formal(-rat(a), c), pair)


def _laguerre(pair, alpha):
    return _lag.LaguerreExcFamily(LaguerreParams(alpha), pair)


# --kind -> (family module, builder, formal).  The builder takes the pair and
# the values of the module's PARAMS in their order, which may be strings: the
# parameter classes convert them.  krawtchouk is the meixner family at the
# formal parameters (-a, c = -N + 1), which the check suite and the
# admissibility test do not cover.
KINDS = {
    "meixner": (_mex, _meixner, False),
    "laguerre": (_lag, _laguerre, False),
    "krawtchouk": (_mex, _krawtchouk, True),
}


def _cell_id(kind, check, pair: PairSpec):
    return {
        "kind": kind,
        "check": check,
        "f1": list(pair.F1.elems),
        "f2": list(pair.F2.elems),
    }


@functools.lru_cache(maxsize=1)
def _family(kind, f1, f2, values):
    """The family of one (kind, F1, F2, parameter values): the invariance
    cell and the altrep cell that follows it read the same build.  A build
    that raises is not kept, so both cells skip with its reason."""
    _, build, _ = KINDS[kind]
    return build(PairSpec(f1, f2), *values)


def run_cell(spec: tuple) -> dict:
    """One (check, kind, F1, F2, parameter values) cell; everything in the
    cell tuple is a primitive so the pool can ship it between processes.
    The family comes from `_family`, shared with the other cell of its pair."""
    check, kind, f1, f2, values = spec
    pair = PairSpec(f1, f2)
    out = _cell_id(kind, check, pair)
    mod = KINDS[kind][0]
    try:
        fam = _family(kind, f1, f2, values)
        if check == "invariance":
            rep = mod.invariance_conjecture(fam)
        else:
            rep = mod.alt_representation(pair.v, fam)
    except (DomainError, ParameterError, PoleError) as exc:
        out["ok"] = None
        out["skipped"] = str(exc)
        return out
    out["ok"] = bool(rep.matches)
    if not rep.matches:
        out["discrepancy"] = poly_strings(rep.discrepancy)
        if check == "altrep":
            out["n"] = pair.v
    return out


def sweep_specs(max_elem: int, max_card: int, params: dict):
    """Cell specs for the sweep, ordered by (F1, F2) then kind then check;
    params maps each swept kind to its values in the order of its PARAMS."""
    values = {kind: tuple(map(str, vals)) for kind, vals in params.items()}
    return [(check, kind, pair.F1.elems, pair.F2.elems, vals)
            for pair in enumerate_pairs(max_elem, max_card)
            for kind, vals in values.items() for check in ("invariance", "altrep")]


def run_sweep(max_elem, max_card, params: dict, jobs=1) -> dict:
    """Run every cell and aggregate counts plus counterexample artifacts.

    jobs > 1 runs the cells in a worker pool of at most that many processes,
    and never more than the CPUs or the cells.

    A counterexample cell carries the full discrepancy polynomial so the
    report alone reproduces the finding; skipped cells record why their
    check's precondition failed, or the pole the check ran into.
    """
    specs = sweep_specs(max_elem, max_card, params)
    _family.cache_clear()  # every sweep builds its families afresh
    # a worker beyond the cores or the cells would only sit idle
    workers = min(jobs, os.cpu_count() or 1, len(specs))
    if workers > 1:
        # imported here, as it costs every other command time and memory
        from multiprocessing import Pool

        with Pool(processes=workers) as pool:
            cells = pool.map(run_cell, specs)
    else:
        cells = [run_cell(s) for s in specs]
    counterexamples = [c for c in cells if c["ok"] is False]
    skipped = [c for c in cells if c["ok"] is None]
    return {
        "max_elem": max_elem,
        "max_card": max_card,
        "cells": cells,
        "total": len(cells),
        "passed": sum(1 for c in cells if c["ok"] is True),
        "skipped": len(skipped),
        "counterexamples": counterexamples,
    }
