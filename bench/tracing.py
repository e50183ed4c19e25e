"""Per-layer tracing of xoppak from outside the program.

A :class:`Tracer` replaces the public functions of each layer with timing
wrappers for the length of a ``with`` block and puts the originals back on
exit.  A function can be reachable under several names: ``from .exact import
poly_det`` binds it again inside ``meixner`` and ``laguerre``, and
``Poly.__rmul__ = __mul__`` makes an alias inside the class.  Every binding
of the same function object, in every loaded ``xoppak`` module and in the
classes listed below, gets the same wrapper, so no call escapes the trace.

Spans nest.  A span's self time is its duration minus the durations of the
wrapped spans it called, so the self times of all spans add up to the time
spent inside wrapped code.
"""
from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> the public functions it covers, as "module.attr" or
# "module.Class.attr" below the xoppak package
SPANS = {
    "exact.poly_mul": ("exact.Poly.__mul__", "exact.Poly.__pow__"),
    "exact.poly_addsub": (
        "exact.Poly.__add__",
        "exact.Poly.__sub__",
        "exact.Poly.__rsub__",
        "exact.Poly.__neg__",
    ),
    "exact.poly_shift": ("exact.Poly.shift",),
    "exact.poly_eval": ("exact.Poly.__call__",),
    "exact.poly_divmod": ("exact.Poly.__divmod__",),
    "exact.poly_gcd": ("exact.poly_gcd",),
    "exact.poly_det": ("exact.poly_det",),
    "exact.rational_det": ("exact.rational_det",),
    "exact.pochhammer": ("exact.pochhammer",),
    "exact.ratfunc": ("exact.RatFunc.__init__",),
    "classical.basis": ("classical.meixner_raw", "classical.meixner", "classical.laguerre"),
    "meixner.build": ("meixner.MeixnerExcFamily.__init__",),
    "meixner.member": ("meixner.MeixnerExcFamily.m",),
    "meixner.eigen_residual": ("meixner.eigen_residual",),
    "meixner.operator": ("meixner.operator",),
    "meixner.altrep": ("meixner.alt_representation",),
    "meixner.invariance": ("meixner.invariance_conjecture",),
    "meixner.inner_product": ("meixner.inner_product",),
    "meixner.norm": ("meixner.norm_identity",),
    "meixner.darboux": (
        "meixner.darboux_pair",
        "meixner.darboux_identities",
        "meixner.darboux_intertwining",
    ),
    "meixner.duality": ("meixner.duality_check",),
    "laguerre.build": ("laguerre.LaguerreExcFamily.__init__",),
    "laguerre.member": ("laguerre.LaguerreExcFamily.member",),
    "laguerre.eigen_residual": ("laguerre.eigen_residual",),
    "laguerre.operator": ("laguerre.operator",),
    "laguerre.altrep": ("laguerre.alt_representation",),
    "laguerre.invariance": ("laguerre.invariance_conjecture",),
    "laguerre.inner_product": ("laguerre.inner_product",),
    "laguerre.norm": ("laguerre.norm_formula",),
    "laguerre.darboux": (
        "laguerre.darboux_pair",
        "laguerre.darboux_identities",
        "laguerre.darboux_intertwining",
    ),
    "laguerre.limit": ("laguerre.limit_from_meixner",),
    "operators.compose": (
        "operators.DifferenceOperator.compose",
        "operators.DifferentialOperator.compose",
    ),
    "operators.apply": (
        "operators.DifferenceOperator.apply",
        "operators.DifferentialOperator.apply",
    ),
    "numerics.certified_sum": ("numerics.certified_sum",),
    "numerics.quad": ("numerics.laguerre_type_integral",),
    "sweep.cell": ("sweep.run_cell",),
    "cli.emit": ("cli._emit",),
}

# classes whose attribute dictionaries are searched for aliases
CLASSES = (
    "exact.Poly",
    "exact.RatFunc",
    "meixner.MeixnerExcFamily",
    "laguerre.LaguerreExcFamily",
    "operators.DifferenceOperator",
    "operators.DifferentialOperator",
)

_CALL_COUNTS = (
    "exact.poly_mul",
    "exact.poly_shift",
    "exact.poly_det",
    "exact.poly_gcd",
    "exact.ratfunc",
    "meixner.eigen_residual",
    "laguerre.eigen_residual",
    "numerics.certified_sum",
    "numerics.quad",
)

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"{span}.s", "s", "lower") for span in SPANS]
    + [(f"{span}.calls", "count", "lower") for span in _CALL_COUNTS]
    + [
        ("exact.poly_det.order_max", "rows", "lower"),
        ("numerics.certified_sum.terms", "count", "lower"),
        ("classical.basis.hit_ratio", "ratio", "higher"),
        ("sweep.cell.p50_ms", "ms", "lower"),
        ("sweep.cell.p90_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _lookup(path: str):
    """The object at "module[.Class][.attr]" below the xoppak package."""
    parts = path.split(".")
    obj = sys.modules[f"xoppak.{parts[0]}"]
    for name in parts[1:]:
        obj = vars(obj)[name]
    return obj


def binding_owners():
    """Every namespace a wrapped function can be looked up from."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "xoppak" or name.startswith("xoppak.")]
    return modules + [_lookup(path) for path in CLASSES]


class Tracer:
    """Self time and call counts per span while the ``with`` block runs."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.cell_s = []
        self.det_order_max = 0
        self.sum_terms = 0
        self.basis_hits = 0
        self._stack = []
        self._patches = []

    def __enter__(self):
        import xoppak.cli  # noqa: F401  (loads every layer)
        from xoppak import classical

        caches = (classical._meixner_cached, classical._laguerre_cached)
        hooks = {
            "exact.poly_det": self._note_det,
            "numerics.certified_sum": self._note_sum,
            "sweep.cell": self._note_cell,
        }
        owners = binding_owners()
        try:
            for span, paths in SPANS.items():
                for path in paths:
                    original = _lookup(path)
                    if span == "classical.basis":
                        wrapper = self._basis_wrapper(original, caches)
                    else:
                        wrapper = self._wrapper(span, original, hooks.get(span))
                    for owner in owners:
                        for attr, value in list(vars(owner).items()):
                            if value is original:
                                self._patches.append((owner, attr, original))
                                setattr(owner, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _wrapper(self, span, fn, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[span] += elapsed - stack.pop()
                calls[span] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_det(self, args, result, elapsed):
        self.det_order_max = max(self.det_order_max, len(_rows(args[0])))

    def _note_sum(self, args, result, elapsed):
        self.sum_terms += result.terms

    def _note_cell(self, args, result, elapsed):
        self.cell_s.append(elapsed)

    def _basis_wrapper(self, fn, caches):
        # each public basis call makes exactly one lookup in one of the
        # caches; it was a hit when no cache recorded a miss meanwhile
        timed = self._wrapper("classical.basis", fn)

        def traced(*args, **kwargs):
            misses = sum(c.cache_info().misses for c in caches)
            result = timed(*args, **kwargs)
            if sum(c.cache_info().misses for c in caches) == misses:
                self.basis_hits += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s."""
        out = {f"{span}.s": self.self_s[span] for span in SPANS}
        out.update({f"{span}.calls": self.calls[span] for span in _CALL_COUNTS})
        lookups = self.calls["classical.basis"]
        cells_ms = [1000 * s for s in self.cell_s]
        out.update(
            {
                "exact.poly_det.order_max": self.det_order_max,
                "numerics.certified_sum.terms": self.sum_terms,
                "classical.basis.hit_ratio": self.basis_hits / lookups if lookups else 0.0,
                "sweep.cell.p50_ms": statistics.median(cells_ms) if cells_ms else 0.0,
                "sweep.cell.p90_ms": _p90(cells_ms),
            }
        )
        return out


def _rows(matrix):
    rows = getattr(matrix, "rows", None)
    return range(rows) if isinstance(rows, int) else matrix


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]
