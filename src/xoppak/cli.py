"""Command line front end: construct families, verify identities, sweep
conjectures, and decide admissibility.

Output is machine readable: JSON (schema "xoppak/1", snake_case keys, every
rational a "p/q" string) or CSV for flat summaries.  Exit codes: 0 success,
2 usage or parameter error, 3 internal inconsistency, 4 check failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .exact import (
    AdmissibilityRefusal,
    DomainError,
    InternalInconsistencyError,
    ParameterError,
    PoleError,
    format_rational,
    poly_strings,
    rat,
)
from . import chain
from .pairs import FiniteSet, PairSpec, admissibility_witnesses, is_admissible
from .sweep import KINDS, run_sweep


class UsageError(Exception):
    """Bad flags or parameters; maps to exit code 2."""


# construct and verify take the degrees u .. u + DEGREE_COUNT - 1 without --n
DEGREE_COUNT = 7
# every kind's parameter flags, in KINDS order
PARAM_NAMES = tuple(dict.fromkeys(name for mod, _, _ in KINDS.values() for name in mod.PARAMS))


class JobSpec:
    """Parsed, validated description of one family job."""

    def __init__(self, kind, pair: PairSpec, params, n_range=None, checks=()):
        self.kind = kind
        self.module, self._build, self.formal = KINDS[kind]
        self.pair = pair
        # the given parameter flags' values by name, in the module's PARAMS order
        self.params = params
        self.n_range = n_range
        self.checks = checks

    def build_family(self):
        names = self.module.PARAMS
        if len(self.params) < len(names):
            hint = " (pass c = -N + 1)" if self.formal else ""
            flags = " and ".join(f"--{name}" for name in names)
            raise UsageError(f"{self.kind} families need {flags}{hint}")
        if self.formal and self.params["a"] in (rat(0), rat(-1)):
            raise UsageError(
                f"{self.kind} parameter a must avoid 0 and -1, got {self.params['a']}")
        return self._build(self.pair, *self.params.values())


# -- parsing helpers ---------------------------------------------------------

def _parse_rational(text, flag):
    try:
        return rat(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} expects a rational like 3 or -5/2, got {text!r}: {exc}")


def _parse_set(text, flag) -> FiniteSet:
    """The set of a comma list of integers; FiniteSet decides which it takes."""
    out = []
    for part in text.split(",") if text.strip() else ():
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise UsageError(f"{flag} expects comma-separated integers, got {part!r}")
    try:
        return FiniteSet(out)
    except ParameterError as exc:
        raise UsageError(f"{flag}: {exc}")


def _parse_n(text):
    if text is None:
        return None
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"--n range expects lo..hi integers, got {text!r}")
        if hi < lo:
            raise UsageError(f"--n range is empty: {text!r}")
        ns = list(range(lo, hi + 1))
    else:
        try:
            ns = [int(text)]
        except ValueError:
            raise UsageError(f"--n expects an integer or lo..hi, got {text!r}")
    if ns[0] < 0:
        raise UsageError(f"--n must be nonnegative, got {ns[0]}")
    return ns


def _refuse_dead_flags(args, kind):
    """A parameter flag the kind has no parameter for is an error, not ignored."""
    names = KINDS[kind][0].PARAMS
    for name in PARAM_NAMES:
        if getattr(args, name) is not None and name not in names:
            takes = " and ".join(f"--{n}" for n in names)
            raise UsageError(f"--{name} does not apply to {kind} families, which take {takes}")


def _sweep_params(args) -> dict:
    """{kind: the parsed values of its parameter flags} for each non-formal kind with any.

    Each kind's classical family is built once, so that parameters every cell
    would refuse are refused before the first cell."""
    params = {}
    for kind, (mod, build, formal) in KINDS.items():
        names = mod.PARAMS
        given = [getattr(args, name) is not None for name in names]
        if formal or not any(given):
            continue
        if not all(given):
            takes = " and ".join(f"--{n}" for n in names)
            missing = ", ".join(f"--{n}" for n, g in zip(names, given) if not g)
            raise UsageError(f"the {kind} cells of a sweep take {takes}; {missing} is missing")
        params[kind] = tuple(_parse_rational(getattr(args, name), f"--{name}") for name in names)
        build(PairSpec([], []), *params[kind])
    if not params:
        raise UsageError("sweep needs --a/--c, --alpha, or both")
    return params


def _job_from_args(args) -> JobSpec:
    kind = args.kind
    _refuse_dead_flags(args, kind)
    pair = PairSpec(_parse_set(args.F1, "--F1"), _parse_set(args.F2, "--F2"))
    params = {name: _parse_rational(getattr(args, name), f"--{name}")
              for name in KINDS[kind][0].PARAMS if getattr(args, name) is not None}
    checks = ()
    if getattr(args, "checks", None):
        checks = tuple(p.strip() for p in args.checks.split(",") if p.strip())
    return JobSpec(
        kind=kind,
        pair=pair,
        params=params,
        n_range=_parse_n(getattr(args, "n", None)),
        checks=checks,
    )


# -- serialization helpers ---------------------------------------------------

def _ratfunc_payload(rf):
    return {"num": poly_strings(rf.num), "den": poly_strings(rf.den)}


def _operator_payload(op, variety, eigen_sign):
    keys = (0, 1, 2) if variety == "differential" else (-1, 0, 1)
    terms = {str(k): _ratfunc_payload(op.coeff(k)) for k in keys}
    return {"variety": variety, "eigenvalue_sign": eigen_sign, "terms": terms}


def _job_header(job: JobSpec) -> dict:
    head = {
        "schema": "xoppak/1",
        "kind": job.kind,
        "f1": list(job.pair.F1.elems),
        "f2": list(job.pair.F2.elems),
    }
    head.update((name, format_rational(val)) for name, val in job.params.items())
    return head


# -- construct ---------------------------------------------------------------

def cmd_construct(job: JobSpec) -> dict:
    fam = job.build_family()
    mod = job.module
    pair = fam.pair
    u = pair.u
    ns = job.n_range if job.n_range is not None else list(range(u, u + DEGREE_COUNT))
    members = []
    for n in ns:
        included = pair.sigma_contains(n)
        p = fam.member(n)
        members.append(
            {
                "n": n,
                "included": included,
                "coeffs": poly_strings(p) if included else [],
            }
        )
    out = _job_header(job)
    out["u"] = u
    out["v"] = pair.v
    out["excluded_degrees"] = [u + f for f in pair.F1]
    out["members"] = members
    for key, poly in mod.reported_polys(fam).items():
        out[key] = poly_strings(poly)
    out["operator"] = _operator_payload(mod.operator(fam), *mod.OPERATOR_PAYLOAD)
    return out


# -- verify ------------------------------------------------------------------

def _degrees(job, fam):
    pair = fam.pair
    ns = job.n_range if job.n_range is not None else range(pair.u, pair.u + DEGREE_COUNT)
    ns = [n for n in ns if pair.sigma_contains(n)]
    if not ns:
        raise DomainError("no degree in the index set to test")
    return ns


def _check_eigen(job, fam):
    bad = []
    ns = _degrees(job, fam)
    for n in ns:
        res = job.module.eigen_residual(n, fam)
        if not res.is_zero:
            bad.append({"n": n, "residual": poly_strings(res)})
    return (
        "pass" if not bad else "fail",
        {"degrees": ns},
        bad or None,
    )


def _check_duality(job, fam):
    vs = fam.pair.sigma_first(4)
    bad = []
    for n in range(4):
        for v in vs:
            if not job.module.duality_check(n, v, fam):
                bad.append({"n": n, "v": v})
    return (
        "pass" if not bad else "fail",
        {"dual_indices": list(range(4)), "members": vs},
        bad or None,
    )


def _check_darboux(job, fam):
    # the kind refuses an empty second set before any degree is looked at
    down_ok, up_ok = job.module.darboux_identities(fam)
    ns = _degrees(job, fam)[:3]
    inter = {n: job.module.darboux_intertwining(fam, n) for n in ns}
    ok = down_ok and up_ok and all(inter.values())
    witness = None
    if not ok:
        witness = {"down": down_ok, "up": up_ok, "intertwining": inter}
    return ("pass" if ok else "fail", {"degrees": ns}, witness)


def _admissible_param(job):
    name, offset = job.module.ADMISSIBILITY
    return job.params[name] + offset


def _check_altrep(job, fam):
    v = fam.pair.v
    results, mismatches = [], []
    for n in range(v, v + 3):
        rep = job.module.alt_representation(n, fam)
        results.append(
            {
                "n": n,
                "matches": rep.matches,
                "constant": None if rep.constant is None else format_rational(rep.constant),
            }
        )
        if not rep.matches:
            mismatches.append({"n": n, "discrepancy": poly_strings(rep.discrepancy)})
    if not mismatches:
        return "pass", {"results": results}, None
    if is_admissible(_admissible_param(job), fam.pair):
        return "fail", {"results": results}, mismatches
    # outside admissibility the equality is only conjectural; record evidence
    return "refused", {"results": results, "evidence": mismatches}, None


def _optional_rational(q):
    return None if q is None else format_rational(q)


def _chain_row(norm) -> dict:
    steps = [{**step, **{key: _optional_rational(step[key])
                         for key in ("kappa", "shift", "factor")}} for step in norm.steps]
    return {"n": norm.n, "method": "chain", "ok": norm.ok, "base_degree": norm.base_degree,
            "steps": steps, "product": _optional_rational(norm.product),
            "quotient": format_rational(norm.quotient)}


def _check_norms(job, fam):
    # exact along a Darboux chain where one meets its premises, else numeric
    ns = _degrees(job, fam)[:2]
    norms, refusal = chain.norms(job.module, fam, ns)
    if norms is not None:
        results = [_chain_row(norm) for norm in norms]
        keys = ("n", "product", "quotient")
    else:
        results = [{"n": chk.r, "method": "numeric", "rel_err": float(chk.rel_err),
                    "rel_bound": float(chk.rel_bound), "ok": chk.ok, "converged": chk.converged,
                    "chain_refusal": refusal} for chk in job.module.norm_identity(ns, fam)]
        keys = ("n", "rel_err", "rel_bound")
    bad = [{key: res[key] for key in keys} for res in results if not res["ok"]]
    return ("pass" if not bad else "fail", {"results": results}, bad or None)


def _check_orthogonality(job, fam):
    premises = job.module.orthogonality_premises(fam)
    ns = fam.pair.sigma_first(4)
    premises = {"eigen": all(job.module.eigen_residual(n, fam).is_zero for n in ns), **premises}
    failed = [name for name, holds in premises.items() if not holds]
    detail = {"members": ns, "premises": premises}
    return ("pass" if not failed else "fail", detail, {"failed": failed} if failed else None)


def _check_admissible(job, fam):
    c_like = _admissible_param(job)
    witnesses = admissibility_witnesses(c_like, fam.pair)
    detail = {"parameter": format_rational(c_like), "admissible": not witnesses}
    if not witnesses:
        return "pass", detail, None
    return "fail", detail, {"witnesses": witnesses}


def _check_nonvanish(job, fam):
    ok = job.module.nonvanishing(fam)
    admissible = is_admissible(_admissible_param(job), fam.pair)
    detail = {"nonvanishing": ok, "admissible": admissible}
    if not admissible:
        return "refused", detail, None
    return ("pass" if ok else "fail", detail, None if ok else detail)


def _check_limit(job, fam):
    detail = job.module.limit_from_meixner(_degrees(job, fam)[0], fam)
    ok = detail["member_exact"] and detail["omega_exact"]
    return ("pass" if ok else "fail", detail, None if ok else detail)


_CHECK_FUNCS = {
    "eigen": _check_eigen,
    "duality": _check_duality,
    "darboux": _check_darboux,
    "altrep": _check_altrep,
    "norms": _check_norms,
    "orthogonality": _check_orthogonality,
    "admissible": _check_admissible,
    "nonvanish": _check_nonvanish,
    "limit": _check_limit,
}


def cmd_verify(job: JobSpec) -> dict:
    if job.formal:
        raise UsageError("the check suite covers the meixner and laguerre kinds")
    supported = job.module.CHECKS
    checks = job.checks or supported
    unknown = [c for c in checks if c not in supported]
    if unknown:
        raise UsageError(
            f"unsupported checks for kind {job.kind}: {', '.join(unknown)} "
            f"(supported: {', '.join(supported)})"
        )
    fam = job.build_family()
    report = _job_header(job)
    rows = []
    failed = False
    for name in checks:
        started = time.perf_counter()
        try:
            status, detail, witness = _CHECK_FUNCS[name](job, fam)
        except (AdmissibilityRefusal, DomainError) as exc:
            status, detail, witness = "refused", {"reason": str(exc)}, None
        except PoleError as exc:
            status, detail, witness = "pole", {"reason": str(exc)}, None
        rows.append(
            {
                "check": name,
                "status": status,
                "detail": detail,
                "witness": witness,
                "seconds": round(time.perf_counter() - started, 4),
            }
        )
        failed = failed or status == "fail"
    report["checks"] = rows
    report["status"] = "fail" if failed else "pass"
    return report


# -- admissible / sweep ------------------------------------------------------

def cmd_admissible(job: JobSpec) -> dict:
    if job.formal:
        raise UsageError("admissibility is defined for the meixner and laguerre kinds")
    name, _ = job.module.ADMISSIBILITY
    if name not in job.params:
        raise UsageError(f"admissible for {job.kind} needs --{name}")
    if job.pair.is_trivial:
        raise UsageError("admissibility needs a nonempty pair")
    if len(job.params) == len(job.module.PARAMS):
        # the classical family refuses the parameters with the family's own text
        job._build(PairSpec([], []), *job.params.values())
    c_like = _admissible_param(job)
    witnesses = admissibility_witnesses(c_like, job.pair)
    out = _job_header(job)
    out["parameter"] = format_rational(c_like)
    out["admissible"] = not witnesses
    out["witnesses"] = witnesses
    return out


def cmd_sweep(max_elem: int, max_card: int, params: dict, jobs: int) -> dict:
    """params maps each swept kind to its parameter values, as run_sweep."""
    if max_elem < 1 or max_card < 0:
        raise UsageError("sweep bounds must satisfy max_elem >= 1 and max_card >= 0")
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    body = run_sweep(max_elem, max_card, params, jobs=jobs)
    out = {"schema": "xoppak/1"}
    for kind, values in params.items():
        for name, value in zip(KINDS[kind][0].PARAMS, values):
            out[name] = format_rational(rat(value))
    out.update(body)
    return out


# -- output ------------------------------------------------------------------

def _sweep_csv(payload) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "f1", "f2", "check", "ok", "note"])
    for cell in payload["cells"]:
        note = cell.get("skipped", "")
        if cell["ok"] is False:
            note = "counterexample"
        writer.writerow(
            [
                cell["kind"],
                " ".join(str(v) for v in cell["f1"]),
                " ".join(str(v) for v in cell["f2"]),
                cell["check"],
                {True: "yes", False: "no", None: "skipped"}[cell["ok"]],
                note,
            ]
        )
    return buf.getvalue()


def _verify_csv(payload) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "status", "seconds"])
    for row in payload["checks"]:
        writer.writerow([row["check"], row["status"], row["seconds"]])
    return buf.getvalue()


def _emit(payload, args, verb) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _sweep_csv(payload) if verb == "sweep" else _verify_csv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# -- argument plumbing -------------------------------------------------------

def _add_family_flags(sub, with_checks=False):
    """The family flags; verify (with_checks) adds its checks and format."""
    sub.add_argument("--kind", required=True, choices=list(KINDS))
    sub.add_argument("--F1", default="", help="comma list of positive integers")
    sub.add_argument("--F2", default="", help="comma list of positive integers")
    sub.add_argument("--a", default=None, help="rational like 1/2")
    sub.add_argument("--c", default=None, help="rational like 3 or -7/2")
    sub.add_argument("--alpha", default=None, help="rational like -3/2")
    if with_checks:
        sub.add_argument("--checks", default=None, help="comma list of check names")
        sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xoppak",
        description="Exceptional Meixner and Laguerre families: construct, "
        "verify, sweep, admissible.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    construct, verify = subs.add_parser("construct"), subs.add_parser("verify")
    _add_family_flags(construct)
    _add_family_flags(verify, with_checks=True)
    _add_family_flags(subs.add_parser("admissible"))
    for sub in (construct, verify):
        sub.add_argument("--n", default=None, help="single degree or range lo..hi")
    sw = subs.add_parser("sweep")
    sw.add_argument("max_elem", type=int)
    sw.add_argument("max_card", type=int)
    for name in PARAM_NAMES:
        sw.add_argument(f"--{name}", default=None)
    sw.add_argument("--format", choices=["json", "csv"], default="json")
    sw.add_argument("--out", default=None)
    sw.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at least 1; capped at the CPUs and the cells")
    return parser


_VALUE_FLAGS = {f"--{name}" for name in PARAM_NAMES}


def _preprocess(argv):
    """Join rational flags with negative values ("--alpha -3/2" would
    otherwise be read as two flags)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in _VALUE_FLAGS and nxt is not None
                and nxt.startswith("-") and not nxt.startswith("--")):
            out.append(tok + "=" + nxt)
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_preprocess(list(argv)))
    try:
        if args.verb == "construct":
            payload = cmd_construct(_job_from_args(args))
        elif args.verb == "verify":
            payload = cmd_verify(_job_from_args(args))
        elif args.verb == "admissible":
            payload = cmd_admissible(_job_from_args(args))
        else:
            payload = cmd_sweep(args.max_elem, args.max_card, _sweep_params(args), args.jobs)
        _emit(payload, args, args.verb)
    except (UsageError, ParameterError, DomainError) as exc:
        print(f"xoppak: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"xoppak: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    if args.verb == "verify" and payload["status"] == "fail":
        return 4
    return 0
