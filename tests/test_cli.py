"""Command line tool: verbs, payload shapes, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import xoppak
from xoppak import chain, cli, laguerre, meixner, numerics
from xoppak.classical import LaguerreParams
from xoppak.exact import InternalInconsistencyError, PoleError, Poly, rat
from xoppak.laguerre import LaguerreExcFamily
from xoppak.pairs import PairSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def walk_leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from walk_leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from walk_leaves(v)
    else:
        yield obj


# -- construct ---------------------------------------------------------------

def test_construct_laguerre_golden(capsys):
    code, doc = run_json(
        capsys, "construct", "--kind", "laguerre", "--F1", "1",
        "--alpha", "-3/2", "--n", "0..4",
    )
    assert code == 0
    assert doc["schema"] == "xoppak/1"
    assert doc["kind"] == "laguerre"
    assert doc["alpha"] == "-3/2"
    assert doc["u"] == 0 and doc["v"] == 2
    assert doc["excluded_degrees"] == [1]
    members = {m["n"]: m for m in doc["members"]}
    assert members[0]["included"] and members[0]["coeffs"] == ["-1"]
    assert not members[1]["included"] and members[1]["coeffs"] == []
    assert members[2]["included"]
    assert doc["omega"] == ["-1/2", "-1"]
    assert set(doc["operator"]["terms"]) == {"0", "1", "2"}
    assert doc["operator"]["eigenvalue_sign"] == -1
    assert doc["operator"]["variety"] == "differential"


def test_construct_never_emits_floats(capsys):
    code, doc = run_json(
        capsys, "construct", "--kind", "laguerre", "--F1", "1,2", "--F2", "1",
        "--alpha", "1/3", "--n", "4..8",
    )
    assert code == 0
    for leaf in walk_leaves(doc):
        assert not isinstance(leaf, float), leaf


def test_construct_meixner_golden(capsys):
    code, doc = run_json(
        capsys, "construct", "--kind", "meixner", "--F1", "1",
        "--a", "1/2", "--c", "3", "--n", "0",
    )
    assert code == 0
    assert doc["members"] == [{"n": 0, "included": True, "coeffs": ["1"]}]
    assert "lambda" in doc
    assert set(doc["operator"]["terms"]) == {"-1", "0", "1"}
    assert doc["operator"]["eigenvalue_sign"] == 1
    assert doc["operator"]["variety"] == "difference"


def test_construct_round_trip(capsys):
    code, doc = run_json(
        capsys, "construct", "--kind", "laguerre", "--F1", "1", "--F2", "2",
        "--alpha", "1/2", "--n", "2..7",
    )
    assert code == 0
    fam = LaguerreExcFamily(LaguerreParams(rat(1, 2)), PairSpec([1], [2]))
    for m in doc["members"]:
        if not m["included"]:
            assert not fam.pair.sigma_contains(m["n"])
            continue
        rebuilt = Poly([rat(c) for c in m["coeffs"]])
        assert rebuilt == fam.member(m["n"])
    assert Poly([rat(c) for c in doc["omega"]]) == fam.omega


def test_construct_trivial_pair_is_classical(capsys):
    code, doc = run_json(
        capsys, "construct", "--kind", "laguerre", "--alpha", "1/2", "--n", "0..2",
    )
    assert code == 0
    assert doc["u"] == 0 and doc["excluded_degrees"] == []
    assert doc["omega"] == ["1"]
    assert doc["members"][1]["coeffs"] == ["3/2", "-1"]


def test_construct_krawtchouk(capsys):
    code, doc = run_json(
        capsys, "construct", "--kind", "krawtchouk", "--F1", "1",
        "--a", "1/3", "--c", "-4", "--n", "0..2",
    )
    assert code == 0
    assert doc["kind"] == "krawtchouk"
    assert doc["members"][0]["coeffs"] == ["1"]
    assert "lambda" in doc


def test_construct_default_range(capsys):
    code, doc = run_json(
        capsys, "construct", "--kind", "meixner", "--F2", "1",
        "--a", "1/2", "--c", "3",
    )
    assert code == 0
    ns = [m["n"] for m in doc["members"]]
    assert ns == list(range(doc["u"], doc["u"] + 7))


# -- usage errors ------------------------------------------------------------

def test_bad_parameter_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--kind", "meixner", "--F1", "1",
                       "--a", "1", "--c", "3", "--n", "0")
    assert code == 2
    assert err.strip()


def test_missing_parameter_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--kind", "laguerre", "--F1", "1")
    assert code == 2
    assert "alpha" in err


def test_bad_rational_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--kind", "laguerre", "--F1", "1",
                       "--alpha", "x/y")
    assert code == 2
    for text in ("", "x", "1/0", "1//2", "1/2/3"):
        code, _, err = run(capsys, "construct", "--kind", "meixner", "--F1", "1",
                           "--a", text, "--c", "3")
        assert code == 2, text
        assert "--a" in err


def assert_rel_tol_refused(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2",
                  "--c", "3", "--checks", "norms", "--rel-tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --rel-tol" in captured.err


def test_rel_tol_is_an_unknown_argument(capsys):
    # a norms row passes on its own error bound, so no tolerance is taken
    assert_rel_tol_refused(capsys, "1/1000000")


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_nonpositive_rel_tol_exits_2(capsys, tol):
    # a tolerance no finite sum can reach used to run without end; with the
    # flag gone such a value is refused before any sum starts
    assert_rel_tol_refused(capsys, tol)


def test_flag_values_parse(capsys):
    # sets in any order and spacing, rationals in decimal notation too
    code, doc = run_json(capsys, "admissible", "--kind", "laguerre", "--F1", "2, 5,1",
                         "--F2", "  ", "--alpha", "1.5")
    assert code == 0
    assert doc["f1"] == [1, 2, 5] and doc["f2"] == []
    assert doc["alpha"] == "3/2"


def test_bad_set_exits_2(capsys):
    for f1 in ("0", "1,1", "1,x"):
        code, _, err = run(capsys, "construct", "--kind", "laguerre",
                           "--F1", f1, "--alpha", "1/2")
        assert code == 2, f1
        assert err.startswith("xoppak: --F1"), err


def test_bad_n_range_exits_2(capsys):
    code, _, _ = run(capsys, "construct", "--kind", "laguerre", "--F1", "1",
                     "--alpha", "1/2", "--n", "4..2")
    assert code == 2


@pytest.mark.parametrize("verb, checks", [("construct", []), ("verify", ["--checks", "eigen"])])
def test_negative_degree_exits_2(capsys, verb, checks):
    # both verbs refuse the range; verify used to drop the negative degrees
    code, out, err = run(capsys, verb, "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2",
                         *checks, "--n=-3..1")
    assert code == 2 and out == ""
    assert "--n must be nonnegative, got -3" in err


def test_integer_alpha_at_most_minus_one_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--kind", "laguerre", "--F1", "1",
                       "--alpha", "-2", "--n", "0")
    assert code == 2


def test_admissible_refuses_a_flag_of_the_other_kind(capsys):
    code, out, err = run(capsys, "admissible", "--kind", "laguerre", "--F1", "1",
                         "--alpha", "-3/2", "--a", "9")
    assert code == 2 and out == ""
    assert "--a does not apply" in err


def test_construct_refuses_a_flag_of_the_other_kind(capsys):
    code, out, err = run(capsys, "construct", "--kind", "meixner", "--F1", "1",
                         "--a", "1/2", "--c", "3", "--alpha", "7")
    assert code == 2 and out == ""
    assert "--alpha does not apply" in err


def test_admissible_has_no_degree_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["admissible", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2",
                  "--n", "3"])
    assert exc.value.code == 2


def test_sweep_refuses_half_of_the_meixner_parameters(capsys):
    code, out, err = run(capsys, "sweep", "2", "1", "--a", "1/2", "--alpha", "1/2")
    assert code == 2 and out == ""
    assert "--a and --c" in err and "--c is missing" in err


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--a", "0", "--c", "3"], "parameter a must avoid 0 and 1"),
        (["--alpha", "-1"], "alpha must stay off the negative integers"),
        (["--a", "1/2", "--c", "-2", "--alpha", "1/2"], "c must not be a nonpositive integer"),
    ],
    ids=["a-0", "alpha-minus-1", "c-minus-2"],
)
def test_sweep_refuses_bad_parameters_before_any_cell(capsys, flags, reason):
    # every cell would skip with the same reason, so the sweep does not start
    code, out, err = run(capsys, "sweep", "1", "1", *flags)
    assert code == 2 and out == ""
    assert err.startswith("xoppak: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_refuses_fewer_than_one_job(capsys, jobs):
    code, out, err = run(capsys, "sweep", "1", "1", "--alpha", "1/2", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs must be at least 1" in err


def test_jobs_flag_only_on_sweep():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2",
                  "--jobs", "2"])
    assert exc.value.code == 2


def test_verify_krawtchouk_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--kind", "krawtchouk", "--F1", "1",
                       "--a", "1/3", "--c", "-4")
    assert code == 2


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--kind", "laguerre", "--F1", "1",
                       "--alpha", "-3/2", "--checks", "eigen,nope")
    assert code == 2
    assert "nope" in err


def test_verify_kind_mismatched_check_exits_2(capsys):
    # duality is a discrete-family identity
    code, _, err = run(capsys, "verify", "--kind", "laguerre", "--F1", "1",
                       "--alpha", "-3/2", "--checks", "duality")
    assert code == 2
    # and the continuous limit has no meaning for the discrete family
    code, _, err = run(capsys, "verify", "--kind", "meixner", "--F1", "1",
                       "--a", "1/2", "--c", "3", "--checks", "limit")
    assert code == 2


# -- verify ------------------------------------------------------------------

def test_verify_eigen_passes(capsys):
    code, doc = run_json(
        capsys, "verify", "--kind", "meixner", "--F1", "1",
        "--a", "1/2", "--c", "3", "--checks", "eigen,duality",
    )
    assert code == 0
    assert doc["status"] == "pass"
    assert [r["status"] for r in doc["checks"]] == ["pass", "pass"]


def test_verify_admissible_failure_carries_witnesses(capsys):
    code, doc = run_json(
        capsys, "verify", "--kind", "meixner", "--F1", "1",
        "--a", "1/2", "--c", "-7/2", "--checks", "admissible",
    )
    assert code == 4
    assert doc["status"] == "fail"
    row = doc["checks"][0]
    assert row["status"] == "fail"
    assert row["witness"]["witnesses"] == [0, 3]


def test_verify_refusals_do_not_fail(capsys):
    # F2 empty refuses darboux; the non-admissible weight refuses norms
    code, doc = run_json(
        capsys, "verify", "--kind", "meixner", "--F1", "1",
        "--a", "1/2", "--c", "3", "--checks", "darboux,norms,orthogonality",
    )
    assert code == 0
    assert doc["status"] == "pass"
    statuses = {r["check"]: r["status"] for r in doc["checks"]}
    assert statuses == {
        "darboux": "refused", "norms": "refused", "orthogonality": "refused",
    }
    for r in doc["checks"]:
        assert r["detail"]["reason"]


@pytest.mark.parametrize("flags", [
    ["--kind", "meixner", "--F1", "1", "--a", "1/2", "--c", "3"],
    ["--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"],
    # --n 1 is the gap of F1 = {1}; the empty second set is refused first
    ["--kind", "laguerre", "--F1", "1", "--alpha", "-3/2", "--n", "1"],
], ids=["meixner", "laguerre", "gap-degree"])
def test_darboux_refuses_an_empty_second_set_with_the_kinds_reason(capsys, flags):
    code, doc = run_json(capsys, "verify", *flags, "--checks", "darboux")
    assert code == 0
    assert doc["checks"][0]["status"] == "refused"
    assert doc["checks"][0]["detail"] == {"reason": "Darboux step needs a nonempty second set"}


def test_verify_refuses_checks_with_no_degree_to_test(capsys):
    # --n 1 is the gap of F1 = {1} at u = 0, so no member is there to test
    code, doc = run_json(
        capsys, "verify", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2",
        "--n", "1", "--checks", "eigen,norms,limit",
    )
    assert code == 0
    for r in doc["checks"]:
        assert r["status"] == "refused", r
        assert r["detail"] == {"reason": "no degree in the index set to test"}


@pytest.mark.parametrize(
    "flags, refused",
    [
        (["--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"], {"darboux"}),
        (["--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2", "--c", "3"], set()),
    ],
    ids=["laguerre", "meixner"],
)
def test_verify_full_admissible(capsys, flags, refused):
    # F2 empty refuses darboux; every other check passes
    code, doc = run_json(capsys, "verify", *flags)
    assert code == 0
    statuses = {r["check"]: r["status"] for r in doc["checks"]}
    assert list(statuses) == list(cli.KINDS[flags[1]][0].CHECKS)
    for check, status in statuses.items():
        assert status == ("refused" if check in refused else "pass"), check


def test_verify_limit_is_exact(capsys):
    # the member and Omega at h = 0 of interpolants through the Meixner
    # families at a = 1 - h, h = 1/2 .. 1/8
    code, doc = run_json(capsys, "verify", "--kind", "laguerre", "--F1", "1,2", "--F2", "3",
                         "--alpha", "1/2", "--checks", "limit")
    assert code == 0
    assert doc["checks"][0]["status"] == "pass"
    assert doc["checks"][0]["detail"] == {
        "n": 3, "member_degree_bound": 3, "omega_degree_bound": 5, "nodes": 7,
        "member_exact": True, "omega_exact": True,
    }


def test_verify_darboux_refuses_a_gap_degree(capsys):
    # F1 = F2 = {1} has u = 1 and its gap at 2, so --n 2 leaves nothing to test
    code, doc = run_json(
        capsys, "verify", "--kind", "meixner", "--F1", "1", "--F2", "1",
        "--a", "1/2", "--c", "1/2", "--n", "2", "--checks", "darboux",
    )
    assert code == 0
    row = doc["checks"][0]
    assert row["status"] == "refused"
    assert row["detail"] == {"reason": "no degree in the index set to test"}


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2", "--c", "3"],
        ["--kind", "laguerre", "--F2", "1", "--alpha", "1/2"],
    ],
    ids=["meixner", "laguerre"],
)
def test_orthogonality_takes_norms_from_the_closed_form(capsys, monkeypatch, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("the orthogonality check recomputed a norm")

    for mod in (meixner, laguerre):
        monkeypatch.setattr(mod, "norm_identity", refuse)
    monkeypatch.setattr(laguerre, "norm_formula", refuse)
    code, doc = run_json(capsys, "verify", *flags, "--checks", "orthogonality")
    assert code == 0
    row = doc["checks"][0]
    assert row["status"] == "pass" and row["witness"] is None
    assert set(row["detail"]) == {"members", "premises"}
    assert row["detail"]["premises"] == {
        "eigen": True, "symmetry": True, "boundary": True, "positive_weight": True,
    }


MEIXNER_FLAGS = ["--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2", "--c", "3"]


def numeric_norms(monkeypatch):
    """Send the norms check to norm_identity, as for a family no Darboux chain
    reaches: the chain reaches every Meixner family here and Laguerre (-; 1)."""
    monkeypatch.setattr(chain, "find_route", lambda mod, fam: (None, "no chain in this test"))


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"],
        ["--kind", "laguerre", "--F1", "1", "--alpha", "-7/4"],
        ["--kind", "laguerre", "--F1", "4,5", "--alpha", "1/2"],
        ["--kind", "laguerre", "--F1", "3,4", "--alpha", "5/2"],
        MEIXNER_FLAGS,
    ],
    ids=["laguerre", "laguerre-minus-7_4", "laguerre-4_5", "laguerre-3_4", "meixner"],
)
def test_norms_rows_report_convergence(capsys, monkeypatch, flags):
    # the quadrature meets its target at alpha + k = -1/2 and -3/4, where the
    # weight is singular at 0, and on (4,5; -; 1/2) and (3,4; -; 5/2), whose
    # [1, U] pass needs one level past mpmath's guessed degree; certified sums
    # always do
    numeric_norms(monkeypatch)
    code, doc = run_json(capsys, "verify", *flags, "--checks", "norms")
    assert code == 0
    row = doc["checks"][0]
    assert row["status"] == "pass"
    results = row["detail"]["results"]
    assert len(results) == 2
    assert all(res["converged"] is True for res in results)
    assert all(res["ok"] and res["rel_err"] <= res["rel_bound"] for res in results)


def count_solves(monkeypatch) -> list:
    """Record every `down_operator` call of both kinds."""
    solves = []
    for mod in (meixner, laguerre):
        monkeypatch.setattr(mod, "down_operator",
                            lambda A, low, solve=mod.down_operator: solves.append(1) or solve(A, low))
    return solves


@pytest.mark.parametrize(
    "flags, checks, want",
    [
        (["--kind", "meixner", "--F2", "1,2", "--a", "3/4", "--c", "5/2"], "darboux,norms", 2),
        (["--kind", "laguerre", "--F2", "1,3", "--alpha", "5/2"], "darboux,norms", 2),
        (["--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"], "norms", 0),
    ],
    ids=["meixner", "laguerre", "laguerre-no-route"],
)
def test_each_first_order_step_is_solved_once(capsys, monkeypatch, flags, checks, want):
    # darboux and the norms chain read one step per (family, set, element),
    # whose B is solved when first read: a route of two steps solves two, the
    # max(F2) step shared with darboux among them, and a family whose one
    # step is refused solves none
    solves = count_solves(monkeypatch)
    code, doc = run_json(capsys, "verify", *flags, "--checks", checks)
    assert code == 0 and all(row["status"] == "pass" for row in doc["checks"])
    assert len(solves) == want


@pytest.mark.parametrize(
    "flags, want",
    [
        (["--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "1/2", "--c", "3"], 4),
        (["--kind", "laguerre", "--F1", "1,2", "--alpha", "1/2"], 3),
    ],
    ids=["meixner", "laguerre"],
)
def test_each_omega_is_isolated_once(capsys, monkeypatch, flags, want):
    # the default checks read where Omega vanishes on the half line from the
    # family's omega_cells: one root isolation per distinct Omega, of the
    # family and of the lower families of its Darboux chain
    isolated = []
    for mod in (meixner, laguerre):
        monkeypatch.setattr(mod, "nonneg_root_cells",
                            lambda p, cells=mod.nonneg_root_cells: isolated.append(p) or cells(p))
    code, _, _ = run(capsys, "verify", *flags)
    assert code == 0
    assert len(isolated) == len({p.coeffs for p in isolated}) == want


def test_duality_builds_each_dual_member_once(capsys, monkeypatch):
    # 4 dual degrees against 4 members: one q_n per degree and one set of
    # constants for the family, not one of each per (n, v)
    built, constants = [], []
    q, init = meixner.MeixnerExcFamily.q, meixner.DualityConstants.__init__
    monkeypatch.setattr(meixner.MeixnerExcFamily, "q", lambda fam, n: built.append(n) or q(fam, n))
    monkeypatch.setattr(meixner.DualityConstants, "__init__",
                        lambda self, fam: constants.append(1) or init(self, fam))
    code, doc = run_json(capsys, "verify", *MEIXNER_FLAGS, "--checks", "duality")
    assert code == 0 and doc["checks"][0]["status"] == "pass"
    assert built == [0, 1, 2, 3] and len(constants) == 1


@pytest.mark.parametrize(
    "mod, flags, scale",
    [
        (meixner, MEIXNER_FLAGS, "5e-11"),
        (meixner, ["--kind", "meixner", "--F1", "1,2", "--F2", "1", "--a", "4/5", "--c", "3"],
         "5e-11"),
        (laguerre, ["--kind", "laguerre", "--F2", "1", "--alpha", "1/2"], "1e-15"),
        (laguerre, ["--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"], "1e-15"),
    ],
    ids=["meixner", "meixner-a-4_5", "laguerre", "laguerre-minus-3_2"],
)
def test_norms_fail_on_a_perturbed_closed_form(capsys, monkeypatch, mod, flags, scale):
    # a closed form off by far less than the old default tolerances (1e-10
    # for Meixner, 1e-8 for Laguerre) lies outside every row's own bound
    numeric_norms(monkeypatch)
    original = mod.norm_closed_form
    monkeypatch.setattr(mod, "norm_closed_form",
                        lambda n, fam: original(n, fam) * (1 + mp.mpf(scale)))
    code, doc = run_json(capsys, "verify", *flags, "--checks", "norms")
    assert code == 4
    row = doc["checks"][0]
    assert row["status"] == "fail"
    for res in row["detail"]["results"]:
        assert res["converged"] is True and res["ok"] is False
        assert res["rel_bound"] < res["rel_err"]
    assert row["witness"] == [
        {key: res[key] for key in ("n", "rel_err", "rel_bound")}
        for res in row["detail"]["results"]
    ]


def test_norms_out_of_terms_are_refused(capsys, monkeypatch):
    # a certified sum that runs out of terms refuses its row; no traceback
    numeric_norms(monkeypatch)
    monkeypatch.setattr(numerics, "MAX_SUM_TERMS", 5)
    code, doc = run_json(capsys, "verify", *MEIXNER_FLAGS, "--checks", "norms")
    assert code == 0
    row = doc["checks"][0]
    assert row["status"] == "refused" and row["witness"] is None
    assert row["detail"] == {"reason": "tolerance not reached after 5 terms"}


def test_norms_take_the_chain_with_exact_rows(capsys):
    # every field of a chain row is exact: integers, booleans, "p/q" strings
    code, doc = run_json(capsys, "verify", "--kind", "meixner", "--F2", "2,4", "--a", "99/100",
                         "--c", "3", "--checks", "norms")
    assert code == 0
    [row] = doc["checks"]
    assert row["status"] == "pass" and row["witness"] is None
    first = row["detail"]["results"][0]
    assert first == {
        "n": 5, "method": "chain", "ok": True, "base_degree": 0,
        "steps": [
            {"set": "F2", "f": 4, "kappa": "100/9801", "shift": "5", "factor": "700/9801",
             "holds": True},
            {"set": "F2", "f": 2, "kappa": "100/9801", "shift": "5", "factor": "500/9801",
             "holds": True},
        ],
        "product": "350000/96059601", "quotient": "350000/96059601",
    }
    assert not any(isinstance(leaf, float) for leaf in walk_leaves(row["detail"]))


def test_chain_norms_fail_with_product_and_quotient(capsys, monkeypatch):
    original = meixner.norm_quotient
    monkeypatch.setattr(meixner, "norm_quotient", lambda n, fam: original(n, fam) * 2)
    code, doc = run_json(capsys, "verify", *MEIXNER_FLAGS, "--checks", "norms")
    assert code == 4
    [row] = doc["checks"]
    assert row["status"] == "fail"
    results = row["detail"]["results"]
    assert all(res["method"] == "chain" and res["ok"] is False for res in results)
    assert row["witness"] == [
        {key: res[key] for key in ("n", "product", "quotient")} for res in results]
    assert all(rat(res["quotient"]) == 2 * rat(res["product"]) for res in results)


LAGUERRE_FLAGS = ["--kind", "laguerre", "--F1", "1,2", "--F2", "3", "--alpha", "1/2"]


def bump_h1_meixner(fam, got):
    nums, den = got
    return {**nums, 1: nums[1] + den}, den


def bump_h1_laguerre(fam, got):
    n1, n0 = got
    return n1 + fam.omega, n0


def h_minus1_off_zero(fam, got):
    # (x + 1) Omega(x+1)^2 in place of x Omega(x+1)^2: h-1(0) = Omega(1)^2 / den(0)
    nums, den = got
    return {**nums, -1: nums[-1] + fam.omega.shift(1) ** 2}, den


@pytest.mark.parametrize(
    "mod, flags, change, premise",
    [
        (meixner, MEIXNER_FLAGS, bump_h1_meixner, "symmetry"),
        (laguerre, LAGUERRE_FLAGS, bump_h1_laguerre, "symmetry"),
        (meixner, MEIXNER_FLAGS, h_minus1_off_zero, "boundary"),
    ],
    ids=["meixner-h1", "laguerre-h1", "meixner-h-1-at-0"],
)
def test_orthogonality_fails_on_a_broken_premise(capsys, monkeypatch, mod, flags, change,
                                                 premise):
    original = mod._operator_numerators
    monkeypatch.setattr(mod, "_operator_numerators", lambda fam: change(fam, original(fam)))
    code, doc = run_json(capsys, "verify", *flags, "--checks", "orthogonality")
    assert code == 4
    row = doc["checks"][0]
    assert row["status"] == "fail"
    assert row["detail"]["premises"][premise] is False
    assert row["witness"]["failed"] == [
        name for name, holds in row["detail"]["premises"].items() if not holds
    ]


def test_orthogonality_refuses_a_outside_the_unit_interval(capsys):
    # c = 3 is admissible for the pair, but the weight needs 0 < a < 1
    code, doc = run_json(
        capsys, "verify", "--kind", "meixner", "--F1", "1,2", "--F2", "1",
        "--a", "3/2", "--c", "3", "--checks", "orthogonality",
    )
    assert code == 0
    row = doc["checks"][0]
    assert row["status"] == "refused"
    assert row["detail"]["reason"] == "a positive weight needs 0 < a < 1, got a=3/2"


@pytest.mark.parametrize("check, a", [("orthogonality", "2"), ("norms", "2"),
                                      ("norms", "-1/2")])
def test_refusal_names_a_outside_the_unit_interval(capsys, check, a):
    # the reason names the failed condition, not admissibility, and not the
    # norm identity when orthogonality refuses
    code, doc = run_json(
        capsys, "verify", "--kind", "meixner", "--F1", "1,2", "--F2", "1",
        "--a", a, "--c", "3", "--checks", check,
    )
    assert code == 0
    row = doc["checks"][0]
    assert row["status"] == "refused"
    assert row["detail"]["reason"] == f"a positive weight needs 0 < a < 1, got a={a}"


def test_norms_refusal_names_an_inadmissible_c(capsys):
    # 0 < a < 1 holds, but c = -7/2 is not admissible for F1 = {1}
    code, doc = run_json(
        capsys, "verify", "--kind", "meixner", "--F1", "1", "--a", "1/2", "--c", "-7/2",
        "--checks", "norms",
    )
    assert code == 0
    row = doc["checks"][0]
    assert row["status"] == "refused"
    assert row["detail"]["reason"] == (
        "a positive weight needs an admissible c; c=-7/2 is not admissible for "
        "PairSpec([1], [])"
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "meixner", "--F1", "1", "--a", "-1/2", "--c", "3"],
        ["--kind", "meixner", "--F1", "1", "--a", "1/2", "--c", "-7/2"],
        ["--kind", "laguerre", "--F1", "2", "--alpha", "-5/2"],
    ],
    ids=["meixner-a", "meixner-c", "laguerre-alpha"],
)
def test_norms_and_orthogonality_share_the_weight_refusal(capsys, flags):
    # one module decides the positive weight, so both rows give its reason
    code, doc = run_json(capsys, "verify", *flags, "--checks", "norms,orthogonality")
    assert code == 0
    norms, orthogonality = doc["checks"]
    assert norms["status"] == orthogonality["status"] == "refused"
    assert norms["detail"] == orthogonality["detail"]
    assert norms["detail"]["reason"].startswith("a positive weight needs ")


def test_a_pole_in_a_check_is_reported_and_later_checks_run(capsys, monkeypatch):
    def pole(n, fam):
        raise PoleError("evaluation at pole 2")

    monkeypatch.setattr(meixner, "eigen_residual", pole)
    code, doc = run_json(capsys, "verify", *MEIXNER_FLAGS, "--checks", "eigen,duality,admissible")
    assert code == 0
    eigen, duality, admissible = doc["checks"]
    assert eigen["status"] == "pole"
    assert eigen["detail"] == {"reason": "evaluation at pole 2"}
    assert eigen["witness"] is None
    assert duality["status"] == admissible["status"] == "pass"


def test_verify_darboux_with_f2(capsys):
    code, doc = run_json(
        capsys, "verify", "--kind", "laguerre", "--F2", "1",
        "--alpha", "1/2", "--checks", "darboux",
    )
    assert code == 0
    assert doc["checks"][0]["status"] == "pass"


def test_verify_csv_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--kind", "laguerre", "--F1", "1",
        "--alpha", "-3/2", "--checks", "eigen,admissible", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,status,seconds"
    assert lines[1].startswith("eigen,pass,")
    assert lines[2].startswith("admissible,pass,")


def test_verify_internal_inconsistency_exits_3(capsys, monkeypatch):
    def boom(job):
        raise InternalInconsistencyError("cross-check mismatch")

    monkeypatch.setattr(cli, "cmd_verify", boom)
    code, _, err = run(capsys, "verify", "--kind", "laguerre", "--F1", "1",
                       "--alpha", "-3/2")
    assert code == 3
    assert "inconsistency" in err


# -- admissible --------------------------------------------------------------

def test_admissible_verb(capsys):
    code, doc = run_json(capsys, "admissible", "--kind", "laguerre",
                         "--F1", "1", "--alpha", "-3/2")
    assert code == 0
    assert doc["admissible"] is True
    assert doc["witnesses"] == []
    assert doc["parameter"] == "-1/2"

    code, doc = run_json(capsys, "admissible", "--kind", "meixner",
                         "--F1", "1", "--c", "-7/2")
    assert code == 0
    assert doc["admissible"] is False
    assert doc["witnesses"] == [0, 3]


def test_admissible_needs_pair_and_param(capsys):
    code, _, _ = run(capsys, "admissible", "--kind", "laguerre", "--alpha", "1/2")
    assert code == 2
    code, _, _ = run(capsys, "admissible", "--kind", "laguerre", "--F1", "1")
    assert code == 2
    code, _, _ = run(capsys, "admissible", "--kind", "krawtchouk", "--F1", "1",
                     "--a", "1/3", "--c", "-4")
    assert code == 2


@pytest.mark.parametrize("kind_flags", [
    ("--kind", "laguerre", "--alpha", "-1"),
    ("--kind", "meixner", "--a", "1", "--c", "3"),
])
def test_admissible_refuses_parameters_as_the_family_does(capsys, kind_flags):
    # admissibility tests alpha + 1 = 0 against the meixner rule on c, but the
    # refusal names the flag and the value the user typed
    refusals = [run(capsys, verb, *kind_flags, "--F1", "1") for verb in ("admissible", "construct")]
    assert refusals[0] == refusals[1]
    code, out, err = refusals[0]
    assert code == 2 and out == ""
    assert err == {"laguerre": "xoppak: alpha must stay off the negative integers, got -1\n",
                   "meixner": "xoppak: parameter a must avoid 0 and 1: 1\n"}[kind_flags[1]]


# -- sweep -------------------------------------------------------------------

def test_sweep_json(capsys):
    code, doc = run_json(capsys, "sweep", "2", "2", "--a", "1/2", "--c", "3",
                         "--alpha", "1/2")
    assert code == 0
    assert doc["schema"] == "xoppak/1"
    assert doc["total"] == doc["passed"] + doc["skipped"]
    assert doc["counterexamples"] == []
    assert doc["a"] == "1/2" and doc["alpha"] == "1/2"


def test_sweep_empty(capsys):
    code, doc = run_json(capsys, "sweep", "2", "0", "--alpha", "1/2")
    assert code == 0
    assert doc["total"] == 0 and doc["cells"] == []


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "2", "1", "--alpha", "1/2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,f1,f2,check,ok,note"
    # four singleton pairs from elements {1, 2}, two checks each
    assert len(lines) == 1 + 8
    assert all(line.split(",")[4] == "yes" for line in lines[1:])


def test_sweep_needs_parameters(capsys):
    code, _, err = run(capsys, "sweep", "2", "2")
    assert code == 2


# -- output plumbing ---------------------------------------------------------

def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "construct", "--kind", "laguerre", "--F1", "1",
                       "--alpha", "-3/2", "--n", "0", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["schema"] == "xoppak/1"


@pytest.mark.parametrize("argv", [
    ("construct", "--kind", "laguerre", "--F1", "1", "--alpha", "-3/2"),
    ("sweep", "1", "1", "--alpha", "1/2"),
])
def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "missing" / "report.json"
    for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err == f"xoppak: cannot write {path}: {reason}\n"
    assert not missing.parent.exists()


def test_csv_undefined_for_construct():
    # --format is offered by verify and sweep only; argparse refuses it elsewhere
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--kind", "laguerre", "--F1", "1",
                  "--alpha", "-3/2", "--n", "0", "--format", "csv"])
    assert exc.value.code == 2


def test_csv_undefined_for_admissible():
    with pytest.raises(SystemExit) as exc:
        cli.main(["admissible", "--kind", "laguerre", "--F1", "1",
                  "--alpha", "-3/2", "--format", "csv"])
    assert exc.value.code == 2


def test_usage_error_without_verb():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "meixner", "--F1", "1,2", "--a", "99999999/100000000", "--c", "3"],
    ["sweep", "2", "2", "--a", "9999999/10000000", "--c", "3"],
    ["admissible", "--kind", "meixner", "--F1", "1,2", "--c", "-3999/2"],
], ids=["verify-near-1", "sweep-near-1", "admissible-very-negative-c"])
def test_half_line_decisions_finish_in_a_fresh_interpreter(argv):
    # Omega's integer zeros are read from its root cells, whose count does not
    # grow as a nears 1, and admissibility counts negative factors instead of
    # multiplying out (x+c)_hat, whose length grows with -c
    src = str(Path(xoppak.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "xoppak", *argv], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=30)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    if argv[0] == "verify":
        assert doc["status"] == "pass"
    if argv[0] == "admissible":
        assert len(doc["witnesses"]) == 999
