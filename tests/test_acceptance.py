"""Acceptance gate: every criterion runs at its stated scale, exactly.

Each test prints one PASS/FAIL line.  The scales are pinned here and in
flagops.verify; nothing is deferred to later calibration.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import pytest

from flagops import cli, nilcox, verify

_REPORTS: dict = {}


def report(suite, **kw):
    key = (suite, tuple(sorted(kw.items())))
    if key not in _REPORTS:
        _REPORTS[key] = verify.run_suite(suite, **kw)
    return _REPORTS[key]


def _gate(criterion: str, rep, pick=None):
    checks = rep.checks if pick is None else [c for c in rep.checks if pick(c.name)]
    assert checks, f"criterion {criterion}: no checks selected"
    failed = [c for c in checks if c.status != "pass"]
    status = "FAIL" if failed else "PASS"
    print(f"[{status}] criterion {criterion} ({len(checks)} checks, suite={rep.suite})")
    assert not failed, [c.to_json() for c in failed]


def test_criterion_01_main_theorem_three_routes():
    # n in {2,3} all m < n, l(w) <= 6; n = 4 all m < 4, l(w) <= 5; exact
    _gate("1 (main theorem, routes A=B=C)", report("main-theorem"))


def test_criterion_02_chevalley_calibration():
    _gate("2 (degree-1 MN = covers = cap; differences are Dunkl)", report("chevalley"))


def test_criterion_03_mn_kills_h():
    _gate(
        "3 (MN operator sends h_i to h_{i-m})",
        report("leibniz"),
        pick=lambda name: name.startswith("mn-on-h"),
    )


def test_criterion_04_leibniz_and_pass_through():
    _gate(
        "4 (pass-through and Leibniz)",
        report("leibniz"),
        pick=lambda name: not name.startswith("mn-on-h"),
    )


def test_criterion_05_commutativity_and_vanishing():
    _gate("5 (commutativity, period sums, high powers)", report("commutativity"))


def test_criterion_06_golden_tables():
    rep = report("schubert-table")
    assert rep.flags, "interpretive flags must be reported"
    _gate("6 (golden tables n=3 and n=2 families)", rep)


def test_criterion_07_worked_example_n4():
    _gate(
        "7 (worked n=4 chains, signs, Stanley identity)",
        report("mn-rule"),
        pick=lambda name: name.startswith("worked-example"),
    )


def test_criterion_07b_mn_rules_in_ring_and_quotient():
    _gate(
        "7b (MN rule against Schubert expansion and Stanley functions)",
        report("mn-rule"),
        pick=lambda name: not name.startswith("worked-example"),
    )


def test_criterion_08_kschur_ribbon_duality():
    _gate(
        "8 (ribbon-tableau k-Schur formula matches elimination)",
        report("kschur-duality"),
        pick=lambda name: name.startswith("kschur-ribbon-formula"),
    )


def test_criterion_08b_hall_duality():
    _gate(
        "8b (Hall duality and Grassmannian specialisation)",
        report("kschur-duality"),
        pick=lambda name: not name.startswith("kschur-ribbon-formula"),
    )


def test_criterion_09_dimensions_and_basis():
    _gate("9 (graded dimensions, Schubert independence)", report("dimensions"))


def test_criterion_10_positivity():
    _gate("10 (structure constants are nonnegative integers)", report("positivity"))


def test_criterion_11_bgg_correspondence():
    _gate("11 (divided differences shift arguments; square and braid)", report("bgg"))


# Check names of every suite at its default scale, in report order.
CHECK_NAMES = {
    "main-theorem": [
        "routes-agree[n=2,m=1,l<=6]",
        "cap-equals-bss[n=2,m=1,i=0]",
        "routes-agree[n=3,m=1,l<=6]",
        "cap-equals-bss[n=3,m=1,i=0]",
        "routes-agree[n=3,m=2,l<=6]",
        "cap-equals-bss[n=3,m=2,i=0]",
        "cap-equals-bss[n=3,m=2,i=1]",
        "routes-agree[n=4,m=1,l<=5]",
        "cap-equals-bss[n=4,m=1,i=0]",
        "routes-agree[n=4,m=2,l<=5]",
        "cap-equals-bss[n=4,m=2,i=0]",
        "cap-equals-bss[n=4,m=2,i=1]",
        "routes-agree[n=4,m=3,l<=5]",
        "cap-equals-bss[n=4,m=3,i=0]",
        "cap-equals-bss[n=4,m=3,i=1]",
        "cap-equals-bss[n=4,m=3,i=2]",
        "composition-recursion[n=3,|J|<=5]",
    ],
    "chevalley": [
        "deg1-mn-covers-cap[n=2,a=0]",
        "mn-difference-is-dunkl[n=2,a=0]",
        "deg1-mn-covers-cap[n=2,a=1]",
        "mn-difference-is-dunkl[n=2,a=1]",
        "deg1-mn-covers-cap[n=3,a=0]",
        "mn-difference-is-dunkl[n=3,a=0]",
        "deg1-mn-covers-cap[n=3,a=1]",
        "mn-difference-is-dunkl[n=3,a=1]",
        "deg1-mn-covers-cap[n=3,a=2]",
        "mn-difference-is-dunkl[n=3,a=2]",
        "deg1-mn-covers-cap[n=4,a=0]",
        "mn-difference-is-dunkl[n=4,a=0]",
        "deg1-mn-covers-cap[n=4,a=1]",
        "mn-difference-is-dunkl[n=4,a=1]",
        "deg1-mn-covers-cap[n=4,a=2]",
        "mn-difference-is-dunkl[n=4,a=2]",
        "deg1-mn-covers-cap[n=4,a=3]",
        "mn-difference-is-dunkl[n=4,a=3]",
    ],
    "leibniz": [
        "mn-on-h[n=2]",
        "mn-on-h[n=3]",
        "mn-on-h[n=4]",
        "finite-right-factor-pass-through[n=3]",
        "leibniz-on-h-times-basis[n=3]",
    ],
    "commutativity": [
        "dunkl-commute[n=2]",
        "dunkl-mn-commute[n=2]",
        "mn-mn-commute[n=2]",
        "dunkl-power-period-sum-vanishes[n=2]",
        "dunkl-power-order-n-vanishes[n=2]",
        "dunkl-power-matches-chain-oracle[n=2]",
        "cyclic-class-sums-vanish[n=2]",
        "mn-dunkl-telescope[n=2]",
        "dunkl-commute[n=3]",
        "dunkl-mn-commute[n=3]",
        "mn-mn-commute[n=3]",
        "dunkl-power-period-sum-vanishes[n=3]",
        "dunkl-power-order-n-vanishes[n=3]",
        "dunkl-power-matches-chain-oracle[n=3]",
        "cyclic-class-sums-vanish[n=3]",
        "mn-dunkl-telescope[n=3]",
        "dunkl-commute[n=4]",
        "dunkl-mn-commute[n=4]",
        "mn-mn-commute[n=4]",
        "dunkl-power-period-sum-vanishes[n=4]",
        "dunkl-power-order-n-vanishes[n=4]",
        "dunkl-power-matches-chain-oracle[n=4]",
        "cyclic-class-sums-vanish[n=4]",
        "mn-dunkl-telescope[n=4]",
    ],
    "schubert-table": [
        "table-n3-seven-rows",
        "family-n2-both-towers",
    ],
    "mn-rule": [
        "worked-example-n4-chains",
        "worked-example-n4-stanley-identity",
        "mn-rule-schubert-expansion[n=3]",
        "mn-rule-stanley[n=3]",
        "xi-symmetric-part-is-p",
    ],
    "kschur-duality": [
        "kschur-ribbon-formula[n=3,d<=6]",
        "kschur-ribbon-formula[n=4,d<=6]",
        "hall-duality-affschur-kschur",
        "stanley-equals-affschur-on-grassmannians",
        "tableau-character-weight-order-invariance[n=3]",
    ],
    "dimensions": [
        "graded-dimension-and-independence[n=2,d<=6]",
        "graded-dimension-and-independence[n=3,d<=6]",
        "graded-dimension-and-independence[n=4,d<=6]",
        "schubert-symmetric-part-is-stanley[n=3]",
    ],
    "positivity": [
        "structure-constants-nonnegative-integers[n=2,l(u)+l(v)<=6]",
        "structure-constants-nonnegative-integers[n=3,l(u)+l(v)<=5]",
        "structure-constants-nonnegative-integers[n=4,l(u)+l(v)<=4]",
    ],
    "bgg": [
        "divided-difference-shifts-argument[n=3]",
        "divided-difference-square-and-braid[n=3]",
        "schubert-defining-recursion[n=3]",
    ],
}


def test_check_names_are_pinned():
    assert list(verify.SUITES) == list(CHECK_NAMES)
    for suite, names in CHECK_NAMES.items():
        assert [c.name for c in report(suite).checks] == names, suite


def test_every_suite_builds_at_every_accepted_n():
    # building is cheap: the checks are generators, run only by run_suite
    for n in range(2, cli.N_CEIL + 1):
        for suite, build in verify._SUITE_BUILDERS.items():
            checks, _ = build(n, None, None)
            assert all(callable(check) for _, check in checks), (suite, n)


def test_failing_check_reports_its_witness(monkeypatch):
    monkeypatch.setattr(verify.bo, "act_dunkl", lambda x, i: nilcox.zero(x.n))
    rep = verify.run_suite("chevalley", n=2, max_length=2)
    assert not rep.passed
    result = next(c for c in rep.checks if c.name == "mn-difference-is-dunkl[n=2,a=0]")
    assert result.status == "fail"
    assert set(result.witness) == {"n", "a", "w"}
    assert (result.witness["n"], result.witness["a"]) == (2, 0)
