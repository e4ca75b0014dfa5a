"""Acceptance gate: every criterion runs at its stated scale, exactly.

Each test prints one PASS/FAIL line.  The scales are pinned here and in
flagops.verify; nothing is deferred to later calibration.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json

import pytest

from flagops import cli, nilcox, verify
from flagops.errors import BoundExceededError

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
    # expanding is cheap: the checks are generators, run only by run_suite
    assert verify.NS == tuple(range(2, cli.N_CEIL + 1))
    for n in verify.NS:
        for suite in verify.SUITES:
            checks = verify.expand(suite, n)
            assert checks and all(callable(check) for _, check in checks), (suite, n)


def test_check_names_are_pinned_at_every_accepted_n():
    assert sorted(CHECK_NAMES_AT_N) == list(verify.NS)
    for n, suites in CHECK_NAMES_AT_N.items():
        assert list(suites) == list(verify.SUITES)
        for suite, names in suites.items():
            assert [name for name, _ in verify.expand(suite, n)] == names, (suite, n)


# the per-n degree ceilings of verify dimensions and kschur-duality
DEGREE_CEILINGS = {
    "dimensions": {2: 16, 3: 16, 4: 16, 5: 12, 6: 8},
    "kschur-duality": {2: 10, 3: 10, 4: 11, 5: 11, 6: 11},
}
# the per-n length ceilings of the suites whose --max-length a request sets
LENGTH_CEILINGS = {
    "main-theorem": {2: 12, 3: 12, 4: 12, 5: 10, 6: 7},
    "chevalley": {2: 12, 3: 12, 4: 12, 5: 10, 6: 7},
    "commutativity": {2: 12, 3: 12, 4: 12, 5: 12, 6: 11},
}


def _assert_exits_2_above(option, suite, ceilings, monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: pytest.fail("a check ran"))
    for n, ceiling in ceilings.items():
        verify.expand(suite, n, **{option.replace("-", "_"): ceiling})  # accepted
        with pytest.raises(BoundExceededError):
            verify.expand(suite, n, **{option.replace("-", "_"): ceiling + 1})
        for name in (suite, "all"):
            argv = ["verify", name, "--n", str(n), f"--{option}", str(ceiling + 1)]
            assert cli.main(argv) == 2, argv
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: --{option}"), line


@pytest.mark.parametrize("suite", sorted(DEGREE_CEILINGS))
def test_degree_ceiling_exits_2_before_any_check_runs(suite, monkeypatch, capsys):
    _assert_exits_2_above("max-degree", suite, DEGREE_CEILINGS[suite], monkeypatch, capsys)


@pytest.mark.parametrize("suite", sorted(LENGTH_CEILINGS))
def test_length_ceiling_exits_2_before_any_check_runs(suite, monkeypatch, capsys):
    _assert_exits_2_above("max-length", suite, LENGTH_CEILINGS[suite], monkeypatch, capsys)


def test_largest_accepted_length_at_small_n_passes(capsys):
    # at n = 2, 3 every length ceiling is 12, the CLI's own: verify all runs
    # main-theorem, chevalley and commutativity there at l <= 12
    for n in (2, 3):
        assert cli.main(["verify", "all", "--n", str(n), "--max-length", "12"]) == 0
        names = [c["name"] for r in json.loads(capsys.readouterr().out) for c in r["checks"]]
        assert f"routes-agree[n={n},m=1,l<=12]" in names


def test_length_ceiling_refuses_only_a_length_that_runs(monkeypatch):
    # without --n, main-theorem and chevalley only lower their defaults, so
    # a --max-length of 13 is not refused there; commutativity sets it
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: pytest.fail("a check ran"))
    for suite in ("main-theorem", "chevalley"):
        names = [name for name, _ in verify.expand(suite, max_length=13)]
        assert names == [name for name, _ in verify.expand(suite)]
    with pytest.raises(BoundExceededError):
        verify.expand("commutativity", max_length=13)


def test_degree_ceiling_binds_at_the_default_n(monkeypatch):
    # without --n, kschur-ribbon-formula runs at n = 3, whose ceiling is 10
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: pytest.fail("a check ran"))
    assert cli.main(["verify", "all", "--max-degree", "11"]) == 2
    verify.expand("kschur-duality", max_degree=10)


def test_failing_check_reports_its_witness(monkeypatch):
    monkeypatch.setattr(verify.bo, "act_dunkl", lambda x, i: nilcox.zero(x.n))
    rep = verify.run_suite("chevalley", n=2, max_length=2)
    assert not rep.passed
    result = next(c for c in rep.checks if c.name == "mn-difference-is-dunkl[n=2,a=0]")
    assert result.status == "fail"
    assert set(result.witness) == {"n", "a", "w"}
    assert (result.witness["n"], result.witness["a"]) == (2, 0)


# Check names of every suite at each accepted --n, in report order, as the
# suite builders before the check table printed them.
CHECK_NAMES_AT_N = {
    2: {
        "main-theorem": [
            "routes-agree[n=2,m=1,l<=6]",
            "cap-equals-bss[n=2,m=1,i=0]",
            "composition-recursion[n=3,|J|<=5]",
        ],
        "chevalley": [
            "deg1-mn-covers-cap[n=2,a=0]",
            "mn-difference-is-dunkl[n=2,a=0]",
            "deg1-mn-covers-cap[n=2,a=1]",
            "mn-difference-is-dunkl[n=2,a=1]",
        ],
        "leibniz": [
            "mn-on-h[n=2]",
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
            "kschur-ribbon-formula[n=2,d<=6]",
            "hall-duality-affschur-kschur",
            "stanley-equals-affschur-on-grassmannians",
            "tableau-character-weight-order-invariance[n=3]",
        ],
        "dimensions": [
            "graded-dimension-and-independence[n=2,d<=6]",
        ],
        "positivity": [
            "structure-constants-nonnegative-integers[n=2,l(u)+l(v)<=6]",
        ],
        "bgg": [
            "divided-difference-shifts-argument[n=3]",
            "divided-difference-square-and-braid[n=3]",
            "schubert-defining-recursion[n=3]",
        ],
    },
    3: {
        "main-theorem": [
            "routes-agree[n=3,m=1,l<=6]",
            "cap-equals-bss[n=3,m=1,i=0]",
            "routes-agree[n=3,m=2,l<=6]",
            "cap-equals-bss[n=3,m=2,i=0]",
            "cap-equals-bss[n=3,m=2,i=1]",
            "composition-recursion[n=3,|J|<=5]",
        ],
        "chevalley": [
            "deg1-mn-covers-cap[n=3,a=0]",
            "mn-difference-is-dunkl[n=3,a=0]",
            "deg1-mn-covers-cap[n=3,a=1]",
            "mn-difference-is-dunkl[n=3,a=1]",
            "deg1-mn-covers-cap[n=3,a=2]",
            "mn-difference-is-dunkl[n=3,a=2]",
        ],
        "leibniz": [
            "mn-on-h[n=3]",
            "finite-right-factor-pass-through[n=3]",
            "leibniz-on-h-times-basis[n=3]",
        ],
        "commutativity": [
            "dunkl-commute[n=3]",
            "dunkl-mn-commute[n=3]",
            "mn-mn-commute[n=3]",
            "dunkl-power-period-sum-vanishes[n=3]",
            "dunkl-power-order-n-vanishes[n=3]",
            "dunkl-power-matches-chain-oracle[n=3]",
            "cyclic-class-sums-vanish[n=3]",
            "mn-dunkl-telescope[n=3]",
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
            "hall-duality-affschur-kschur",
            "stanley-equals-affschur-on-grassmannians",
            "tableau-character-weight-order-invariance[n=3]",
        ],
        "dimensions": [
            "graded-dimension-and-independence[n=3,d<=6]",
            "schubert-symmetric-part-is-stanley[n=3]",
        ],
        "positivity": [
            "structure-constants-nonnegative-integers[n=3,l(u)+l(v)<=5]",
        ],
        "bgg": [
            "divided-difference-shifts-argument[n=3]",
            "divided-difference-square-and-braid[n=3]",
            "schubert-defining-recursion[n=3]",
        ],
    },
    4: {
        "main-theorem": [
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
            "mn-on-h[n=4]",
            "finite-right-factor-pass-through[n=3]",
            "leibniz-on-h-times-basis[n=3]",
        ],
        "commutativity": [
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
            "kschur-ribbon-formula[n=4,d<=6]",
            "hall-duality-affschur-kschur",
            "stanley-equals-affschur-on-grassmannians",
            "tableau-character-weight-order-invariance[n=3]",
        ],
        "dimensions": [
            "graded-dimension-and-independence[n=4,d<=6]",
        ],
        "positivity": [
            "structure-constants-nonnegative-integers[n=4,l(u)+l(v)<=4]",
        ],
        "bgg": [
            "divided-difference-shifts-argument[n=3]",
            "divided-difference-square-and-braid[n=3]",
            "schubert-defining-recursion[n=3]",
        ],
    },
    5: {
        "main-theorem": [
            "routes-agree[n=5,m=1,l<=5]",
            "cap-equals-bss[n=5,m=1,i=0]",
            "routes-agree[n=5,m=2,l<=5]",
            "cap-equals-bss[n=5,m=2,i=0]",
            "cap-equals-bss[n=5,m=2,i=1]",
            "routes-agree[n=5,m=3,l<=5]",
            "cap-equals-bss[n=5,m=3,i=0]",
            "cap-equals-bss[n=5,m=3,i=1]",
            "cap-equals-bss[n=5,m=3,i=2]",
            "routes-agree[n=5,m=4,l<=5]",
            "cap-equals-bss[n=5,m=4,i=0]",
            "cap-equals-bss[n=5,m=4,i=1]",
            "cap-equals-bss[n=5,m=4,i=2]",
            "cap-equals-bss[n=5,m=4,i=3]",
            "composition-recursion[n=3,|J|<=5]",
        ],
        "chevalley": [
            "deg1-mn-covers-cap[n=5,a=0]",
            "mn-difference-is-dunkl[n=5,a=0]",
            "deg1-mn-covers-cap[n=5,a=1]",
            "mn-difference-is-dunkl[n=5,a=1]",
            "deg1-mn-covers-cap[n=5,a=2]",
            "mn-difference-is-dunkl[n=5,a=2]",
            "deg1-mn-covers-cap[n=5,a=3]",
            "mn-difference-is-dunkl[n=5,a=3]",
            "deg1-mn-covers-cap[n=5,a=4]",
            "mn-difference-is-dunkl[n=5,a=4]",
        ],
        "leibniz": [
            "mn-on-h[n=5]",
            "finite-right-factor-pass-through[n=3]",
            "leibniz-on-h-times-basis[n=3]",
        ],
        "commutativity": [
            "dunkl-commute[n=5]",
            "dunkl-mn-commute[n=5]",
            "mn-mn-commute[n=5]",
            "dunkl-power-period-sum-vanishes[n=5]",
            "dunkl-power-order-n-vanishes[n=5]",
            "dunkl-power-matches-chain-oracle[n=5]",
            "cyclic-class-sums-vanish[n=5]",
            "mn-dunkl-telescope[n=5]",
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
            "kschur-ribbon-formula[n=5,d<=6]",
            "hall-duality-affschur-kschur",
            "stanley-equals-affschur-on-grassmannians",
            "tableau-character-weight-order-invariance[n=3]",
        ],
        "dimensions": [
            "graded-dimension-and-independence[n=5,d<=6]",
        ],
        "positivity": [
            "structure-constants-nonnegative-integers[n=5,l(u)+l(v)<=4]",
        ],
        "bgg": [
            "divided-difference-shifts-argument[n=3]",
            "divided-difference-square-and-braid[n=3]",
            "schubert-defining-recursion[n=3]",
        ],
    },
    6: {
        "main-theorem": [
            "routes-agree[n=6,m=1,l<=5]",
            "cap-equals-bss[n=6,m=1,i=0]",
            "routes-agree[n=6,m=2,l<=5]",
            "cap-equals-bss[n=6,m=2,i=0]",
            "cap-equals-bss[n=6,m=2,i=1]",
            "routes-agree[n=6,m=3,l<=5]",
            "cap-equals-bss[n=6,m=3,i=0]",
            "cap-equals-bss[n=6,m=3,i=1]",
            "cap-equals-bss[n=6,m=3,i=2]",
            "routes-agree[n=6,m=4,l<=5]",
            "cap-equals-bss[n=6,m=4,i=0]",
            "cap-equals-bss[n=6,m=4,i=1]",
            "cap-equals-bss[n=6,m=4,i=2]",
            "cap-equals-bss[n=6,m=4,i=3]",
            "routes-agree[n=6,m=5,l<=5]",
            "cap-equals-bss[n=6,m=5,i=0]",
            "cap-equals-bss[n=6,m=5,i=1]",
            "cap-equals-bss[n=6,m=5,i=2]",
            "cap-equals-bss[n=6,m=5,i=3]",
            "cap-equals-bss[n=6,m=5,i=4]",
            "composition-recursion[n=3,|J|<=5]",
        ],
        "chevalley": [
            "deg1-mn-covers-cap[n=6,a=0]",
            "mn-difference-is-dunkl[n=6,a=0]",
            "deg1-mn-covers-cap[n=6,a=1]",
            "mn-difference-is-dunkl[n=6,a=1]",
            "deg1-mn-covers-cap[n=6,a=2]",
            "mn-difference-is-dunkl[n=6,a=2]",
            "deg1-mn-covers-cap[n=6,a=3]",
            "mn-difference-is-dunkl[n=6,a=3]",
            "deg1-mn-covers-cap[n=6,a=4]",
            "mn-difference-is-dunkl[n=6,a=4]",
            "deg1-mn-covers-cap[n=6,a=5]",
            "mn-difference-is-dunkl[n=6,a=5]",
        ],
        "leibniz": [
            "mn-on-h[n=6]",
            "finite-right-factor-pass-through[n=3]",
            "leibniz-on-h-times-basis[n=3]",
        ],
        "commutativity": [
            "dunkl-commute[n=6]",
            "dunkl-mn-commute[n=6]",
            "mn-mn-commute[n=6]",
            "dunkl-power-period-sum-vanishes[n=6]",
            "dunkl-power-order-n-vanishes[n=6]",
            "dunkl-power-matches-chain-oracle[n=6]",
            "cyclic-class-sums-vanish[n=6]",
            "mn-dunkl-telescope[n=6]",
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
            "kschur-ribbon-formula[n=6,d<=6]",
            "hall-duality-affschur-kschur",
            "stanley-equals-affschur-on-grassmannians",
            "tableau-character-weight-order-invariance[n=3]",
        ],
        "dimensions": [
            "graded-dimension-and-independence[n=6,d<=6]",
        ],
        "positivity": [
            "structure-constants-nonnegative-integers[n=6,l(u)+l(v)<=4]",
        ],
        "bgg": [
            "divided-difference-shifts-argument[n=3]",
            "divided-difference-square-and-braid[n=3]",
            "schubert-defining-recursion[n=3]",
        ],
    },
}
