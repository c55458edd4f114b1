"""Acceptance gate: one test and one PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Results are cached per process, so the CLI tests that follow
reuse everything computed here.
"""

from spechtvar import acceptance


def _check(idx, name, fn, *args):
    ok, detail = fn(*args)
    print(f"{'PASS' if ok else 'FAIL'} criterion {idx} ({name}): {detail}")
    assert ok, f"criterion {idx} ({name}): {detail}"


def test_criterion_1_table_reproduction():
    _check(1, "table-reproduction", acceptance.table_reproduction)


def test_criterion_2_quartic_identification():
    _check(2, "quartic-identification", acceptance.quartic_identification)


def test_criterion_3_dimension_estimate():
    _check(3, "dimension-estimate", acceptance.dimension_estimate)


def test_criterion_4_permutation_generic_types():
    _check(4, "permutation-generic-types", acceptance.perm_generic_types)


def test_criterion_5_two_row_generic_types():
    _check(5, "two-row-generic-types", acceptance.two_row_generic_types)


def test_criterion_6_complementary_pairs():
    _check(6, "complementary-pairs", acceptance.complementary_pairs)


def test_criterion_7_combinatorial_oracles():
    _check(7, "combinatorial-oracles", acceptance.combinatorial_oracles)


def test_criterion_8_property_suites():
    _check(8, "property-suites", acceptance.property_suites)


def test_run_all_reports_every_criterion():
    lines = []
    results = acceptance.run_all(log=lines.append)
    assert [idx for idx, *_ in results] == list(range(1, 9))
    assert all(ok for _, _, ok, _ in results)
    assert len(lines) == 8
    assert all(line.startswith("PASS ") for line in lines)


def test_invariance_trials_report_the_first_change(monkeypatch):
    # check 8 ranks each module's trials in one call; the trial it reports
    # is still the first, in trial order, whose point and image differ
    monkeypatch.setattr(acceptance, "_rank_vectors", lambda acts, points: list(points))
    roster = ["a", "b", "c"]
    assert acceptance._first_change(roster, [(i, i) for i in range(20)]) is None
    for bad in ({7}, {4, 11}, {19, 0}, {2, 3}):
        trials = [(i, -1 if i in bad else i) for i in range(20)]
        assert acceptance._first_change(roster, trials) == min(bad)
