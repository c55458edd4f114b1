import math

import pytest

from spechtvar.errors import NotBlockMultiple, PreconditionViolated
from spechtvar.jordan import generic_type
from spechtvar.spechtmod import perm_module_actions
from spechtvar.youngdec import (perm_generic_type_formula, verify_cor_multiple,
                                verify_cor_psquare, young_summands)


def binomial_summands(r, m, p):
    # independent oracle: Y^{(r-s,s)} | M^{(r-m,m)} iff C(r-2s, m-s) != 0 mod p
    return {s for s in range(m + 1) if math.comb(r - 2 * s, m - s) % p}


def test_young_summands_examples():
    assert young_summands(9, 4, 3).s_values == {1, 2, 4}
    assert 0 not in young_summands(9, 4, 3).s_values
    assert young_summands(12, 3, 3).s_values == {0, 2, 3}
    assert young_summands(12, 6, 3).s_values == {2, 3, 5, 6}
    assert young_summands(7, 0, 3).s_values == {0}
    with pytest.raises(PreconditionViolated):
        young_summands(9, 5, 3)


def test_young_summands_against_binomial_oracle():
    for p in (2, 3, 5):
        for r in range(0, 19):
            for m in range(r // 2 + 1):
                got = young_summands(r, m, p).s_values
                assert got == binomial_summands(r, m, p), (r, m, p)
                assert m in got


def test_cor_psquare_p3():
    rep = verify_cor_psquare(3)
    assert rep["all_hold"]
    assert [c["m"] for c in rep["cases"]] == [4]
    case = rep["cases"][0]
    assert case["left"] == [1]
    assert case["right"] == [1, 2, 4]
    assert 4 in case["extra_summands"]
    assert case["filtration_factors"] == [(7, 2), (6, 3), (5, 4)]


def test_cor_psquare_p5():
    rep = verify_cor_psquare(5)
    assert rep["all_hold"]
    assert [c["m"] for c in rep["cases"]] == list(range(6, 13))


def test_cor_psquare_rejects_even():
    with pytest.raises(PreconditionViolated):
        verify_cor_psquare(2)


def test_cor_multiple_cases():
    rep = verify_cor_multiple(3, 3)  # n = 0 mod 3
    assert rep["case"] == "i" and rep["holds"]
    assert rep["left"] == rep["right"]  # (3,6) normalizes to (6,3)

    rep = verify_cor_multiple(4, 3)  # n = 1 mod 3
    assert rep["case"] == "ii" and rep["holds"]
    assert rep["trivial_in_left"] and not rep["trivial_in_right"]
    assert rep["left"] == [0, 2, 3] and rep["right"] == [2, 3, 5, 6]
    assert rep["filtration_factors"] == [(8, 4), (7, 5), (6, 6)]

    rep = verify_cor_multiple(5, 3)  # n = 2 mod 3: outside the hypothesis
    assert rep["case"] == "skipped" and rep["holds"] is None

    assert verify_cor_multiple(6, 3)["holds"]
    assert verify_cor_multiple(10, 3)["case"] == "ii"
    assert verify_cor_multiple(10, 3)["holds"]
    assert verify_cor_multiple(5, 5)["case"] == "i"
    assert verify_cor_multiple(5, 5)["holds"]

    with pytest.raises(PreconditionViolated):
        verify_cor_multiple(2, 3)


def test_perm_formula_examples():
    t = perm_generic_type_formula((3, 3, 3), 3, 3)
    assert t.blocks == (6, 0, 558)
    assert perm_generic_type_formula((9,), 3, 3).blocks == (1, 0, 0)
    t63 = perm_generic_type_formula((6, 3), 3, 3)
    assert t63.blocks == (3, 0, 27)
    with pytest.raises(NotBlockMultiple):
        perm_generic_type_formula((4, 3, 2), 3, 3)
    with pytest.raises(PreconditionViolated):
        perm_generic_type_formula((6, 3), 2, 3)


@pytest.mark.parametrize("mu,n,p", [
    ((9,), 3, 3), ((6, 3), 3, 3), ((3, 3, 3), 3, 3),
    ((4, 2), 3, 2), ((2, 2, 2), 3, 2),
])
def test_perm_formula_matches_empirical_type(mu, n, p):
    acts = perm_module_actions(mu, n, p)
    predicted = perm_generic_type_formula(mu, n, p)
    assert generic_type(acts, mode="exact").type == predicted
    # b is exactly the number of E_n-fixed tabloids
    assert sum(len(orbit) == 1 for orbit in acts.orbits()) == predicted.blocks[0]
