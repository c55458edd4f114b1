import io
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

import oracles
from spechtvar import gfp, spechtmod
from spechtvar.cli import main
from spechtvar.errors import (NoSolution, PreconditionViolated, RankCheckFailed,
                              TooLarge)
from spechtvar.jordan import rank_vector_at
from spechtvar.partitions import conjugate, dim_specht, partitions_of, size
from spechtvar.spechtmod import (_ballot_rows, _cache_dtype, _cache_key, _digest,
                                 _load_cached, _solve_on_minor, _tabloid_table,
                                 _TabloidTable, generator_cycles, orbit_labels,
                                 perm_module_actions,
                                 restricted_actions, standard_basis, tabloid_count)


def test_tabloid_counts():
    assert tabloid_count((6, 3)) == 84
    assert tabloid_count((3, 3, 3)) == 1680
    assert tabloid_count((7,)) == 1
    assert tabloid_count((5, 2, 1, 1)) == 1512
    table = _tabloid_table((6, 3))
    assert table.count == 84 and table.rows.shape == (84, 9)
    assert np.array_equal(table.lookup(table.rows), np.arange(84))


def _tabloids_by_recursion(mu):
    """Oracle: row-assignment vectors, each row set an ascending combination."""
    out = []

    def rec(avail, r, cur):
        if r == len(mu):
            out.append(list(cur))
            return
        for combo in itertools.combinations(avail, mu[r]):
            for x in combo:
                cur[x - 1] = r
            rec([x for x in avail if x not in combo], r + 1, cur)

    rec(list(range(1, sum(mu) + 1)), 0, [0] * sum(mu))
    return out


def test_tabloid_canonical_order():
    # rows[i][x-1] is the row of letter x: {12|3}, {13|2}, {23|1}
    assert _tabloid_table((2, 1)).rows.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    for mu in [(4, 3, 2), (2, 2, 1, 1, 1), (3, 3, 3), (70, 1, 1)]:
        assert _tabloid_table(mu).rows.tolist() == _tabloids_by_recursion(mu), mu
    with pytest.raises(TooLarge):
        _tabloid_table((1,) * 11)


def test_perm_action_sparse_examples():
    table = _tabloid_table((2, 1))

    def act(img):
        return table.apply_letters(np.array(img)).tolist()

    assert act([1, 2, 3]) == [0, 1, 2]
    # transposition (1 2): fixes {12|3}, swaps {13|2} and {23|1}
    assert act([2, 1, 3]) == [0, 2, 1]
    # 3-cycle sends {12|3} to {23|1}; composing with its inverse is identity
    cyc, inv = act([2, 3, 1]), act([3, 1, 2])
    assert cyc[0] == 2
    assert [cyc[i] for i in inv] == [0, 1, 2]


def test_apply_letters_rejects_a_map_that_is_not_a_permutation():
    # [1, 1, 3] sends {12|3} and {13|2} to the same tabloid, and every key
    # it forms is a tabloid's, so only the map itself can be checked
    table = _tabloid_table((2, 1))
    for img in ([1, 1, 3], [1, 2], [1, 2, 3, 4], [0, 1, 2], [2, 3, 4], [[1, 2, 3]]):
        with pytest.raises(PreconditionViolated):
            table.apply_letters(np.array(img))
    assert table.apply_letters(np.array([3, 1, 2])).tolist() == [1, 2, 0]


def _dict_index(table):
    """Oracle: the tabloid index by a bytes-key probe per tabloid."""
    return {row.tobytes(): i for i, row in enumerate(table.rows)}


def _moved_letters(m):
    """A letter map with a 3-cycle and a transposition, for any m >= 3."""
    img = np.roll(np.arange(1, m + 1), -1)
    img[:3] = img[[1, 0, 2]]
    return img


# named shapes first, so their ids stay mu0, mu1, ... as the sweep grows
_LOOKUP = [(4, 3, 2), (3, 3, 3), (2, 2, 1, 1, 1), (99, 1), (70, 1, 1), (1000,), (65, 2)]


@pytest.mark.parametrize("mu", _LOOKUP + [mu for m in range(1, 10) for mu in partitions_of(m)
                                          if mu not in _LOOKUP])
def test_lookup_matches_dict_index(mu):
    # (99,1), (70,1,1) and (65,2) have more letters than 63 bits of
    # base-len(mu) digits hold, and (1000) is one row of 1000 letters
    table = _tabloid_table(mu)
    index = _dict_index(table)
    assert np.array_equal(table.lookup(table.rows), np.arange(table.count))
    for img in ([_moved_letters(table.m)] if table.m >= 3 else []) + [
            np.arange(table.m, 0, -1)]:
        moved = table.rows[:, np.argsort(img - 1)]
        expected = [index[row.tobytes()] for row in moved]
        assert table.apply_letters(img).tolist() == expected
        assert table.lookup(moved).tolist() == expected
    # batched lookups keep the leading axes, and any integer type is read
    k = min(5, table.count)
    stacked = np.stack([table.rows[:k], table.rows[::-1][:k]]).astype(np.int64)
    assert table.lookup(stacked).tolist() == [list(range(k)),
                                              list(range(table.count - 1, table.count - 1 - k, -1))]


def test_lookup_of_a_vector_of_no_tabloid_raises_rank_check():
    # letters put in too many or too few rows, or in a row past the shape
    # or before the first, find no key of the table
    table = _tabloid_table((2, 1))
    for vec in ([0, 0, 0], [1, 1, 0], [0, 2, 0], [0, 1, 1], [0, 1, -1]):
        with pytest.raises(RankCheckFailed):
            table.lookup(np.array(vec, dtype=np.int8))
    with pytest.raises(RankCheckFailed):
        table.lookup(np.array([table.rows[0], [0, 0, 0]], dtype=np.uint8))
    big = _tabloid_table((99, 1))
    with pytest.raises(RankCheckFailed):
        big.lookup(np.ones(100, dtype=np.uint8))


def _standard_tableaux(mu):
    """Oracle: all standard tableaux as row tuples, sorted by row-reading
    word, by a depth-first search that places 1, 2, ... in turn."""
    m = sum(mu)
    rows = [[] for _ in mu]
    out = []
    # without recursion: ``chosen`` holds the row of each entry placed so
    # far, and r is the next row to try for the next entry
    chosen = []
    r = 0
    while True:
        while r < len(mu) and not (len(rows[r]) < mu[r]
                                   and (r == 0 or len(rows[r]) < len(rows[r - 1]))):
            r += 1
        if r < len(mu):
            rows[r].append(len(chosen) + 1)
            chosen.append(r)
            if len(chosen) < m:
                r = 0
                continue
            out.append(tuple(tuple(row) for row in rows))
        elif not chosen:
            break
        r = chosen.pop()
        rows[r].pop()
        r += 1
    out.sort()
    return out


def _tabloid_of(t, m):
    """The row-assignment vector of the tabloid {t}."""
    vec = np.zeros(m, dtype=np.uint8)
    for r, row in enumerate(t):
        vec[np.array(row) - 1] = r
    return vec


def test_standard_tableaux_order():
    tabs = _standard_tableaux((2, 1))
    assert tabs == [((1, 2), (3,)), ((1, 3), (2,))]
    assert len(_standard_tableaux((3, 2))) == 5
    assert _standard_tableaux((3,)) == [((1, 2, 3),)]
    # the ballot rows of the table are {12|3} and {13|2}, in that order
    table = _tabloid_table((2, 1))
    assert table.rows[_ballot_rows(table)].tolist() == [[0, 0, 1], [0, 1, 0]]


@pytest.mark.parametrize("mu", [mu for m in range(1, 12) for mu in partitions_of(m)
                                if tabloid_count(mu) <= 200_000] + [(1000,), (999, 1)])
def test_ballot_rows_are_the_standard_tableaux(mu):
    # same tabloids in the same order as the depth-first oracle, as many as
    # the hook formula gives; the table is built uncached, so the sweep
    # leaves no large table behind
    table = _TabloidTable(mu)
    tabs = _standard_tableaux(mu)
    rows = _ballot_rows(table)
    assert len(rows) == len(tabs) == dim_specht(mu)
    assert np.array_equal(table.rows[rows], [_tabloid_of(t, table.m) for t in tabs])


def test_standard_basis_smallest_case():
    basis = standard_basis((2, 1), 3)
    assert basis.dim == 2
    assert basis.tabloid_count == 3
    # e_t = {t} - (column swap), written in the canonical tabloid order
    assert basis.B.tolist() == [[1, 0], [0, 1], [2, 2]]


def test_standard_basis_single_row_and_ranks():
    basis = standard_basis((6,), 2)
    assert basis.B.tolist() == [[1]] and basis.standard_rows.tolist() == [0]
    for mu, p in [((3, 3, 3), 3), ((4, 2), 3), ((3, 2, 1), 2), ((2, 2, 2), 5)]:
        basis = standard_basis(mu, p)
        assert gfp.rank(basis.B, p) == basis.dim  # re-check the invariant
        table = _tabloid_table(mu)
        assert np.array_equal(table.rows[basis.standard_rows],
                              [_tabloid_of(t, table.m) for t in _standard_tableaux(mu)])


def _polytabloid_loop(mu, p):
    """Oracle: B by one dict probe per tableau and column permutation."""
    table = _tabloid_table(mu)
    index = _dict_index(table)
    conj = conjugate(mu)
    tabs = _standard_tableaux(mu)
    b = np.zeros((table.count, len(tabs)), dtype=np.int64)
    for colno, t in enumerate(tabs):
        columns = [tuple(t[r][j] for r in range(conj[j])) for j in range(len(conj))]
        perm_lists = []
        for col in columns:
            arrangements = []
            for arrangement in itertools.permutations(col):
                order = [col.index(a) for a in arrangement]
                inversions = sum(order[i] > order[j]
                                 for i, j in itertools.combinations(range(len(order)), 2))
                arrangements.append((arrangement, -1 if inversions % 2 else 1))
            perm_lists.append(arrangements)
        vec = np.zeros(table.m, dtype=np.uint8)
        for r, row in enumerate(t):
            for x in row:
                vec[x - 1] = r
        for choice in itertools.product(*perm_lists):
            sign = 1
            for arrangement, s in choice:
                sign *= s
                for r, letter in enumerate(arrangement):
                    vec[letter - 1] = r
            b[index[vec.tobytes()], colno] += sign
    return b % p


@pytest.mark.parametrize("mu,p", [((3, 2), 3), ((3, 3, 3), 3), ((4, 3, 2), 3),
                                  ((5, 2, 1), 2), ((3, 3, 2, 2), 2), ((6, 4), 5),
                                  ((4, 4, 2), 5)])
def test_polytabloid_matrix_is_built_in_its_float_type(mu, p):
    # B comes out in the float type the solve reads, equal to the integer
    # B of the loop; no int64 copy is made on the way
    basis = standard_basis(mu, p)
    assert basis.B.dtype == gfp.exact_float(basis.dim, p)
    assert np.array_equal(basis.B, _polytabloid_loop(mu, p))


def test_standard_tableaux_of_long_rows_and_columns():
    # the oracle needs no recursion per cell: one row or one column of
    # 1000 cells; the ballot rows of (999,1) put the second row's letter
    # at 1000, 999, ..., 2 in turn
    assert _standard_tableaux((1000,)) == [(tuple(range(1, 1001)),)]
    assert _standard_tableaux((1,) * 1000) == [tuple((i,) for i in range(1, 1001))]
    assert len(_standard_tableaux((999, 1))) == 999
    table = _tabloid_table((999, 1))
    words = table.rows[_ballot_rows(table)]
    assert np.array_equal(np.argmax(words, axis=1), np.arange(999, 0, -1))
    assert _ballot_rows(_tabloid_table((1000,))).tolist() == [0]


def _tall_actions(mu, n, p):
    """Oracle: A_i by one elimination of B against every (g_i - 1)B, all T rows."""
    basis = standard_basis(mu, p)
    table = _tabloid_table(mu)
    blocks = []
    for img in generator_cycles(table.m, n, p):
        moved = np.empty_like(basis.B)
        moved[table.apply_letters(img)] = basis.B
        blocks.append((moved - basis.B) % p)
    solved = gfp.solve(basis.B, np.hstack(blocks), p)
    return [solved[:, i * basis.dim: (i + 1) * basis.dim] for i in range(n)]


# (3,3,3) has a column group of 216; (2,2,1,1) and (3,3,2,2) are built
# from their conjugates
_DIFFERENTIAL = [((3, 2, 1), 3, 2), ((2, 2, 1, 1), 3, 2), ((3, 3, 3), 3, 3),
                 ((4, 3, 2), 3, 3), ((2, 2, 1, 1, 1, 1, 1), 3, 3),
                 ((6, 4), 2, 5), ((3, 3, 2, 2), 2, 5)]


@pytest.mark.parametrize("mu,n,p", _DIFFERENTIAL)
def test_actions_match_tall_solve(mu, n, p):
    acts = restricted_actions(mu, n, p)
    work = conjugate(mu) if acts.conjugated else mu
    assert acts.conjugated == (mu in ((2, 2, 1, 1), (2, 2, 1, 1, 1, 1, 1), (3, 3, 2, 2)))
    assert np.array_equal(standard_basis(work, p).B, _polytabloid_loop(work, p))
    assert acts.A.dtype == gfp.exact_float(n, p)
    assert np.array_equal(acts.A, np.stack(_tall_actions(work, n, p)))


def test_standard_tabloid_minor_is_unit_lower_triangular():
    # over the integers, read at p = 3 where the entries -1, 0, 1 stay apart
    for m in range(1, 10):
        for mu in partitions_of(m):
            basis = standard_basis(mu, 3)
            index = _dict_index(_tabloid_table(mu))
            rows = [index[_tabloid_of(t, m).tobytes()] for t in _standard_tableaux(mu)]
            assert basis.standard_rows.tolist() == rows
            minor = basis.B[rows]
            assert np.array_equal(minor, np.tril(minor)), mu
            assert (np.diagonal(minor) == 1).all(), mu


def test_minor_out_of_order_raises_rank_check(monkeypatch):
    # reversed tableau order turns the minor upper triangular
    real = spechtmod._ballot_rows
    monkeypatch.setattr(spechtmod, "_ballot_rows", lambda table: real(table)[::-1])
    with pytest.raises(RankCheckFailed):
        standard_basis((3, 2), 3)


def test_minor_without_unit_diagonal_raises_rank_check(monkeypatch):
    # a lost polytabloid leaves B rank deficient: its diagonal entry is 0
    real = spechtmod._polytabloid_matrix

    def lossy(*args):
        b = real(*args)
        b[:, 2] = 0
        return b
    monkeypatch.setattr(spechtmod, "_polytabloid_matrix", lossy)
    with pytest.raises(RankCheckFailed):
        standard_basis((3, 2), 3)


@pytest.mark.parametrize("batch, tile", [(spechtmod._BATCH, gfp.TILE_BYTES), (3, 3)],
                         ids=[str(spechtmod._BATCH), "3"])  # named by batch
def test_solve_on_minor_checks_every_row(monkeypatch, batch, tile):
    # a tile of 3 float32 entries, with no row floor, checks the
    # one-generator, 5-column system one row at a time; a batch of 3 letters
    # builds B one tabloid at a time
    monkeypatch.setattr(spechtmod, "_BATCH", batch)
    monkeypatch.setattr(gfp, "TILE_BYTES", tile * 4)
    if tile == 3:
        monkeypatch.setattr(spechtmod, "_MIN_TILE_ROWS", 1)
    basis = standard_basis((3, 2), 3)
    b, rows = basis.B, basis.standard_rows
    assert np.array_equal(b, _polytabloid_loop((3, 2), 3))
    (img,) = generator_cycles(5, 1, 3)
    source = np.empty(len(b), dtype=np.int64)
    source[_tabloid_table((3, 2)).apply_letters(img)] = np.arange(len(b))
    (a,) = _tall_actions((3, 2), 1, 3)
    y = _solve_on_minor(b, rows, source[None], 3)
    assert np.array_equal(y[:, 0], (a + np.eye(basis.dim, dtype=np.int64)) % 3)
    outside = sorted(set(range(len(b))) - set(rows.tolist()))
    for row in (outside[0], outside[-1]):
        # P B with one row off the minor read from another tabloid
        bad = source.copy()
        bad[row] = next(j for j in range(len(b)) if not np.array_equal(b[j], b[source[row]]))
        with pytest.raises(NoSolution):
            _solve_on_minor(b, rows, bad[None], 3)


def _check_tiles(monkeypatch, mu, n, p):
    """The A_i of S^mu, and the heights of the check's row tiles: the
    products reduced after the forward substitution."""
    events = []
    real_solve, real_mod = gfp.solve_unit_lower, gfp.float_mod

    def solve(*args):
        out = real_solve(*args)
        events.append("solved")
        return out

    def reduce(y, q):
        events.append(y.shape)
        return real_mod(y, q)
    with monkeypatch.context() as m:
        m.setattr(gfp, "solve_unit_lower", solve)
        m.setattr(gfp, "float_mod", reduce)
        acts = restricted_actions(mu, n, p, use_conjugate=False)
    products = events[events.index("solved") + 1:]
    assert all(shape[1:] == (n * acts.dim,) for shape in products)
    return acts.A, [shape[0] for shape in products]


def _split(count, rows):
    return [rows] * (count // rows) + [count % rows] * (count % rows > 0)


@pytest.mark.parametrize("mu, p", [((5, 3, 2), 2), ((4, 3, 2), 3), ((5, 4, 1), 5)])
def test_check_tiles_give_the_same_actions(monkeypatch, mu, p):
    # B Y = P B is checked in tiles of max(_MIN_TILE_ROWS, TILE_BYTES // (n d
    # itemsize)) rows of B; the A_i are the same bytes whatever the tiles:
    # one row each, the row floor, a short last tile, and one tile
    monkeypatch.delenv("SPECHTVAR_CACHE", raising=False)
    n = sum(mu) // p
    d, count = dim_specht(mu), tabloid_count(mu)
    entry = n * d * np.dtype(gfp.exact_float(d, p)).itemsize  # bytes of a product row
    floor = spechtmod._MIN_TILE_ROWS
    reference, tiles = _check_tiles(monkeypatch, mu, n, p)
    assert tiles == _split(count, max(floor, gfp.TILE_BYTES // entry))
    if mu == (5, 3, 2):  # n d = 2250 columns: the floor sets the default tiles
        assert gfp.TILE_BYTES // entry < floor and tiles[0] == floor
    assert count % floor and count % 11  # both splits end in a short tile
    cases = [(1, entry, 1),  # no floor, a one-row budget
             (floor, entry, floor),  # the floor
             (1, 11 * entry, 11),  # a short last tile
             (floor, count * entry, count)]  # one tile
    for least, budget, rows in cases:
        monkeypatch.setattr(spechtmod, "_MIN_TILE_ROWS", least)
        monkeypatch.setattr(gfp, "TILE_BYTES", budget)
        stack, tiles = _check_tiles(monkeypatch, mu, n, p)
        assert tiles == _split(count, rows)
        assert stack.dtype == reference.dtype and stack.tobytes() == reference.tobytes()


def test_construction_eliminates_at_most_d_rows(monkeypatch):
    # no elimination at all: the one solve is the forward substitution on
    # the d x d minor, with d right-hand-side rows
    monkeypatch.delenv("SPECHTVAR_CACHE", raising=False)
    calls = []

    def spy(name):
        real = getattr(gfp, name)

        def wrapped(*args, **kwargs):
            calls.append((name, *(np.shape(x)[0] for x in args[:2])))
            return real(*args, **kwargs)
        monkeypatch.setattr(gfp, name, wrapped)

    for name in ("rank", "rref", "_reduce", "solve", "_echelon", "solve_unit_lower"):
        spy(name)
    acts = restricted_actions((4, 3, 2), 3, 3)
    d = dim_specht((4, 3, 2))
    assert acts.dim == d
    assert calls == [("solve_unit_lower", d, d)]


def test_build_frees_b_before_the_stack(monkeypatch):
    # S^(7,3,2) at p = 3 (n = 4, d = 1925, T = 7920): B (61 MB) is dropped
    # once the Y_i are solved, so it is never held with the (n, d, d) stack.
    # The build peaked at 172 MiB of numpy arrays while it was, 133 MiB after
    monkeypatch.delenv("SPECHTVAR_CACHE", raising=False)
    tracemalloc.start()
    try:
        acts = restricted_actions((7, 3, 2), 4, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acts.dim == 1925
    assert peak < 150 * 2**20


def test_standard_basis_caps():
    with pytest.raises(TooLarge):
        standard_basis((9, 8), 3)  # dimension 4862


def test_restricted_actions_trivial_modules():
    acts = restricted_actions((9,), 3, 3)
    assert acts.dim == 1
    assert all(not a.any() for a in acts.A)
    acts = restricted_actions((4,), 2, 2)
    assert all(not a.any() for a in acts.A)


def test_restricted_actions_invariants():
    acts = restricted_actions((3, 3, 3), 3, 3)
    assert acts.dim == 42
    assert len(acts.A) == 3
    assert acts.nilpotency_checks()
    acts = restricted_actions((4, 2), 2, 3, use_conjugate=False)
    assert acts.nilpotency_checks()
    acts = restricted_actions((3, 1), 2, 2)
    assert acts.nilpotency_checks()


def test_restricted_actions_preconditions():
    with pytest.raises(PreconditionViolated):
        restricted_actions((4, 3), 2, 3)


def rank_sequence(mats, alphas, p):
    n = sum(a * m for a, m in zip(alphas, mats)) % p
    out = []
    power = n
    for _ in range(p - 1):
        out.append(gfp.rank(power, p))
        power = gfp.mod_matmul(power, n, p)
    return out


@pytest.mark.parametrize("mu,n,p", [((4, 2), 2, 3), ((3, 1), 2, 2),
                                    ((2, 2, 1, 1), 2, 3)])
def test_conjugate_duality_rank_sequences(mu, n, p):
    from spechtvar.partitions import conjugate

    left = restricted_actions(mu, n, p, use_conjugate=False)
    right = restricted_actions(conjugate(mu), n, p, use_conjugate=False)
    assert left.dim == right.dim
    rng = np.random.default_rng(17)
    for _ in range(20):
        alphas = rng.integers(0, p, n)
        if not alphas.any():
            alphas[0] = 1
        assert rank_sequence(left.A, alphas, p) == rank_sequence(right.A, alphas, p)


def test_conjugate_swap_records_flag():
    acts = restricted_actions((2, 2, 1, 1, 1, 1, 1), 3, 3)
    assert acts.conjugated
    assert acts.dim == 27  # dim of the conjugate pair (7,2)


def fixed_tabloids(acts):
    return sum(len(orbit) == 1 for orbit in acts.orbits())


def test_perm_module_fixed_tabloids():
    assert fixed_tabloids(perm_module_actions((9,), 3, 3)) == 1
    assert fixed_tabloids(perm_module_actions((3, 3, 3), 3, 3)) == 6
    assert fixed_tabloids(perm_module_actions((6, 3), 3, 3)) == 3


def test_perm_module_orbits_partition_the_tabloids():
    acts = perm_module_actions((3, 3, 3), 3, 3)
    orbits = acts.orbits()
    sizes = sorted(len(o) for o in orbits)
    assert sum(sizes) == 1680
    assert all(s in (1, 3, 9, 27) for s in sizes)
    seen = np.concatenate(orbits)
    assert len(np.unique(seen)) == 1680


def test_orbit_labels_are_least_indices():
    # no maps: every index is its own orbit; the 4-cycle (0 3 2 1) and the
    # transposition (3 5) put 5 in the orbit of 0 only together
    assert orbit_labels([], 4).tolist() == [0, 1, 2, 3]
    cycle, swap = np.array([3, 0, 1, 2, 4, 5]), np.array([0, 1, 2, 5, 4, 3])
    assert orbit_labels([cycle], 6).tolist() == [0, 0, 0, 0, 4, 5]
    assert orbit_labels([swap], 6).tolist() == [0, 1, 2, 3, 4, 3]
    assert orbit_labels([swap, cycle], 6).tolist() == [0, 0, 0, 0, 4, 0]


@pytest.mark.parametrize("mu, p", [((6, 3), 3), ((3, 3, 3), 3), ((4, 4), 2), ((4, 2, 2), 2),
                                   ((7, 3), 5)])
def test_perm_module_orbits_match_the_breadth_first_walk(mu, p):
    # orbit_labels gives the partition, each orbit sorted, and the order by
    # least element of the walk over a seen-set that it replaced
    acts = perm_module_actions(mu, size(mu) // p, p)
    got, ref = acts.orbits(), oracles.tabloid_orbits(acts.perms, acts.dim)
    assert len(got) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_perm_module_block_actions_reassemble():
    acts = perm_module_actions((4, 2), 2, 3)
    covered = 0
    for orbit, mats in acts.block_actions():
        covered += len(orbit)
        pos = {int(g): i for i, g in enumerate(orbit)}
        for local, pi in zip(mats, acts.perms):
            expected = np.zeros_like(local)
            for i, g in enumerate(orbit):
                expected[pos[int(pi[g])], i] += 1
                expected[i, i] -= 1
            assert np.array_equal(local, expected % 3)
    assert covered == acts.dim


def test_generator_cycles_shape():
    gens = generator_cycles(9, 3, 3)
    assert len(gens) == 3
    assert gens[0].tolist() == [2, 3, 1, 4, 5, 6, 7, 8, 9]
    assert gens[2].tolist() == [1, 2, 3, 4, 5, 6, 8, 9, 7]
    with pytest.raises(PreconditionViolated):
        generator_cycles(5, 2, 3)


def _spy_builds(monkeypatch) -> list:
    """Record every standard_basis call: a restricted_actions call that
    makes one missed the cache."""
    built = []
    real = spechtmod.standard_basis
    monkeypatch.setattr(spechtmod, "standard_basis",
                        lambda *args: built.append(args) or real(*args))
    return built


def _assert_same_actions(got, want, label=None):
    """Both modules hold their A_i as one C-contiguous (n, d, d) stack of
    type exact_float(n, p), and the two stacks have the same bytes."""
    for acts in (got, want):
        assert acts.A.dtype == gfp.exact_float(acts.n, acts.p), label
        assert acts.A.flags.c_contiguous, label
        assert acts.A.shape == (acts.n, acts.dim, acts.dim), label
    assert got.A.tobytes() == want.A.tobytes(), label


def _stack_of(path, n, d, p):
    """The stack and the digest of a cache record, read without the checks
    of the loader; the reshape fails unless the length is exact."""
    raw = path.read_bytes()
    stack = np.frombuffer(raw, dtype=_cache_dtype(p), offset=32).reshape(n, d, d)
    return stack, raw[:32]


def _npz(members):
    """The bytes of an npz archive holding these members."""
    out = io.BytesIO()
    np.savez_compressed(out, **members)
    return out.getvalue()


def _damaged(key, stack, digest):
    """Contents of a p = 3 cache file that a load must reject."""
    flipped = stack.copy()
    flipped[1, 4, 7] = (flipped[1, 4, 7] + 1) % 3
    too_big = stack.copy()
    too_big[1, 0, 5] = 3  # the digest matches, only the range check sees it
    wide = stack.astype(np.uint16)  # the right values, with a digest of its own
    zeros = np.zeros_like(stack)
    small = np.zeros((len(stack), 5, 5), dtype=stack.dtype)
    return {
        "empty": b"",
        "zeros, stale digest": digest + zeros.tobytes(),
        "zeros, no digest": zeros.tobytes(),
        "flipped entry": digest + flipped.tobytes(),
        "entry equal to p": _digest(key, too_big) + too_big.tobytes(),
        "missing digest": stack.tobytes(),
        "digest after the stack": stack.tobytes() + digest,
        "misshaped": _digest(key, small) + small.tobytes(),
        "other dtype": _digest(key, wide) + wide.tobytes(),
        # the stack and its digest as the two members of an npz archive
        "npz layout": _npz({key: stack, f"{key}_digest": np.frombuffer(digest, np.uint8)}),
        "npz of int64 members": _npz({f"{key}_{i}": a.astype(np.int64)
                                      for i, a in enumerate(stack)}),
    }


def test_cache_roundtrip(tmp_path, monkeypatch):
    # every S^mu with |mu| <= 8 at the module primes, and S^(256,1) at
    # p = 257 (entries up to 256), loads as it was built: one float stack
    # of the same bytes, served from a uint8 or uint16 record
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    cases = [(mu, m // p, p) for p in (2, 3, 5) for m in range(p, 9, p)
             for mu in partitions_of(m)]
    assert len(cases) == 61
    cases.append(((256, 1), 1, 257))
    built = [restricted_actions(*case) for case in cases]
    assert built[-1].dim == 256 and max(int(a.max()) for a in built[-1].A) == 256
    builds = _spy_builds(monkeypatch)
    for case, first in zip(cases, built):
        again = restricted_actions(*case)
        assert again.dim == first.dim == dim_specht(case[0]), case
        _assert_same_actions(again, first, case)
    assert builds == []
    dtypes = {}
    for (mu, n, p), first in zip(cases, built):
        key = _cache_key(conjugate(mu) if first.conjugated else mu, n, p)
        stack, digest = _stack_of(tmp_path / f"{key}.bin", n, first.dim, p)
        assert digest == _digest(key, stack), mu
        assert np.array_equal(stack, np.stack(first.A)), mu
        dtypes[key] = stack.dtype
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(f"{key}.bin" for key in dtypes)
    wide = _cache_key((256, 1), 1, 257)
    assert dtypes.pop(wide) == np.uint16
    assert set(dtypes.values()) == {np.dtype(np.uint8)}


def test_cache_rebuilds_unreadable_or_misshaped_files(tmp_path, monkeypatch):
    # each bad file is a miss: the module is rebuilt bit-identical and the
    # file rewritten, so the next call is served from it
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    built = restricted_actions((4, 2), 2, 3)
    key = _cache_key((4, 2), 2, 3)
    (path,) = tmp_path.iterdir()
    assert path.name == f"{key}.bin"
    raw = path.read_bytes()
    assert len(raw) == 32 + 2 * 9 * 9
    stack, digest = _stack_of(path, 2, built.dim, 3)
    assert stack.dtype == np.uint8 and digest == _digest(key, stack)
    bad_files = {
        "truncated": raw[: len(raw) // 2],
        "garbage": b"not a cache file\n" * 8,
        **_damaged(key, stack, digest),
    }
    builds = _spy_builds(monkeypatch)
    for label, content in bad_files.items():
        path.write_bytes(content)
        assert _load_cached(path, key, 2, built.dim, 3) is None, label
        builds.clear()
        _assert_same_actions(restricted_actions((4, 2), 2, 3), built, label)
        assert len(builds) == 1, label
        assert path.read_bytes() == raw, label
        builds.clear()
        _assert_same_actions(restricted_actions((4, 2), 2, 3), built, label)
        assert builds == [], label
    assert list(tmp_path.iterdir()) == [path]


def test_cache_path_taken_by_a_directory_is_a_miss(tmp_path, monkeypatch, capsys):
    # a directory where the record belongs can be neither read nor
    # replaced: each call builds and returns the module, raises nothing
    # and leaves no temporary file behind
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    argv = ["jordan", "--mu", "(4,2)", "--p", "3"]
    assert main(argv) == 0
    fresh = json.loads(capsys.readouterr().out)["report"]
    built = restricted_actions((4, 2), 2, 3)
    (path,) = tmp_path.iterdir()
    path.unlink()
    path.mkdir()
    assert _load_cached(path, _cache_key((4, 2), 2, 3), 2, built.dim, 3) is None
    builds = _spy_builds(monkeypatch)
    _assert_same_actions(restricted_actions((4, 2), 2, 3), built)
    assert len(builds) == 1
    assert main(argv) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["report"] == fresh and out.err == ""
    assert list(tmp_path.iterdir()) == [path] and path.is_dir()


def test_cache_never_reads_a_killed_writers_tmp_file(tmp_path, monkeypatch):
    # a writer killed before its rename leaves KEY.PID.tmp behind.  Only
    # KEY.bin is read, so even a well-formed record of zeros there is not
    # served: the module is built, KEY.bin written, and the leftover kept
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    built = restricted_actions((4, 2), 2, 3)
    key = _cache_key((4, 2), 2, 3)
    (path,) = tmp_path.iterdir()
    raw = path.read_bytes()
    path.unlink()
    zeros = np.zeros((2, built.dim, built.dim), dtype=np.uint8)
    leftover = tmp_path / f"{key}.{os.getpid() + 1}.tmp"
    leftover.write_bytes(_digest(key, zeros) + zeros.tobytes())
    assert _load_cached(leftover, key, 2, built.dim, 3) is not None  # it would pass
    builds = _spy_builds(monkeypatch)
    _assert_same_actions(restricted_actions((4, 2), 2, 3), built)
    assert len(builds) == 1 and path.read_bytes() == raw
    assert leftover.read_bytes() == _digest(key, zeros) + zeros.tobytes()
    assert sorted(tmp_path.iterdir()) == sorted([path, leftover])


def test_cache_file_is_bound_to_its_key(tmp_path, monkeypatch):
    # S^(7,2) at p=3 (d=27): zero matrices written by hand over its cache
    # file, or the file of another module of the same shape, must be
    # rebuilt, not served
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    built = restricted_actions((7, 2), 3, 3)
    (path,) = tmp_path.glob("*.bin")
    fresh = rank_vector_at(built, [1, 1, 1])
    assert fresh.ranks == (27, 18, 9, 0)
    other = restricted_actions((2, 2, 1, 1, 1, 1, 1), 3, 3, use_conjugate=False)
    (other_path,) = set(tmp_path.glob("*.bin")) - {path}
    assert any(not np.array_equal(a, b) for a, b in zip(built.A, other.A))
    # zero bytes of the record's length, digest included
    zeros = bytes(len(path.read_bytes()))
    for label, content in (("hand-written", zeros), ("other key", other_path.read_bytes())):
        path.write_bytes(content)
        again = restricted_actions((7, 2), 3, 3)
        assert rank_vector_at(again, [1, 1, 1]) == fresh, label
        for a, b in zip(built.A, again.A):
            assert np.array_equal(a, b), label


@pytest.mark.parametrize("damage", ["zeros, stale digest", "zeros, no digest", "npz layout"])
def test_zeroed_cache_file_is_not_served_to_the_cli(tmp_path, capsys, damage):
    argv = ["jordan", "--mu", "(7,2)", "--p", "3", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    fresh = json.loads(capsys.readouterr().out)["report"]
    assert fresh["rank_vector"] == [27, 18, 9, 0]
    key = _cache_key((7, 2), 3, 3)
    (path,) = tmp_path.glob("*.bin")
    path.write_bytes(_damaged(key, *_stack_of(path, 3, 27, 3))[damage])
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["report"] == fresh
