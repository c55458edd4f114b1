import numpy as np
import pytest

from spechtvar import gfp
from spechtvar.errors import PreconditionViolated, TooLarge
from spechtvar.jordan import rank_vector_at
from spechtvar.spechtmod import (_cache_key, _load_cached, _tabloid_table,
                                 generator_cycles, perm_module_actions,
                                 restricted_actions, standard_basis,
                                 standard_tableaux, tabloid_count)


def test_tabloid_counts():
    assert tabloid_count((6, 3)) == 84
    assert tabloid_count((3, 3, 3)) == 1680
    assert tabloid_count((7,)) == 1
    assert tabloid_count((5, 2, 1, 1)) == 1512
    table = _tabloid_table((6, 3))
    assert table.count == 84 and table.rows.shape == (84, 9)
    assert len(table.index) == 84


def test_tabloid_canonical_order():
    # rows[i][x-1] is the row of letter x: {12|3}, {13|2}, {23|1}
    assert _tabloid_table((2, 1)).rows.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
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


def test_standard_tableaux_order():
    tabs = standard_tableaux((2, 1))
    assert tabs == [((1, 2), (3,)), ((1, 3), (2,))]
    assert len(standard_tableaux((3, 2))) == 5
    assert standard_tableaux((3,)) == [((1, 2, 3),)]


def test_standard_basis_smallest_case():
    basis = standard_basis((2, 1), 3)
    assert basis.dim == 2
    assert basis.tabloid_count == 3
    # e_t = {t} - (column swap), written in the canonical tabloid order
    assert basis.B.tolist() == [[1, 0], [0, 1], [2, 2]]


def test_standard_basis_single_row_and_ranks():
    assert standard_basis((6,), 2).B.tolist() == [[1]]
    for mu, p in [((3, 3, 3), 3), ((4, 2), 3), ((3, 2, 1), 2), ((2, 2, 2), 5)]:
        basis = standard_basis(mu, p)
        assert gfp.rank(basis.B, p) == basis.dim  # re-check the invariant


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


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    first = restricted_actions((4, 2), 2, 3)
    files = list(tmp_path.glob("*.npz"))
    assert len(files) == 1
    second = restricted_actions((4, 2), 2, 3)
    for a, b in zip(first.A, second.A):
        assert np.array_equal(a, b)


def test_cache_rebuilds_unreadable_or_misshaped_files(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    built = restricted_actions((4, 2), 2, 3)
    key = _cache_key((4, 2), 2, 3)
    (path,) = tmp_path.glob("*.npz")
    raw = path.read_bytes()
    wrong = tmp_path / "wrong.npz"
    np.savez_compressed(wrong, **{f"{key}_{i}": np.zeros((5, 5), dtype=np.int64)
                                  for i in range(2)})
    bad_files = {
        "truncated": raw[: len(raw) // 2],
        "garbage": b"not a cache file\n" * 8,
        "misshaped": wrong.read_bytes(),
    }
    for label, content in bad_files.items():
        path.write_bytes(content)
        again = restricted_actions((4, 2), 2, 3)
        assert again.dim == built.dim, label
        for a, b in zip(built.A, again.A):
            assert np.array_equal(a, b), label
        # the rebuild rewrote the file with the right matrices
        cached = _load_cached(path, key, 2, built.dim)
        assert cached is not None, label
        for a, b in zip(built.A, cached):
            assert np.array_equal(a, b), label
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted([path.name, wrong.name])


def test_cache_file_is_bound_to_its_key(tmp_path, monkeypatch):
    # S^(7,2) at p=3 (d=27): zero matrices written by hand over its cache
    # file, or the file of another module of the same shape, must be
    # rebuilt, not served
    monkeypatch.setenv("SPECHTVAR_CACHE", str(tmp_path))
    built = restricted_actions((7, 2), 3, 3)
    (path,) = tmp_path.glob("*.npz")
    fresh = rank_vector_at(built, [1, 1, 1])
    assert fresh.ranks == (27, 18, 9, 0)
    other = restricted_actions((2, 2, 1, 1, 1, 1, 1), 3, 3, use_conjugate=False)
    (other_path,) = set(tmp_path.glob("*.npz")) - {path}
    assert any(not np.array_equal(a, b) for a, b in zip(built.A, other.A))
    zeros = tmp_path / "zeros.npz"
    np.savez_compressed(zeros, **{f"a{i}": np.zeros((27, 27), dtype=np.int64)
                                  for i in range(3)})
    for label, source in (("hand-written", zeros), ("other key", other_path)):
        path.write_bytes(source.read_bytes())
        again = restricted_actions((7, 2), 3, 3)
        assert rank_vector_at(again, [1, 1, 1]) == fresh, label
        for a, b in zip(built.A, again.A):
            assert np.array_equal(a, b), label
