import random
import time
from array import array

import numpy as np
import pytest

from scrollres import linalg
from scrollres.checks import probe_rank, scroll_point
from scrollres.cli import main
from scrollres.linalg import Entries, _blocks, nullspace_modp, rank_modp
from scrollres.oracle import betti_oracle
from scrollres.primes import MAX_MODULUS, is_prime
from scrollres.resolution import field_resolution, phi
from scrollres.scrolls import build_scroll


def entries(mat):
    """The nonzero entries of a dense matrix."""
    mat = np.asarray(mat)
    rows, cols = np.nonzero(mat)
    return Entries(mat.shape, rows, cols, mat[rows, cols])


def dense(a):
    """The int64 array of an `Entries` matrix whose values are exact integers."""
    out = np.zeros(a.shape, dtype=np.int64)
    np.add.at(out, (np.asarray(a.rows), np.asarray(a.cols)), np.asarray(a.vals).astype(np.int64))
    return out


def reference_rref(rows, p):
    """Reduced row echelon form over F_p of a list of integer rows, by
    plain Gauss-Jordan on Python ints; returns (R, pivot columns)."""
    a = [[int(x) % p for x in row] for row in rows]
    m, n = len(a), len(a[0]) if len(rows) else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def reference_rank(rows, p):
    return len(reference_rref(rows, p)[1])


def test_is_prime():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(32003) and is_prime(65537) and not is_prime(32004)


def test_rank_random_matrices_match_reference():
    rng = np.random.default_rng(42)
    for p in (3, 101, 32003, 65537):
        for _ in range(12):
            m, n = rng.integers(1, 24, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            if r:
                mat = (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))) % p
            else:
                mat = np.zeros((m, n), dtype=int)
            assert rank_modp(entries(mat), p) == reference_rank(mat.tolist(), p)


def permuted_block_diagonal(rng, p):
    """Random low-rank blocks on the diagonal, zero rows and columns,
    every entry 1 replaced by p (nonzero but 0 mod p), rows and columns
    shuffled."""
    blocks = []
    for _ in range(int(rng.integers(0, 5))):
        m, n = (int(x) for x in rng.integers(1, 8, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        blocks.append((rng.integers(0, p, size=(m, r))
                       @ rng.integers(0, p, size=(r, n))) % p)
    rows = sum(b.shape[0] for b in blocks) + int(rng.integers(0, 3))
    cols = sum(b.shape[1] for b in blocks) + int(rng.integers(0, 3))
    mat = np.zeros((rows, cols), dtype=np.int64)
    r0 = c0 = 0
    for b in blocks:
        mat[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    mat[mat == 1] = p
    return mat[rng.permutation(rows)][:, rng.permutation(cols)]


def test_component_split_rank_and_nullspace():
    rng = np.random.default_rng(3)
    for p in (3, 101, 32003):
        for _ in range(40):
            mat = permuted_block_diagonal(rng, p)
            rank = reference_rank(mat.tolist(), p)
            assert rank_modp(entries(mat), p) == rank
            basis = dense(nullspace_modp(entries(mat), p))
            assert basis.shape == (mat.shape[1], mat.shape[1] - rank)
            if basis.size:
                assert not (mat @ basis % p).any()
                assert rank_modp(entries(basis), p) == basis.shape[1]


def test_repeated_coordinates_add_up():
    rng = np.random.default_rng(11)
    for p in (3, 101, 32003):
        for _ in range(20):
            mat = permuted_block_diagonal(rng, p)
            rows, cols = np.nonzero(mat)
            # every entry split into three parts, some of them 0 mod p,
            # and zero-sum pairs at fresh coordinates
            parts = rng.integers(0, 2 * p, size=(2, rows.size))
            vals = np.concatenate([parts[0], parts[1], mat[rows, cols] - parts.sum(0)])
            r, c = np.tile(rows, 3), np.tile(cols, 3)
            if mat.size:
                zr = rng.integers(0, mat.shape[0], size=4)
                zc = rng.integers(0, mat.shape[1], size=4)
                zv = rng.integers(1, p, size=4)
                r = np.concatenate([r, zr, zr])
                c = np.concatenate([c, zc, zc])
                vals = np.concatenate([vals, zv, p - zv])
            order = rng.permutation(r.size)
            a = Entries(mat.shape, r[order], c[order], vals[order])
            assert rank_modp(a, p) == rank_modp(entries(mat), p)
            assert np.array_equal(dense(nullspace_modp(a, p)),
                                  dense(nullspace_modp(entries(mat), p)))


def test_entry_equal_to_p_links_row_and_column():
    p = 101
    a = Entries((2, 3), np.array([0, 0, 1]), np.array([0, 1, 1]),
                np.array([1.0, p, 1.0]))
    (cs, shape, triples), = _blocks(a, p)
    assert cs.tolist() == [0, 1] and shape == (2, 2)
    # the entry p is kept, as residue 0, and links row 0 to column 1
    assert all(type(v) is int and 0 <= v < p for v in triples[2::3])
    assert triples == [0, 0, 1, 0, 1, 0, 1, 1, 1]
    assert rank_modp(a, p) == 2
    assert dense(nullspace_modp(a, p)).tolist() == [[0], [0], [1]]


def reference_blocks(a, p):
    """_blocks by a plain union-find and np.unique per component: the
    entries of each component in their given order, values mod p,
    components by their smallest row."""
    m = a.shape[0]
    parent = list(range(m + a.shape[1]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for r, c in zip(a.rows.tolist(), a.cols.tolist()):
        x, y = find(r), find(m + c)
        parent[max(x, y)] = min(x, y)
    members = {}
    for i, r in enumerate(a.rows.tolist()):
        members.setdefault(find(r), []).append(i)
    for _, e in sorted(members.items()):
        rs, ri = np.unique(a.rows[e], return_inverse=True)
        cs, ci = np.unique(a.cols[e], return_inverse=True)
        yield cs, (rs.size, cs.size), np.column_stack((ri, ci, a.vals[e] % p)).astype(np.int64)


def test_blocks_match_per_component_unique():
    rng = np.random.default_rng(29)
    for _ in range(30):
        mat = permuted_block_diagonal(rng, 101)
        a = entries(mat)
        order = rng.permutation(a.rows.size)
        for a in (a, Entries(a.shape, a.rows[order], a.cols[order], a.vals[order])):
            got = list(_blocks(a, 101))
            want = list(reference_blocks(a, 101))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[1] == w[1]
                # columns as array('q') and flat triples of Python ints, byte for byte
                assert g[0].typecode == "q" and all(type(v) is int for v in g[2])
                for x, y in ((g[0], w[0]), (g[2], w[2])):
                    assert len(x) == y.size
                    assert array("q", x).tobytes() == y.astype(np.int64).tobytes()


def reference_nullspace(mat, p):
    """The kernel basis from one rref of the whole dense matrix: for each
    free column c, 1 at c and minus column c of R at the pivots."""
    R, pivots = reference_rref(np.asarray(mat).tolist(), p)
    n = mat.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        basis[c, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = -R[i][c] % p
    return basis


def assert_matches_dense_reference(a, p):
    mat = dense(a)
    assert rank_modp(a, p) == reference_rank(mat.tolist(), p)
    assert np.array_equal(dense(nullspace_modp(a, p)), reference_nullspace(mat, p))


def test_kernel_of_repeated_blocks_keeps_their_sparsity():
    p = 101
    rng = np.random.default_rng(17)
    block = (rng.integers(0, p, size=(3, 2)) @ rng.integers(0, p, size=(2, 7))) % p
    rows, cols = np.nonzero(block)
    one = nullspace_modp(entries(block), p)
    assert one.shape == (7, 5)
    for k in (1, 4, 50):
        a = diagonal([(rows, cols, block[rows, cols], block.shape)] * k)
        basis = nullspace_modp(a, p)
        n, nullity = basis.shape
        assert (n, nullity) == (7 * k, 5 * k)
        # linear in k, while n * nullity grows as k**2
        assert len(basis.vals) == k * len(one.vals) < n * nullity / k
        assert np.array_equal(dense(basis), reference_nullspace(dense(a), p))
        # exact integers in [1, p), each coordinate once, in row-major order
        vals = np.asarray(basis.vals)
        assert np.all((vals >= 1) & (vals < p) & (vals % 1 == 0))
        assert np.all(np.diff(np.asarray(basis.rows) * nullity + np.asarray(basis.cols)) > 0)


def diagonal(components, extra=(0, 0), order=None):
    """Entries with the components, each (rows, cols, vals, shape), placed
    corner to corner, then `extra` empty rows and columns; `order`
    permutes the entry list."""
    rows, cols, vals = [], [], []
    r0 = c0 = 0
    for ri, ci, v, (m, n) in components:
        rows.append(np.asarray(ri) + r0)
        cols.append(np.asarray(ci) + c0)
        vals.append(np.asarray(v, dtype=np.float64))
        r0, c0 = r0 + m, c0 + n
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    if order is not None:
        perm = order(rows.size)
        rows, cols, vals = rows[perm], cols[perm], vals[perm]
    return Entries((r0 + extra[0], c0 + extra[1]), rows, cols, vals)


def count_rref_calls(monkeypatch):
    calls = []
    real = linalg._eliminate

    def counting(shape, *args):
        calls.append(shape)
        return real(shape, *args)
    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls


def test_repeated_components_match_dense_reference(monkeypatch):
    rng = np.random.default_rng(13)
    calls = count_rref_calls(monkeypatch)
    for p in (3, 101, 32003):
        for _ in range(15):
            kinds = {}
            for _ in range(int(rng.integers(1, 4))):
                m, n = (int(x) for x in rng.integers(1, 6, size=2))
                r = int(rng.integers(1, min(m, n) + 1))
                mat = (rng.integers(0, p, size=(m, r))
                       @ rng.integers(0, p, size=(r, n))) % p
                mat[0, :] = mat[:, 0] = 1  # one component
                rows, cols = np.nonzero(mat)
                kinds[(mat.shape, mat.tobytes())] = (rows, cols, mat[rows, cols],
                                                     mat.shape)
            kinds = list(kinds.values())
            picks = rng.integers(0, len(kinds), size=int(rng.integers(2, 9)))
            comps = [kinds[i] for i in picks]
            extra = tuple(int(x) for x in rng.integers(0, 3, size=2))
            calls.clear()
            assert_matches_dense_reference(diagonal(comps, extra), p)
            # copies with their entries in the same order are reduced once
            # in rank_modp and once in nullspace_modp
            assert len(calls) == 2 * len(set(picks.tolist()))
            # a shuffled entry list may miss the memo but stays exact
            assert_matches_dense_reference(
                diagonal(comps, extra, rng.permutation), p)


def test_components_equal_mod_p_share_one_elimination(monkeypatch):
    p = 101
    calls = count_rref_calls(monkeypatch)
    block = ([0, 0, 1], [0, 1, 1], [1, 2, 3], (2, 2))
    lifted = ([0, 0, 1], [0, 1, 1], [1 + p, 2 - p, 3 + 5 * p], (2, 2))
    one, one_lifted = ([0], [0], [1], (1, 1)), ([0], [0], [1 + p], (1, 1))
    for comps in ([block, lifted], [lifted, block, lifted], [one, one_lifted]):
        calls.clear()
        assert_matches_dense_reference(diagonal(comps), p)
        # one elimination in rank_modp and one in nullspace_modp
        assert calls == [comps[0][3]] * 2


def test_near_duplicate_components_are_kept_apart():
    p = 101
    base = ([0, 0, 1, 1], [0, 1, 0, 1], [1, 2, 2, 4], (2, 2))  # rank 1
    near = [
        ([0, 0, 1, 1], [0, 1, 0, 1], [1, 2, 2, 5], (2, 2)),  # one value
        ([0, 0, 1, 1], [0, 1, 1, 1], [1, 2, 2, 4], (2, 2)),  # one column
        ([0, 0, 1, 1], [0, 1, 0, 1], [1, 2, 2, 4 + p], (2, 2)),  # +p
        # repeated coordinates that add up to the base block
        ([0, 0, 0, 1, 1, 1], [0, 1, 1, 0, 1, 1], [1, 1, 1, 2, 3, 1], (2, 2)),
    ]
    for other in near:
        for comps in ([base, other, base], [other, base, other]):
            assert_matches_dense_reference(diagonal(comps), p)
    # the base with a third column, linked by an entry of p, 0 or -0.0
    wide = [([0, 0, 1, 1, 1], [0, 1, 0, 1, 2], [1, 2, 2, 4, v], (2, 3))
            for v in (p, 0.0, -0.0)]
    for comps in (wide, wide[::-1], [wide[1], wide[2], wide[1], wide[0]]):
        assert_matches_dense_reference(diagonal(comps), p)
    assert rank_modp(diagonal([base, near[0]]), p) == 3
    assert rank_modp(diagonal([base, near[1]]), p) == 3
    assert rank_modp(diagonal([base, near[2]]), p) == 2


def test_row_that_cancels_and_regains_a_column():
    # row 2 loses column 2 to row 0, the pivot of column 0, and regains it
    # from row 1, the pivot of column 1, so it is listed under column 2
    # twice; row 3, the shortest, is column 2's pivot and clears row 2 once
    mat = np.array([[1, 0, 1, 0, 1],
                    [0, 1, 1, 0, 0],
                    [1, 1, 1, 1, 0],
                    [0, 0, 1, 0, 0]])
    for p in (3, 101):
        assert_matches_dense_reference(entries(mat), p)


def test_random_sparse_entries_match_reference():
    """Sparse entries in random order, with repeated coordinates and
    values that are 0 mod p, for the rank and the kernel."""
    rng = np.random.default_rng(23)
    for p in (3, 101, 32003, 67108859):
        for _ in range(40):
            m, n = (int(x) for x in rng.integers(1, 16, size=2))
            k = int(rng.integers(0, m * n + 1))
            vals = rng.integers(-2 * p, 2 * p, size=k)
            zero = rng.random(k) < 0.2
            vals[zero] = p * rng.integers(-2, 3, size=int(zero.sum()))
            a = Entries((m, n), rng.integers(0, m, size=k), rng.integers(0, n, size=k),
                        vals.astype(np.float64))
            assert_matches_dense_reference(a, p)


def test_every_input_form_gives_equal_results():
    """One matrix as lists, as array('q'), and as int64 and integral float64
    numpy arrays: equal ranks and byte-equal kernels, as the dense reference."""
    rng = np.random.default_rng(31)
    for p in (3, 101, 32003):
        for _ in range(10):
            m, n = (int(x) for x in rng.integers(1, 12, size=2))
            k = int(rng.integers(0, m * n + 1))
            rows, cols = rng.integers(0, m, size=k), rng.integers(0, n, size=k)
            vals = rng.integers(-2 * p, 2 * p, size=k)  # repeats and multiples of p
            forms = [Entries((m, n), rows.tolist(), cols.tolist(), vals.tolist()),
                     Entries((m, n), *(array("q", x.tolist()) for x in (rows, cols, vals))),
                     Entries((m, n), rows, cols, vals.astype(np.int64)),
                     Entries((m, n), rows, cols, vals.astype(np.float64))]
            ranks = [rank_modp(a, p) for a in forms]
            kernels = [nullspace_modp(a, p) for a in forms]
            assert ranks == [reference_rank(dense(forms[2]).tolist(), p)] * 4
            assert len({(b.shape, b.rows.tobytes(), b.cols.tobytes(), b.vals.tobytes())
                        for b in kernels}) == 1
            assert np.array_equal(dense(kernels[0]), reference_nullspace(dense(forms[2]), p))


def fill_component(k, w):
    """k rows of ones, each at column 0 and at w columns of its own.  Row 0
    is column 0's pivot and gives the other rows its w columns: the
    elimination holds k*(w+1) + (k-1)*(w-1) entries once it has cleared
    the last of them, the most it holds at any time."""
    rows = np.repeat(np.arange(k), w + 1)
    cols = np.concatenate([np.concatenate(([0], 1 + i * w + np.arange(w)))
                           for i in range(k)])
    return Entries((k, 1 + k * w), rows, cols, np.ones(rows.size)), k * (w + 1) + (k - 1) * (w - 1)


def test_fill_guard_bounds_the_entries_held(monkeypatch):
    a, peak = fill_component(7, 5)
    monkeypatch.setattr(linalg, "MAX_HELD_ENTRIES", peak)
    assert_matches_dense_reference(a, 101)
    # one entry less, or fewer entries than the input holds, is refused
    for bound in (peak - 1, a.rows.size - 1):
        monkeypatch.setattr(linalg, "MAX_HELD_ENTRIES", bound)
        for f in (rank_modp, nullspace_modp):
            with pytest.raises(ValueError) as err:
                f(a, 101)
            assert str(err.value) == ("resource guard: eliminating a 7x36 F_p block "
                                      f"holds more than the supported {bound} entries")


def test_bounds_hold_per_component_not_in_sum(monkeypatch):
    # a 10x10 staircase: 19 entries, no fill-in
    stair = ([r for r in range(10) for _ in (0, 1)][:19],
             [c for r in range(10) for c in (r, r + 1)][:19], [1] * 19, (10, 10))
    monkeypatch.setattr(linalg, "MAX_HELD_ENTRIES", 19)
    assert_matches_dense_reference(diagonal([stair] * 5), 101)
    longer = (stair[0] + [9], stair[1] + [0], [1] * 20, (10, 10))
    for f in (rank_modp, nullspace_modp):
        with pytest.raises(ValueError) as err:
            f(diagonal([stair, longer]), 101)
        assert str(err.value) == ("resource guard: eliminating a 10x10 F_p block holds more "
                                  "than the supported 19 entries")


def test_field_resolution_probe_reduces_each_distinct_component_once(monkeypatch):
    p = 32003
    spec = build_scroll([4, 5])
    res = field_resolution(spec, 5)
    point = scroll_point(spec, random.Random(0), p)
    calls = count_rref_calls(monkeypatch)
    for step in res.steps[3:5]:
        a = step.eval_modp(point, p)
        # components by a plain union-find over the entries; a component
        # is its dense block over its rows and columns in ascending order
        parent = list(range(a.shape[0] + a.shape[1]))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x
        for r, c in zip(a.rows.tolist(), a.cols.tolist()):
            parent[find(r)] = find(a.shape[0] + c)
        members = {}
        for r, c, v in zip(a.rows.tolist(), a.cols.tolist(), a.vals.tolist()):
            members.setdefault(find(r), []).append((r, c, v))
        blocks = set()
        for ents in members.values():
            rs = sorted({r for r, _, _ in ents})
            cs = sorted({c for _, c, _ in ents})
            block = np.zeros((len(rs), len(cs)))
            for r, c, v in ents:
                block[rs.index(r), cs.index(c)] += v
            blocks.add((block.shape, block.tobytes()))
        calls.clear()
        rank_modp(a, p)
        assert len(calls) == len(blocks) < len(members)


def test_no_entries_rank_zero_kernel_identity():
    none = np.zeros(0, dtype=np.intp)
    for shape in ((0, 4), (3, 4), (3, 0)):
        a = Entries(shape, none, none, np.zeros(0))
        assert rank_modp(a, 101) == 0
        assert np.array_equal(dense(nullspace_modp(a, 101)),
                              np.eye(shape[1], dtype=np.int64))


def test_rank_at_the_largest_prime_below_the_bound():
    rng = np.random.default_rng(5)
    p = 67108859
    assert is_prime(p) and p < MAX_MODULUS and not any(map(is_prime, range(p + 1, MAX_MODULUS)))
    mat = (rng.integers(0, p, size=(60, 30)) @ rng.integers(0, p, size=(30, 90))) % p
    assert rank_modp(entries(mat), p) == reference_rank(mat.tolist(), p) == 30


def test_primality_is_tested_once_per_modulus():
    p = 67108859
    is_prime.cache_clear()
    for _ in range(1000):
        assert rank_modp(entries([[2]]), p) == 1
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 999)


def test_rank_edge_shapes():
    p = 101
    assert rank_modp(entries(np.zeros((0, 5))), p) == 0
    assert rank_modp(entries(np.zeros((5, 0))), p) == 0
    assert rank_modp(entries(np.zeros((4, 4))), p) == 0
    assert rank_modp(entries(np.eye(7)), p) == 7
    assert rank_modp(entries(np.full((3, 3), p, dtype=float)), p) == 0


def test_nullspace_properties():
    rng = np.random.default_rng(7)
    p = 32003
    for _ in range(15):
        m, n = rng.integers(1, 20, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        if r:
            mat = (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))) % p
        else:
            mat = np.zeros((m, n), dtype=int)
        basis = dense(nullspace_modp(entries(mat), p))
        assert basis.shape == (n, n - reference_rank(mat.tolist(), p))
        if basis.size:
            assert int((mat @ basis % p).max()) == 0
            # basis columns are independent
            assert rank_modp(entries(basis), p) == basis.shape[1]


def test_nullspace_zero_rows():
    basis = dense(nullspace_modp(entries(np.zeros((0, 4))), 101))
    assert basis.shape == (4, 4)
    assert np.array_equal(basis, np.eye(4, dtype=np.int64))


def test_reference_rref_pivots():
    p = 101
    mat = [[2, 4, 1], [1, 2, 0], [0, 0, 3]]
    red, pivots = reference_rref(mat, p)
    assert pivots == [0, 2]
    assert red == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]
    assert reference_rank(mat, p) == 2


ENTRY_POINTS = {
    # name: (the least modulus it accepts, a call with the modulus)
    "rank_modp": (2, lambda p: rank_modp(entries([[2]]), p)),
    "nullspace_modp": (2, lambda p: nullspace_modp(entries([[2]]), p)),
    "probe_rank": (3, lambda p: probe_rank(phi(build_scroll([3, 3]), 1), modulus=p)),
    "betti_oracle": (2, lambda p: betti_oracle(build_scroll([3, 3]), 2, p)),
    "verify": (3, lambda p: main(["verify", "--scroll", "3,3", "--steps", "2",
                                  "--checks", "exact", "--modulus", str(p)])),
    "oracle": (2, lambda p: main(["oracle", "--scroll", "3,3", "--imax", "2",
                                  "--modulus", str(p)])),
    "oracle --compare": (2, lambda p: main(["oracle", "--compare", "--scroll", "3,3",
                                            "--imax", "2", "--modulus", str(p)])),
    # a 2x2 matrix without entries: the rule holds with nothing to reduce
    "rank_modp of no entries": (2, lambda p: rank_modp(entries(np.zeros((2, 2))), p)),
    "nullspace_modp of no entries": (2, lambda p: nullspace_modp(entries(np.zeros((2, 2))), p)),
}


@pytest.mark.parametrize("modulus", [4, 1, 0, -7, 2**26 + 15, 10**18 + 3, 2, 2**31 - 1])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_keeps_the_one_modulus_rule(capsys, name, modulus):
    """One rule, one message: a prime p with least <= p < 2**26, where
    least is 3 for the probes and 2 elsewhere; the range is checked
    before the trial division."""
    least, call = ENTRY_POINTS[name]
    if modulus == least:  # 2, for linalg and the oracle
        result = call(modulus)
        if name.startswith("oracle"):
            assert result == 0 and capsys.readouterr().err == ""
        return
    start = time.perf_counter()
    try:
        rc = call(modulus)
    except ValueError as exc:
        message = str(exc)
    else:  # the CLI: a usage error, with the message on one stderr line
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        message = captured.err[len("error: "):-1]
    assert time.perf_counter() - start < 1
    assert message == f"modulus {modulus} is not a prime p with {least} <= p < 2**26"
