import numpy as np
import pytest

from scrollres import oracle
from scrollres.linalg import Entries
from scrollres.oracle import (BettiTable, _degree_matrix, betti_oracle,
                              compare_with_formula, graded_basis,
                              multiplication_map)
from scrollres.ring import adegree
from scrollres.scrolls import build_scroll, toric_matrix
from scrollres.series import betti, hilbert_coefficients

S22 = build_scroll([2, 2])
S33 = build_scroll([3, 3])
S23 = build_scroll([2, 3])


def dense_map(spec, var, d):
    """multiplication_map as a dense int64 array, values at a repeated coordinate added up."""
    m = multiplication_map(spec, var, d)
    assert isinstance(m, Entries)
    out = np.zeros(m.shape, dtype=np.int64)
    np.add.at(out, (np.asarray(m.rows, dtype=np.intp), np.asarray(m.cols, dtype=np.intp)),
              np.asarray(m.vals, dtype=np.int64))
    return out


def test_graded_basis_sizes_and_order():
    for blocks in [(3, 3), (2, 2), (2, 2, 2)]:
        s = build_scroll(blocks)
        coeffs = hilbert_coefficients(s, 4)
        for d in range(5):
            basis = graded_basis(s, d)
            assert len(basis) == coeffs[d]
            assert list(basis) == sorted(basis, reverse=True)


def test_multiplication_map_columns_are_unit_vectors():
    m = dense_map(S33, 1, 1)
    assert m.shape == (15, 6)
    assert np.all(m.sum(axis=0) == 1)
    # x1 * x3 lands on x2^2
    b1 = list(graded_basis(S33, 1))
    b2 = list(graded_basis(S33, 2))
    col = b1.index((0, 0, 1, 0, 0, 0))
    row = b2.index((0, 2, 0, 0, 0, 0))
    assert m[row, col] == 1


def test_multiplication_map_degree_zero():
    m = dense_map(S33, 4, 0)
    b1 = list(graded_basis(S33, 1))
    assert m.shape == (6, 1)
    assert m[b1.index((0, 0, 0, 1, 0, 0)), 0] == 1


def test_multiplication_map_respects_grading():
    a = toric_matrix(S33)
    b1 = graded_basis(S33, 1)
    b2 = graded_basis(S33, 2)
    for var in range(1, 7):
        m = dense_map(S33, var, 1)
        col_of_a = tuple(row[var - 1] for row in a)
        for c, src in enumerate(b1):
            r = int(np.flatnonzero(m[:, c])[0])
            got = adegree(b2[r], S33)
            want = tuple(x + y for x, y in zip(adegree(src, S33), col_of_a))
            assert got == want


def test_multiplication_map_validation():
    with pytest.raises(ValueError):
        multiplication_map(S33, 0, 1)
    with pytest.raises(ValueError):
        multiplication_map(S33, 1, -1)


def test_degree_matrix_is_sum_of_kronecker_products():
    rng = np.random.default_rng(2)
    p = 101
    for spec in (S33, build_scroll([2, 2, 2])):
        n = spec.n
        cstack = rng.integers(0, p, size=(3, n, 4)) * (rng.random((3, n, 4)) < 0.5)
        # coefficient of x_{v+1} in entry (g, h) at row g*n + v, column h
        rows, cols = np.nonzero(cstack.reshape(3 * n, 4))
        d = Entries((3 * n, 4), rows, cols, cstack.reshape(3 * n, 4)[rows, cols])
        for a in range(4):
            m = _degree_matrix(spec, d, a)
            assert len(m.vals) == np.count_nonzero(cstack) * len(graded_basis(spec, a))
            dense = np.zeros(m.shape, dtype=np.int64)
            np.add.at(dense, (m.rows, m.cols), m.vals)
            want = sum(np.kron(cstack[:, v, :], dense_map(spec, v + 1, a))
                       for v in range(n))
            assert np.array_equal(dense, want)


def test_oracle_reduces_each_matrix_once(monkeypatch):
    """The kernel of d_i's degree-(i+1) matrix is d_{i+1}; its rank is not taken again."""
    seen = []

    def keyed(f):
        def wrapper(a, p):
            seen.append((a.shape, tuple(a.rows), tuple(a.cols), tuple(a.vals)))
            return f(a, p)
        return wrapper
    monkeypatch.setattr(oracle, "rank_modp", keyed(oracle.rank_modp))
    monkeypatch.setattr(oracle, "nullspace_modp", keyed(oracle.nullspace_modp))
    for spec in (S33, build_scroll([2, 2, 2])):
        seen.clear()
        assert compare_with_formula(spec, 4, 32003)["ok"]
        assert len(set(seen)) == len(seen)
        assert len(seen) == 14  # four per step, two at step 1


def test_oracle_3_3():
    table = betti_oracle(S33, 3, 32003)
    assert table.diagonal() == [1, 6, 21, 64]
    for (i, j), v in table.entries.items():
        if i != j:
            assert v == 0, (i, j, v)


def test_oracle_2_2():
    assert betti_oracle(S22, 3, 32003).diagonal() == [1, 4, 7, 8]


def test_oracle_2_3_frozen():
    # produced by this oracle, cross-checked against the closed sum
    table = betti_oracle(S23, 3, 32003)
    assert table.diagonal() == [1, 5, 13, 27]
    assert [betti(S23, i) for i in range(4)] == [1, 5, 13, 27]


def test_oracle_first_betti_is_variable_count():
    for blocks in [(2, 2), (3, 2), (2, 2, 2), (5,)]:
        s = build_scroll(blocks)
        assert betti_oracle(s, 1, 101).get(1, 1) == s.n


def test_oracle_single_block_curve():
    rep = compare_with_formula(build_scroll([4]), 4, 32003)
    assert rep["ok"]
    assert rep["diagonal"] == [1, 4, 9, 18, 36]


def test_oracle_polynomial_ring_kernel_vanishes():
    # the scroll (2) is k[x1, x2]: the Koszul complex ends at step 2, so
    # d_3 is an empty differential and every later entry comes out 0
    rep = compare_with_formula(build_scroll([2]), 5, 101)
    assert rep["ok"]
    assert rep["diagonal"] == [1, 2, 1, 0, 0, 0]
    assert all(v == 0 for (i, _), v in rep["table"].entries.items() if i >= 3)


def test_oracle_modulus_independent_small():
    tables = [betti_oracle(S23, 3, q).entries for q in (101, 32003, 65537)]
    assert tables[0] == tables[1] == tables[2]


def test_oracle_guards():
    with pytest.raises(ValueError):
        betti_oracle(S33, 3, 32004)
    with pytest.raises(ValueError):
        betti_oracle(build_scroll([4, 4]), 3, 101)  # n > 7
    with pytest.raises(ValueError):
        betti_oracle(S33, 6, 101)  # imax > 5
    with pytest.raises(ValueError):
        betti_oracle(S33, 0, 101)


def test_compare_with_formula_report():
    rep = compare_with_formula(S33, 3, 32003)
    assert rep["ok"] and rep["mismatches"] == []
    assert rep["diagonal"] == rep["expected"]
    assert isinstance(rep["table"], BettiTable)


def test_betti_table_json():
    import json
    obj = betti_oracle(S22, 2, 101).to_json_obj()
    json.dumps(obj)
    assert obj["modulus"] == 101
    assert {"i": 0, "j": 0, "value": "1"} in obj["entries"]
