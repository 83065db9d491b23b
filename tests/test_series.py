import json
import time
from itertools import combinations
from math import comb

import pytest

from scrollres.scrolls import build_scroll, minor_generators
from scrollres.series import (FaceVector, IntSeries, RationalForm,
                              _face_numbers_enumerated, betti,
                              betti_tail, delta_facets, face_numbers,
                              hilbert_coefficients, hilbert_series,
                              initial_ideal_generators, koszul_defect,
                              poincare_coeffs, series_json)

S33 = build_scroll([3, 3])
S22 = build_scroll([2, 2])
S43 = build_scroll([4, 3])


def all_specs(max_k, max_n):
    """Every block tuple with k <= max_k, all entries >= 2, total <= max_n."""
    out = []

    def rec(prefix, total):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_k:
            return
        for b in range(2, max_n - total + 1):
            rec(prefix + [b], total + b)

    rec([], 0)
    return [build_scroll(b) for b in out]


def mono_pairs(gens):
    return {tuple(i + 1 for i, e in enumerate(g) if e) for g in gens}


def test_initial_ideal_generators_3_3():
    got = mono_pairs(initial_ideal_generators(S33))
    assert got == {(1, 3), (4, 6), (1, 5), (1, 6), (2, 5), (2, 6)}


def test_initial_ideal_generators_2_2():
    assert mono_pairs(initial_ideal_generators(S22)) == {(1, 4)}


def test_initial_ideal_matches_minor_count():
    for blocks in [(3, 3), (4, 3), (2, 2), (3, 2, 2), (5, 4)]:
        s = build_scroll(blocks)
        assert len(initial_ideal_generators(s)) == len(minor_generators(s))


def test_facets_4_3():
    facets = delta_facets(S43)
    assert len(facets) == 5
    assert all(len(f) == 3 for f in facets)
    assert set(map(frozenset, facets)) == {
        frozenset({(1, 1), (1, 2), (2, 1)}),
        frozenset({(1, 2), (1, 3), (2, 1)}),
        frozenset({(1, 3), (1, 4), (2, 1)}),
        frozenset({(1, 4), (2, 1), (2, 2)}),
        frozenset({(1, 4), (2, 2), (2, 3)}),
    }


def test_facets_2_2():
    assert [set(f) for f in delta_facets(S22)] == [
        {(1, 1), (1, 2), (2, 1)},
        {(1, 2), (2, 1), (2, 2)},
    ]


def test_facets_contain_no_nonface():
    for blocks in [(3, 3, 3), (4, 3), (2, 2, 2, 2)]:
        s = build_scroll(blocks)
        bad_pairs = mono_pairs(initial_ideal_generators(s))
        for facet in delta_facets(s):
            flats = {s.var(b, j).flat for (b, j) in facet}
            for pair in combinations(sorted(flats), 2):
                assert pair not in bad_pairs


def test_facet_count_and_purity():
    for blocks in [(2, 2), (4, 3), (3, 3, 3), (2, 4, 2)]:
        s = build_scroll(blocks)
        facets = delta_facets(s)
        assert len(facets) == sum(b - 1 for b in s.blocks)
        assert all(len(f) == s.k + 1 for f in facets)


def test_face_numbers_4_3_and_3_3():
    assert face_numbers(S43).counts == (1, 7, 11, 5)
    assert face_numbers(S33).counts == (1, 6, 9, 4)


def test_face_numbers_f0_is_n():
    for blocks in [(2, 2), (5, 4), (2, 2, 2), (7,)]:
        s = build_scroll(blocks)
        fv = face_numbers(s)
        assert fv.f(0) == s.n
        assert fv.f(-1) == 1
        assert fv.f(s.k + 1) == 0


def test_face_numbers_depend_only_on_k_and_n():
    assert face_numbers(build_scroll([5, 2])).counts == face_numbers(build_scroll([3, 4])).counts
    assert face_numbers(build_scroll([2, 2, 4])).counts == face_numbers(build_scroll([3, 2, 3])).counts


def test_face_numbers_k1_curve():
    for n in range(2, 9):
        fv = face_numbers(build_scroll([n]))
        assert fv.f(1) == n - 1


def test_hilbert_series_3_3():
    hs = hilbert_series(S33)
    assert hs.num == (1, 3)
    assert hs.den == (1, -3, 3, -1)
    assert hilbert_coefficients(S33, 3).coefficients == (1, 6, 15, 28)


def test_face_ring_numerator_matches_closed_form():
    # sum_d f_{d-1} t**d (1-t)**(k+1-d) over the enumerated f-vector
    for spec in all_specs(3, 9):
        fv = _face_numbers_enumerated(spec)
        k = spec.k
        acc = [0] * (k + 2)
        for d in range(k + 2):
            for i in range(k + 2 - d):
                acc[d + i] += fv.f(d - 1) * (-1) ** i * comb(k + 1 - d, i)
        num = list(hilbert_series(spec).num)
        assert acc == num + [0] * (k + 2 - len(num)), spec


def test_hilbert_series_2_2():
    hs = hilbert_series(S22)
    assert hs.num == (1, 1)
    assert hilbert_coefficients(S22, 1)[1] == 4


def test_rational_form_validation():
    with pytest.raises(ValueError):
        RationalForm((1,), (0, 1))
    with pytest.raises(ValueError):
        RationalForm((1,), (2, 1))
    with pytest.raises(ValueError):
        IntSeries((1, 2), 3)


def test_negative_order_is_refused_on_every_path():
    for expand in (lambda: hilbert_coefficients(S33, -1),
                   lambda: poincare_coeffs(S33, -1),
                   lambda: RationalForm((1,), (1, -1)).series(-1)):
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            expand()


def test_poincare_3_3_and_2_2():
    assert poincare_coeffs(S33, 6).coefficients == (1, 6, 21, 64, 192, 576, 1728)
    assert poincare_coeffs(S22, 4).coefficients == (1, 4, 7, 8, 8)
    for blocks in [(2, 3), (4, 4), (2, 2, 2)]:
        assert poincare_coeffs(build_scroll(blocks), 0)[0] == 1


def test_series_expansion_is_linear_in_the_order():
    # quadratic-time division needs about a minute for these two
    order = 20000
    k, q = S33.k, S33.n - S33.k - 1
    t0 = time.monotonic()
    p = poincare_coeffs(S33, order)
    h = hilbert_coefficients(S33, order)
    assert time.monotonic() - t0 < 5
    for i in (0, 1, 2, 3, order - 1, order):
        assert p[i] == betti(S33, i)
        assert h[i] == comb(i + k, k) + q * comb(i + k - 1, k)


def test_betti_closed_sum():
    assert betti(S33, 0) == 1
    assert betti(S33, 3) == 64
    assert betti(S33, 4) == 192
    assert [betti(S22, i) for i in range(4)] == [1, 4, 7, 8]


def test_betti_tail_product_form():
    # valid from r = 1 on; the sum formula is the single source of truth
    for blocks in [(3, 3), (4, 3), (2, 2, 2), (6,)]:
        s = build_scroll(blocks)
        for r in range(1, 5):
            assert betti_tail(s, r) == betti(s, s.k + r)
    with pytest.raises(ValueError):
        betti_tail(S33, 0)


def test_betti_geometric_tail():
    for blocks in [(3, 3), (2, 5), (3, 2, 2), (4, 4, 4)]:
        s = build_scroll(blocks)
        q = s.n - s.k - 1
        for r in range(2, 6):
            assert betti(s, s.k + r) == q * betti(s, s.k + r - 1)


def test_poincare_equals_betti_everywhere():
    for s in all_specs(4, 12):
        coeffs = poincare_coeffs(s, 12)
        for i in range(13):
            assert coeffs[i] == betti(s, i)


def test_koszul_identity_small():
    for blocks in [(3, 3), (2, 2), (4, 5), (2, 2, 2, 2)]:
        assert all(c == 0 for c in koszul_defect(build_scroll(blocks), 12))


def test_series_json_uses_decimal_strings():
    obj = series_json(S33, 4)
    json.dumps(obj)  # must be serialisable as-is
    assert obj["f_vector"] == ["1", "6", "9", "4"]
    assert obj["betti"] == ["1", "6", "21", "64", "192"]
    assert obj["hilbert"]["num"] == ["1", "3"]
    assert obj["poincare"][2] == "21"


def test_face_vector_type():
    fv = FaceVector((1, 5, 4))
    assert fv.f(-1) == 1 and fv.f(0) == 5 and fv.f(1) == 4 and fv.f(7) == 0
    with pytest.raises(ValueError):
        fv.f(-2)
