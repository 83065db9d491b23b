import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from scrollres import linalg, resolution
from scrollres.checks import (FAULT_KINDS, check_complex, check_exactness,
                              check_minimality, check_phi_ranks, inject_fault,
                              scroll_point)
from scrollres.ring import ScrollRing, ring_for
from scrollres.resolution import (MAX_FREE_RANK, MAX_STEPS, Resolution, SparseMatrixR,
                                  _grid, _parts, _per_node, _phi, _read, _sizes,
                                  alpha, direct_sum, field_resolution,
                                  phi, phi0, phi1, phi2, resolution_of, staircase,
                                  u_block, v_block)
from scrollres.scrolls import build_scroll
from scrollres.series import betti

S22 = build_scroll([2, 2])
S33 = build_scroll([3, 3])
S43 = build_scroll([4, 3])
S44 = build_scroll([4, 4])
S34 = build_scroll([3, 4])
S45 = build_scroll([4, 5])


def mat_from(spec, rows, cols, entries):
    """Build a matrix from {(row, col): signed flat index}, all 1-based."""
    ring = ring_for(spec)
    out = SparseMatrixR(ring, rows, cols)
    for (r, c), signed in entries.items():
        sign = -1 if signed < 0 else 1
        out.set(r - 1, c - 1, ring.var_elem(abs(signed), sign))
    return out


# the worked 2x4 matrix for blocks (3,3): second row over minus the first
PHI0_33 = {(1, 1): 2, (1, 2): 3, (1, 3): 5, (1, 4): 6,
           (2, 1): -1, (2, 2): -2, (2, 3): -4, (2, 4): -5}

# the worked 4x12 matrix for blocks (3,3)
PHI1_33 = {
    (1, 1): 2, (1, 2): 3, (1, 3): 5, (1, 4): 6, (1, 5): 4,
    (2, 1): -1, (2, 2): -2, (2, 3): -4, (2, 4): -5,
    (2, 6): 4, (2, 7): 5, (2, 8): 6,
    (3, 5): -1, (3, 6): -2, (3, 7): -3,
    (3, 9): 2, (3, 10): 3, (3, 11): 5, (3, 12): 6,
    (4, 8): -3, (4, 9): -1, (4, 10): -2, (4, 11): -4, (4, 12): -5,
}


def test_phi0_3_3_matches_worked_matrix():
    assert phi0(S33) == mat_from(S33, 2, 4, PHI0_33)


def test_phi0_2_2():
    assert phi0(S22) == mat_from(S22, 2, 2, {(1, 1): 2, (1, 2): 4,
                                             (2, 1): -1, (2, 2): -3})


def test_phi0_shape():
    s = build_scroll([5, 4])
    m = phi0(s)
    assert (m.rows, m.cols) == (2, 7)


def test_staircase_shapes_and_overlap():
    assert staircase(S33, 2) == phi0(S33)
    st = staircase(S33, 5)
    assert (st.rows, st.cols) == (5, 16)
    # first row only touches the first n-2 columns
    assert all(c < 4 for (r, c), _ in st.entries.items() if r == 0)
    # block b occupies rows b-1, b (0-based)
    for (r, c), _ in st.entries.items():
        assert c // 4 in (r - 1, r)
    with pytest.raises(ValueError):
        staircase(S33, 1)


def test_phi1_3_3_matches_worked_matrix():
    assert phi1(S33) == mat_from(S33, 4, 12, PHI1_33)


def test_phi1_shape_4_3():
    m = phi1(S43)
    assert (m.rows, m.cols) == (5, 20)


def test_phi0_phi1_composes_to_zero():
    for s in (S44, S43, S22, build_scroll([2, 5])):
        assert not (phi0(s) @ phi1(s)).entries


def test_u_block_4_4():
    u0 = u_block(S44, 0)
    assert (u0.rows, u0.cols) == (12, 6)
    row_entries = {(r, c): str(e) for (r, c), e in u0.entries.items()}
    assert row_entries == {(3, 0): "x1", (3, 1): "x2", (3, 2): "x3",
                           (3, 3): "x5", (3, 4): "x6", (3, 5): "x7"}


def test_u_block_3_3_single_member():
    u0 = u_block(S33, 0)
    rows_hit = {r for (r, c) in u0.entries}
    assert rows_hit == {2}  # 0-based row m-1 = 2
    assert [str(u0.get(2, c)) for c in range(4)] == ["x1", "x2", "x4", "x5"]
    with pytest.raises(ValueError):
        u_block(S33, 1)


def test_u_family_empty_when_first_block_is_2():
    with pytest.raises(ValueError):
        u_block(build_scroll([2, 5]), 0)


def test_v_block_3_3():
    v0 = v_block(S33, 0)
    assert (v0.rows, v0.cols) == (4, 4)
    assert [str(v0.get(1, c)) for c in range(4)] == ["-x2", "-x3", "-x5", "-x6"]


def expected_phi2_33():
    ring = ring_for(S33)
    out = SparseMatrixR(ring, 12, 36)
    f1 = mat_from(S33, 4, 12, PHI1_33)
    f0 = mat_from(S33, 2, 4, PHI0_33)
    for (r, c), e in f1.entries.items():        # top band: one phi1 copy
        out.entries[(r, c)] = e
    for c, flat in enumerate([1, 2, 4, 5]):     # u0 row inside central band
        out.entries[(2, 12 + c)] = ring.var_elem(flat, 1)
    for b in range(3):                          # minus the height-4 staircase
        for (r, c), e in f0.entries.items():
            out.entries[(4 + b + r, 12 + 4 * b + c)] = -e
    for c, flat in enumerate([2, 3, 5, 6]):     # v0 row, right-aligned
        out.entries[(9, 20 + c)] = ring.var_elem(flat, -1)
    for (r, c), e in f1.entries.items():        # bottom band: one phi1 copy
        out.entries[(8 + r, 24 + c)] = e
    return out


def test_phi2_3_3_matches_worked_matrix():
    m = phi2(S33)
    assert (m.rows, m.cols) == (12, 36)
    assert m == expected_phi2_33()


def test_phi1_phi2_composes_to_zero():
    for blocks in [(3, 3), (2, 2), (4, 3), (3, 4), (2, 6), (5, 2)]:
        s = build_scroll(blocks)
        assert not (phi1(s) @ phi2(s)).entries


def test_phi2_2_2_degenerate():
    # with both blocks of size 2 every side band is empty and phi2 is
    # minus the 2x2 staircase; the shape formula gives (n-2)(n-3)^2 = 2
    m = phi2(S22)
    assert (m.rows, m.cols) == (2, 2)
    assert m == -staircase(S22, 2)
    assert not (phi1(S22) @ phi2(S22)).entries


def test_phi_recursion_structure():
    m = phi(S33, 3)
    assert (m.rows, m.cols) == (36, 108)
    expected = direct_sum([phi(S33, 2), phi(S33, 1), phi(S33, 1),
                           phi(S33, 1), phi(S33, 2)])
    assert m == expected
    assert (phi(S33, 4).rows, phi(S33, 4).cols) == (108, 324)


def test_phi_chain_condition_4_3():
    for i in range(4):
        assert not (phi(S43, i) @ phi(S43, i + 1)).entries


def test_resolution_of_intersection_generators():
    res = resolution_of(S33, "J", 1)
    step0 = res.steps[0]
    assert (step0.rows, step0.cols) == (1, 5)
    assert [str(step0.get(0, c)) for c in range(5)] == [
        "x1*x4", "x2*x4", "x3*x4", "x3*x5", "x3*x6"]


def test_resolution_of_block_ideals():
    res = resolution_of(S33, "I1", 2)
    assert res.steps[1] == staircase(S33, 3)
    assert (res.steps[1].rows, res.steps[1].cols) == (3, 8)
    res2 = resolution_of(S33, "I2", 1)
    assert [str(res2.steps[0].get(0, c)) for c in range(3)] == ["x4", "x5", "x6"]


def test_resolution_shapes_chain():
    for target in ("J", "I1", "I2"):
        res = resolution_of(S43, target, 4)
        for a, b in zip(res.steps, res.steps[1:]):
            assert a.cols == b.rows


def test_ideal_resolutions_are_complexes():
    for target in ("J", "I1", "I2"):
        res = resolution_of(S43, target, 3)
        for a, b in zip(res.steps, res.steps[1:]):
            assert not (a @ b).entries


def test_ideal_resolution_ranks_match_display():
    n, m, p = S43.n, S43.m, S43.p
    rj = resolution_of(S43, "J", 3)
    assert rj.ranks == [1, n - 1, (n - 2) ** 2, (n - 2) ** 2 * (n - 3),
                        (n - 2) ** 2 * (n - 3) ** 2]
    r1 = resolution_of(S43, "I1", 3)
    assert r1.ranks == [1, m, (m - 1) * (n - 2), (m - 1) * (n - 2) * (n - 3),
                        (m - 1) * (n - 2) * (n - 3) ** 2]
    r2 = resolution_of(S43, "I2", 3)
    assert r2.ranks == [1, p, (p - 1) * (n - 2), (p - 1) * (n - 2) * (n - 3),
                        (p - 1) * (n - 2) * (n - 3) ** 2]


ALPHA0_33 = {(1, 1): 4, (2, 2): 4, (3, 3): 4, (3, 4): 5, (3, 5): 6,
             (4, 1): -1, (4, 2): -2, (4, 3): -3, (5, 4): -3, (6, 5): -3}


def test_alpha0_3_3():
    assert alpha(S33, 0) == mat_from(S33, 6, 5, ALPHA0_33)


def test_alpha_square_sizes():
    for i in (1, 2, 3):
        a = alpha(S33, i)
        size = 16 * 3 ** (i - 1)
        assert (a.rows, a.cols) == (size, size)


def test_alpha_is_chain_map():
    for s in (S44, S43):
        for i in (0, 1, 2):
            rj = resolution_of(s, "J", i + 1)
            r1 = resolution_of(s, "I1", i + 1)
            r2 = resolution_of(s, "I2", i + 1)
            lhs = alpha(s, i) @ rj.steps[i + 1]
            rhs = direct_sum([r1.steps[i + 1], r2.steps[i + 1]]) @ alpha(s, i + 1)
            assert lhs == rhs


D2_33 = {
    # two staircase copies side by side
    (1, 1): 2, (1, 2): 3, (1, 3): 5, (1, 4): 6,
    (2, 1): -1, (2, 2): -2, (2, 3): -4, (2, 4): -5,
    (2, 5): 2, (2, 6): 3, (2, 7): 5, (2, 8): 6,
    (3, 5): -1, (3, 6): -2, (3, 7): -4, (3, 8): -5,
    (4, 9): 2, (4, 10): 3, (4, 11): 5, (4, 12): 6,
    (5, 9): -1, (5, 10): -2, (5, 11): -4, (5, 12): -5,
    (5, 13): 2, (5, 14): 3, (5, 15): 5, (5, 16): 6,
    (6, 13): -1, (6, 14): -2, (6, 15): -4, (6, 16): -5,
    # the lifted-inclusion columns
    (1, 17): 4, (2, 18): 4, (3, 19): 4, (3, 20): 5, (3, 21): 6,
    (4, 17): -1, (4, 18): -2, (4, 19): -3, (5, 20): -3, (6, 21): -3,
}


def test_field_resolution_step2_matches_worked_matrix():
    res = field_resolution(S33, 2)
    assert res.steps[1] == mat_from(S33, 6, 21, D2_33)


def expected_d3_33():
    ring = ring_for(S33)
    out = SparseMatrixR(ring, 21, 64)
    f1 = mat_from(S33, 4, 12, PHI1_33)
    f0 = mat_from(S33, 2, 4, PHI0_33)
    for b in range(4):  # four diagonal phi1 blocks
        for (r, c), e in f1.entries.items():
            out.entries[(4 * b + r, 12 * b + c)] = e
    for r in range(8):
        out.entries[(r, 48 + r)] = ring.var_elem(4, 1)
    for r in range(8):
        out.entries[(8 + r, 56 + r)] = ring.var_elem(3, -1)
    for b in range(4):  # minus the height-5 staircase in the bottom rows
        for (r, c), e in f0.entries.items():
            out.entries[(16 + b + r, 48 + 4 * b + c)] = -e
    return out


def expected_high_step_33(i):
    """The worked (3,3) closed form for step i >= 4:
    [phi_{i-2}^(+4) | x4 and -x3 identities; 0 | -phi_{i-3}^(+4)]."""
    ring = ring_for(S33)
    g = direct_sum([phi(S33, i - 2)] * 4)
    size = 8 * 3 ** (i - 3)
    out = SparseMatrixR(ring, g.rows + 4 * phi(S33, i - 3).rows, g.cols + 2 * size)
    out.entries.update(g.entries)
    for r in range(size):
        out.entries[(r, g.cols + r)] = ring.var_elem(4, 1)
        out.entries[(size + r, g.cols + size + r)] = ring.var_elem(3, -1)
    for (r, c), e in direct_sum([phi(S33, i - 3)] * 4).entries.items():
        out.entries[(g.rows + r, g.cols + c)] = -e
    return out


def test_field_resolution_step3_matches_worked_matrix():
    res = field_resolution(S33, 3)
    assert res.steps[2] == expected_d3_33()


def test_field_resolution_3_3_shapes():
    res = field_resolution(S33, 3)
    assert [(s.rows, s.cols) for s in res.steps] == [(1, 6), (6, 21), (21, 64)]
    assert [str(res.steps[0].get(0, c)) for c in range(6)] == [
        "x1", "x2", "x3", "x4", "x5", "x6"]


def test_field_resolution_closed_form_high_steps():
    res = field_resolution(S33, 5)
    for i in (4, 5):
        assert res.steps[i - 1] == expected_high_step_33(i)


def cone_step_reference(spec, i):
    """Field differential i (i >= 2) built by nested direct sums, apart from _cone_step.

    [I1 step i-1 (+) I2 step i-1 | alpha_{i-2}; 0 | -(J step i-2)], with
    the J row band only from i = 3 on; every entry goes in through `set`.
    """
    r1 = resolution_of(spec, "I1", i - 1).steps[i - 1]
    r2 = resolution_of(spec, "I2", i - 1).steps[i - 1]
    g = direct_sum([r1, r2])
    a = alpha(spec, i - 2)
    j = resolution_of(spec, "J", i - 2).steps[i - 2] if i >= 3 else None
    out = SparseMatrixR(ring_for(spec), g.rows + (j.rows if j is not None else 0),
                        g.cols + a.cols)
    for (r, c), e in g.entries.items():
        out.set(r, c, e)
    for (r, c), e in a.entries.items():
        out.set(r, g.cols + c, e)
    if j is not None:
        for (r, c), e in j.entries.items():
            out.set(g.rows + r, g.cols + c, -e)
    return out


@pytest.mark.parametrize("blocks", [(2, 5), (4, 3), (5, 4)])
def test_field_resolution_matches_nested_direct_sums(blocks):
    spec = build_scroll(blocks)
    ring = ring_for(spec)
    res = field_resolution(spec, 5)
    assert res.steps[0] == SparseMatrixR(
        ring, 1, spec.n, {(0, c): ring.var_elem(c + 1, 1) for c in range(spec.n)})
    for i in range(2, 6):
        assert res.steps[i - 1] == cone_step_reference(spec, i), (blocks, i)


def test_field_resolution_cols_formula():
    res = field_resolution(build_scroll([5, 4]), 2)
    n = 9
    assert res.steps[1].cols == n * n - 3 * n + 3 == 57


def test_field_resolution_ranks_are_betti_numbers():
    for blocks in [(2, 2), (3, 3), (4, 3), (2, 5)]:
        s = build_scroll(blocks)
        res = field_resolution(s, 4)
        assert res.ranks == [betti(s, i) for i in range(5)]


def test_field_resolution_2_2_shapes():
    res = field_resolution(S22, 3)
    assert [(s.rows, s.cols) for s in res.steps] == [(1, 4), (4, 7), (7, 8)]


def test_differentials_compose_to_zero():
    res = field_resolution(S43, 5)
    for a, b in zip(res.steps, res.steps[1:]):
        assert not (a @ b).entries


def test_deeper_steps_chain_and_compose():
    for blocks in [(2, 2), (3, 3)]:
        res = field_resolution(build_scroll(blocks), 6)
        for a, b in zip(res.steps, res.steps[1:]):
            assert a.cols == b.rows
            assert not (a @ b).entries


def test_entries_linear_except_intersection_generators():
    res = field_resolution(S43, 4)
    for step in res.steps:
        for _, e in step.entries.items():
            assert e.degree() == 1
    rj = resolution_of(S43, "J", 2)
    assert all(e.degree() == 2 for _, e in rj.steps[0].entries.items())
    assert all(e.degree() == 1 for _, e in rj.steps[1].entries.items())


def test_skew_diagonal_products_agree():
    # x_i x_j and x_k x_l are equal in the ring whenever i + j = k + l,
    # with i, k in the first block and j, l in the second
    all_pairs = [(m, n - m) for n in range(4, 10) for m in range(2, n - 1)]
    for blocks in all_pairs:
        s = build_scroll(blocks)
        ring = ring_for(s)
        m, n = s.m, s.n
        for i in range(1, m + 1):
            for k in range(1, m + 1):
                for j in range(m + 1, n + 1):
                    l = i + j - k
                    if not m + 1 <= l <= n:
                        continue
                    a = ring.var_elem(i) * ring.var_elem(j)
                    b = ring.var_elem(k) * ring.var_elem(l)
                    assert a == b


def test_matrix_invariants_and_json():
    res = field_resolution(S33, 2)
    step = res.steps[1]
    with pytest.raises(ValueError):
        step.set(0, 0, ring_for(S33).one())  # duplicate position
    with pytest.raises(IndexError):
        step.set(99, 0, ring_for(S33).one())
    obj = res.to_json_obj()
    json.dumps(obj)
    assert obj["ranks"] == ["1", "6", "21"]
    assert obj["steps"][0]["entries"][0] == [0, 0, "x1"]
    lines = step.to_text_lines()
    assert lines[0].split() == ["0", "0", "x2"]


def reference_json(res):
    return json.dumps(res.to_json_obj(), sort_keys=True, indent=2) + "\n"


def reference_text(res):
    lines = []
    for idx, step in enumerate(res.steps, start=1):
        lines.append(f"# step {idx}: {step.rows} x {step.cols}")
        lines.extend(step.to_text_lines())
    return "\n".join(lines) + "\n"


def streamed(res, fmt):
    fh = io.StringIO()
    (res.write_text if fmt == "text" else res.write_json)(fh)
    return fh.getvalue()


def assert_streams_match_reference(res):
    assert streamed(res, "json") == reference_json(res)
    assert streamed(res, "text") == reference_text(res)


def chunk_sizes(monkeypatch):
    """Each write chunk size to test: the default, then sizes that split steps and rows."""
    from scrollres import resolution
    for chunk in (resolution._WRITE_CHUNK, 1, 2, 7):
        monkeypatch.setattr(resolution, "_WRITE_CHUNK", chunk)
        yield chunk


@pytest.mark.parametrize("blocks", [(2, 2), (3, 3), (2, 5), (4, 3), (5, 4)])
def test_streamed_output_matches_json_and_text_reference(blocks, monkeypatch):
    spec = build_scroll(list(blocks))
    for _ in chunk_sizes(monkeypatch):
        for steps in range(1, 6):
            assert_streams_match_reference(field_resolution(spec, steps))


def test_streamed_output_matches_reference_on_faults(monkeypatch):
    res = field_resolution(S33, 4)
    for _ in chunk_sizes(monkeypatch):
        for kind in FAULT_KINDS:
            assert_streams_match_reference(inject_fault(res, kind))


def test_streamed_output_empty_step_and_fraction(monkeypatch):
    ring = ring_for(S33)
    half = ring.var_elem(2).scalar_mul(Fraction(-1, 2))
    first = SparseMatrixR(ring, 1, 3, [((0, 2), half), ((0, 0), ring.var_elem(1))])
    empty = SparseMatrixR(ring, 3, 2)
    last = SparseMatrixR(ring, 2, 2, [((1, 0), half), ((0, 1), ring.one()),
                                      ((0, 0), half)])
    res = Resolution(S33, "field \"α\"", [first, empty, last], [1, 3, 2, 2],
                     ["variables", "tab\tand ü", 'quote "steps": []'])
    for _ in chunk_sizes(monkeypatch):
        assert_streams_match_reference(res)
        doc = json.loads(streamed(res, "json"))
        assert doc["steps"][1]["entries"] == []
        assert doc["steps"][0]["entries"][1] == [0, 2, "-1/2*x2"]
        assert streamed(res, "text").splitlines()[3] == "# step 2: 3 x 2"
        assert_streams_match_reference(Resolution(S33, "field", [], [1]))


def test_positions_beyond_intp_are_streamed():
    """Positions are Python ints, so a matrix with more positions than a
    machine integer holds streams like any other."""
    ring = ring_for(S33)
    huge = SparseMatrixR(ring, 2**32, 2**32, [((2**32 - 1, 0), ring.one()),
                                              ((0, 2**32 - 1), ring.var_elem(1))])
    assert huge.to_json_obj()["entries"] == [[0, 2**32 - 1, "x1"], [2**32 - 1, 0, "1"]]
    assert_streams_match_reference(Resolution(S33, "field", [huge], [2**32, 2**32]))


def test_one_write_formats_each_element_once(monkeypatch):
    """Steps share cached nodes and Element objects; a write formats each object once."""
    from scrollres.ring import Element

    res = field_resolution(S22, 40)
    objects = {id(e) for step in res.steps for e in step.entries.values()}
    calls = []

    def counted(e):
        calls.append(id(e))
        return real_str(e)

    real_str = Element.__str__
    monkeypatch.setattr(Element, "__str__", counted)
    for fmt in ("json", "text"):
        calls.clear()
        streamed(res, fmt)
        assert sorted(calls) == sorted(objects)


@pytest.mark.parametrize("blocks", [(2, 2), (3, 3), (4, 5), (7, 2)])
def test_row_groups_cover_disjoint_row_ranges(blocks):
    """The writer's groups hold every leaf with entries once, by first row;
    a leaf starts a group exactly where no earlier leaf's rows reach."""
    res = field_resolution(build_scroll(list(blocks)), 6)
    for step in res.steps + [inject_fault(res, kind).steps[3] for kind in FAULT_KINDS]:
        parts = [part for part in _parts(step) if part[0].entries]
        groups = list(resolution._row_groups(step))
        flat = [part for _, group in groups for part in group]
        placed = sorted((id(leaf), r0, c0) for leaf, r0, c0 in parts)
        assert sorted((id(leaf), r0, c0) for leaf, r0, c0 in flat) == placed
        assert [r0 for _, r0, _ in flat] == sorted(r0 for _, r0, _ in parts)
        end = 0
        for top, group in groups:
            assert top == group[0][1] >= end
            for leaf, r0, _ in group:
                assert r0 == top or r0 < end
                end = max(end, r0 + leaf.rows)
        assert sum(len(leaf.entries) for leaf, _, _ in flat) == len(step.entries)


def test_one_write_keeps_no_fault_beyond_its_step():
    """A faulted step's entries reach no other step through the write's memos.

    For blocks (2,2) steps 5 to 8 are built from the same cached nodes, so
    a fault in one of them would show in the others if it leaked.
    """
    res = field_resolution(S22, 8)
    for step in (5, 6, 7):
        for kind in FAULT_KINDS:
            assert_streams_match_reference(inject_fault(res, kind, step))
    # a faulty copy of one block, beside its shared siblings
    res = field_resolution(S45, 5)
    k = third_phi2_copy(res.steps[4])
    bad5 = with_block(res.steps[4], k, faulty_copy(res.steps[4], k, lambda e: -e))
    assert_streams_match_reference(Resolution(S45, "field", res.steps[:4] + [bad5],
                                              list(res.ranks)))


def test_cached_constructors_mark_their_nodes():
    def nodes(mat):
        return [mat] + [n for part in (mat.blocks or {}).values() for n in nodes(part)]

    for mat in (phi0(S45), phi1(S45), phi2(S45), phi(S45, 4), _phi(S45, 3, -1),
                alpha(S45, 0), alpha(S45, 3)):
        assert all(n.cached for n in nodes(mat))
    steps = field_resolution(S45, 5).steps
    assert not any(step.cached for step in steps)
    assert steps[4].blocks[0, 1] is alpha(S45, 3)
    assert not steps[4].blocks[0, 0].cached and not steps[4].blocks[1, 1].cached
    assert not phi(S45, 1).copy().cached and not (-phi(S45, 1)).cached


def test_eval_modp_one_value_per_entry():
    p = 32003
    for step in field_resolution(S43, 5).steps:
        vals = scroll_point(S43, random.Random(step.cols), p)
        a = step.eval_modp(vals, p)
        assert a.shape == (step.rows, step.cols)
        assert len(a.rows) == len(a.cols) == len(a.vals) == len(step.entries)
        dense = np.zeros(a.shape)
        np.add.at(dense, (a.rows, a.cols), a.vals)
        want = np.zeros(a.shape)
        for (r, c), e in step.entries.items():
            want[r, c] = e.eval_modp(vals, p)
        assert np.array_equal(dense, want)


def test_field_resolution_size_guard():
    # step 8 of (4,5), rank 2,667,168, is accepted; step 9 is refused
    assert betti(S45, 8) <= MAX_FREE_RANK < betti(S45, 9)
    with pytest.raises(ValueError, match="rank 16003008, above the supported 3000000$"):
        field_resolution(S45, 9)


def test_evaluation_guard_refuses_no_step_that_is_built():
    """Every step `field_resolution` accepts has at most MAX_HELD_ENTRIES
    entries, so `eval_modp` refuses none of them; counted, not evaluated."""
    most = 0
    for m in range(2, 13):
        for q in range(m, 13):
            spec = build_scroll([m, q])
            last = 4 if (m, q) == (2, 2) else MAX_STEPS  # (2,2): beta_i = 8 for i >= 3
            steps = 1
            while steps < last and betti(spec, steps + 1) <= MAX_FREE_RANK:
                steps += 1
            for step in field_resolution(spec, steps).steps:
                most = max(most, len(step.entries))
    assert most <= linalg.MAX_HELD_ENTRIES


def test_evaluation_is_refused_before_any_array_is_built(monkeypatch):
    def materialise(*args):
        raise AssertionError("a leaf was read")
    step = field_resolution(S33, 3).steps[2]
    with monkeypatch.context() as patch:
        patch.setattr(resolution, "_read", materialise)
        patch.setattr(linalg, "MAX_HELD_ENTRIES", len(step.entries) - 1)
        error = (f"resource guard: evaluating a {step.rows}x{step.cols} F_p block holds more "
                 f"than the supported {len(step.entries) - 1} entries")
        with pytest.raises(ValueError) as err:
            step.eval_modp(scroll_point(S33, random.Random(0), 101), 101)
        assert str(err.value) == error
    # only the largest matrix is refused; a probe of any other reads its leaves
    mats = [phi(S33, i) for i in range(4)] + [staircase(S33, d) for d in range(2, 6)]
    largest = max(mats, key=lambda mat: len(mat.entries))
    monkeypatch.setattr(linalg, "MAX_HELD_ENTRIES", len(largest.entries) - 1)
    with pytest.raises(ValueError) as err:
        check_phi_ranks(S33, 3, 101)
    assert str(err.value) == (f"resource guard: evaluating a {largest.rows}x{largest.cols} "
                              f"F_p block holds more than the supported "
                              f"{len(largest.entries) - 1} entries")


def test_resolution_rejects_bad_chain():
    ring = ring_for(S33)
    a = SparseMatrixR(ring, 1, 6)
    b = SparseMatrixR(ring, 5, 2)
    with pytest.raises(ValueError):
        Resolution(S33, "field", [a, b], [1, 6, 2])


def test_constructors_reject_other_block_counts():
    s = build_scroll([2, 2, 2])
    for fn in (phi0, phi1, phi2):
        with pytest.raises(ValueError):
            fn(s)
    with pytest.raises(ValueError):
        field_resolution(s, 2)
    with pytest.raises(ValueError):
        resolution_of(s, "J", 1)


def reference_matmul(a, b):
    """The product by the triple loop: every entry pair, every term pair."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    by_row = {}
    for (k, c), e in b.entries.items():
        by_row.setdefault(k, []).append((c, e))
    raw = {}
    for (r, k), ea in a.entries.items():
        for c, eb in by_row.get(k, []):
            acc = raw.setdefault((r, c), {})
            for ma, ca in ea.terms.items():
                for mb, cb in eb.terms.items():
                    mono = tuple(x + y for x, y in zip(ma, mb))
                    acc[mono] = acc.get(mono, 0) + ca * cb
    out = SparseMatrixR(a.ring, a.rows, b.cols)
    for pos, terms in raw.items():
        e = a.ring.element(terms)
        if not e.is_zero():
            out.entries[pos] = e
    return out


def exact_form(mat):
    """Entries with each coefficient's type, so 1 and Fraction(1) differ."""
    return {pos: {m: (type(c), c) for m, c in e.terms.items()}
            for pos, e in mat.entries.items()}


def assert_product_matches_reference(a, b):
    got = a @ b
    want = reference_matmul(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got == want
    assert exact_form(got) == exact_form(want)
    return got


def random_element(ring, rng, coeffs):
    raw = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.n
        for _ in range(rng.randint(0, 2)):
            mono[rng.randrange(ring.n)] += 1
        raw[tuple(mono)] = rng.choice(coeffs)
    return ring.element(raw)


def random_matrix(ring, rng, rows, cols, pool, density):
    out = SparseMatrixR(ring, rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                out.set(r, c, rng.choice(pool))
    return out


@pytest.mark.parametrize("coeffs", [(-2, -1, 1, 2, 3),
                                    (Fraction(1, 2), Fraction(-1, 2), 1,
                                     Fraction(3, 4), Fraction(-1, 4))])
def test_matmul_random_matrices_match_reference(coeffs):
    ring = ring_for(S34)
    rng = random.Random(len(coeffs))
    nonzero = 0
    for trial in range(60):
        # a small value pool, so products repeat and sums can cancel
        pool = [random_element(ring, rng, coeffs) for _ in range(rng.randint(1, 6))]
        pool += [-e for e in pool]
        rows, mid, cols = rng.randint(0, 5), rng.randint(0, 6), rng.randint(0, 5)
        density = rng.choice([0.0, 0.3, 0.7])
        a = random_matrix(ring, rng, rows, mid, pool, density)
        b = random_matrix(ring, rng, mid, cols, pool, density)
        nonzero += bool(assert_product_matches_reference(a, b).entries)
    assert nonzero > 10


def test_matmul_sums_cancel_after_normal_form():
    ring = ring_for(S34)
    x = [None] + [ring.var_elem(i) for i in range(1, 8)]
    half = ring.element({(0,) * 7: Fraction(1, 2)})
    # x1*x5 = x2*x4 in the ring, so column 0 cancels only after normal
    # form; column 1 cancels as monomials; column 2 is half + half = 1
    a = SparseMatrixR(ring, 1, 2, {(0, 0): x[1], (0, 1): x[2]})
    b = SparseMatrixR(ring, 2, 3, {(0, 0): x[5], (1, 0): -x[4],
                                   (0, 1): x[2], (1, 1): -x[1],
                                   (0, 2): half * x[5], (1, 2): half * x[4]})
    prod = assert_product_matches_reference(a, b)
    assert list(prod.entries) == [(0, 2)]
    (mono, coeff), = prod.get(0, 2).terms.items()
    assert type(coeff) is int and coeff == 1
    empty = SparseMatrixR(ring, 3, 0)
    assert_product_matches_reference(empty, SparseMatrixR(ring, 0, 4))
    assert_product_matches_reference(a, SparseMatrixR(ring, 2, 5))
    with pytest.raises(ValueError, match="shape mismatch"):
        a @ a


def reference_first_residual(res):
    for i, (a, b) in enumerate(zip(res.steps, res.steps[1:])):
        prod = reference_matmul(a, b)
        if prod.entries:
            (r, c), e = min(prod.items_sorted())
            return {"pair": (i, i + 1), "row": r, "col": c, "residual": str(e)}
    return None


# blocks (2,2) are 2-periodic: from step 4 on, steps i and i+2 share their phi and -phi nodes
@pytest.mark.parametrize("blocks", [(3, 3), (4, 3), (2, 5), (2, 2)])
def test_matmul_on_fault_injected_steps_matches_reference(blocks):
    spec = build_scroll(blocks)
    steps, faulted = (8, (5, 6, 7)) if blocks == (2, 2) else (4, (2, 3, 4))
    res = field_resolution(spec, steps)
    clean = [list(s.entries.items()) for s in res.steps]
    for step in faulted:
        for kind in FAULT_KINDS:
            bad = inject_fault(res, kind, step)
            assert [list(s.entries.items()) for s in res.steps] == clean
            assert [list(s.entries.items()) for k, s in enumerate(bad.steps) if k != step - 1] \
                == clean[:step - 1] + clean[step:]
            for a, b in zip(bad.steps, bad.steps[1:]):
                assert_product_matches_reference(a, b)
            report = check_complex(bad)
            want = reference_first_residual(bad)
            if want is None:
                assert report.ok
            else:
                assert not report.ok and report.details == want


# alpha's scalar identities nest as phi's rows do, so the couplings of one
# depth are memo hits at the next; (2,2) is 2-periodic from step 4 on
@pytest.mark.parametrize("blocks, depths", [((2, 2), (30, 3000)), ((3, 3), (6, 11)),
                                            ((2, 5), (6, 8)), ((4, 5), (6, 8)),
                                            ((5, 4), (6, 8))],
                         ids=["2-2", "3-3", "2-5", "4-5", "5-4"])
def test_one_product_memo_serves_the_whole_check(blocks, depths, joins, monkeypatch):
    """Node and value pairs that recur from step to step are multiplied once per check."""
    from scrollres import resolution
    from scrollres.ring import Element

    muls = [0]

    def mul(a, b):
        muls[0] += 1
        return real_mul(a, b)

    class Run(resolution._ProductRun):
        def __init__(self):
            super().__init__()
            runs.append(self)

    real_mul = Element.__mul__
    monkeypatch.setattr(Element, "__mul__", mul)
    monkeypatch.setattr("scrollres.checks._ProductRun", Run)
    spec = build_scroll(blocks)
    counts, runs = [], []
    for steps in depths:
        res = field_resolution(spec, steps)
        joins.clear()
        muls[0] = 0
        assert check_complex(res).ok
        counts.append(len(joins))
        # every entry is some +-x_v: at most (2n)^2 distinct value pairs
        assert muls[0] <= (2 * spec.n) ** 2
    assert counts[0] == counts[1]
    if blocks == (2, 2):
        assert counts == [13, 13]
        # only products of cached nodes are kept, and those recur
        assert len(runs) == 2 and len(runs[0].products) == len(runs[1].products)


def test_blocks_2_2_keep_one_alpha():
    """Every phi_i of blocks (2,2) has its two rows in one band: one alpha serves all i >= 1."""
    assert all(alpha(S22, i) is alpha(S22, 1) for i in range(1, 51))
    steps = field_resolution(S22, 5000).steps
    assert {id(step.blocks[0, 1]) for step in steps[2:]} == {id(alpha(S22, 1))}


@pytest.mark.parametrize("blocks, steps, faulted", [((3, 3), 10, 8), ((2, 5), 8, 7)])
def test_faults_at_late_steps_are_caught(blocks, steps, faulted):
    res = field_resolution(build_scroll(blocks), steps)
    for kind in FAULT_KINDS:
        bad = inject_fault(res, kind, faulted)
        assert all(b is s for k, (b, s) in enumerate(zip(bad.steps, res.steps))
                   if k != faulted - 1)
        assert bad.steps[faulted - 1] is not res.steps[faulted - 1]
        report = check_complex(bad)
        assert not report.ok
        assert report.details["pair"] in ((faulted - 2, faulted - 1), (faulted - 1, faulted))
        report = check_minimality(bad)
        assert report.ok == (kind != "unit_insert")
        if not report.ok:
            assert report.details["step"] == faulted - 1
    assert check_complex(res).ok and check_minimality(res).ok


def test_alpha_products_match_reference():
    for i in (0, 1, 2):
        rj = resolution_of(S43, "J", i + 1)
        assert assert_product_matches_reference(alpha(S43, i), rj.steps[i + 1]).entries


def test_cached_objects_are_read_only():
    entry = next(iter(phi(S33, 1).entries.values()))
    mono = next(iter(entry.terms))
    with pytest.raises(TypeError):
        entry.terms[mono] = 5
    with pytest.raises(TypeError):
        del entry.terms[mono]
    with pytest.raises(AttributeError):
        entry.terms.clear()
    negated = [_phi(S33, i, -1) for i in (1, 2, 3)]
    for mat in (phi0(S33), phi1(S33), phi2(S33), phi(S33, 3), alpha(S33, 1), *negated):
        with pytest.raises(TypeError):
            mat.entries[(0, 0)] = entry
        for leaf in leaves(mat):
            with pytest.raises(TypeError):
                leaf.entries[(0, 0)] = entry
    # the J blocks of steps 4, 5 and 6 are copies of the cached -phi_1, -phi_2, -phi_3
    steps = field_resolution(S33, 6).steps
    assert all(steps[i].blocks[1, 1].blocks[0, 0] is mat for i, mat in zip((3, 4, 5), negated))
    copied = phi(S33, 1).copy()
    copied.entries.clear()
    assert phi(S33, 1).entries
    assert check_complex(field_resolution(S33, 4)).ok


def leaves(mat):
    """The leaves of a matrix's tree of blocks, each distinct one once."""
    if mat.blocks is None:
        return [mat]
    return list({id(leaf): leaf for part in mat.blocks.values() for leaf in leaves(part)}.values())


def test_negated_entries_share_objects():
    res = field_resolution(build_scroll([4, 5]), 6)
    objects = {id(e) for step in res.steps for e in step.entries.values()}
    values = {e for step in res.steps for e in step.entries.values()}
    assert len(values) == 18
    assert len(objects) == len(values)


@pytest.mark.parametrize("blocks", [(2, 2), (3, 3), (2, 5), (4, 5), (7, 3)])
def test_every_entry_is_a_signed_variable(blocks):
    """Every entry of the explicit resolution to step 6 is a single +-x_v.

    Each distinct leaf is read once (`_per_node`), not the flat view.
    """
    def signed_variables(m):
        return all(len(e.terms) == 1 and sum(mono) == 1 and c in (1, -1)
                   for e in m.entries.values() for mono, c in e.terms.items())

    memo = {}
    for step in field_resolution(build_scroll(blocks), 6).steps:
        assert _per_node(step, signed_variables, lambda m, parts: all(parts), memo)


def test_only_the_codes_a_step_holds_are_evaluated_and_written(monkeypatch):
    """The palette is the ring's, shared by every matrix made on it.

    A value planted in it that no step holds, here one with no image mod
    101, is neither evaluated nor formatted.
    """
    from scrollres.ring import Element

    ring = ring_for(S33)
    planted = ring.element({(1, 0, 0, 0, 0, 0): Fraction(1, 101)})
    assert ring.palette[planted.code] is planted
    with pytest.raises(ValueError, match="no image mod 101"):
        planted.eval_modp([1] * 6, 101)
    res = field_resolution(S33, 4)
    held = {e.code for step in res.steps for e in step.entries.values()}
    assert planted.code not in held
    for step in res.steps:
        assert len(step.eval_modp(scroll_point(S33, random.Random(0), 101), 101).vals)
    calls = []

    def counted(e):
        calls.append(e.code)
        return real_str(e)

    real_str = Element.__str__
    monkeypatch.setattr(Element, "__str__", counted)
    res.write_json(io.StringIO())
    assert sorted(calls) == sorted(held)


@pytest.mark.parametrize("build", [lambda: staircase(S45, 10), lambda: phi(S45, 4),
                                   lambda: inject_fault(field_resolution(S45, 4), "sign_flip")
                                   .steps[2]], ids=["staircase", "phi4", "fault_copy"])
def test_negation_negates_each_element_object_once(monkeypatch, build):
    """Each value's negation is built at most once per ring, however often it is negated."""
    mat = build()
    codes = {e.code for e in mat.entries.values()}
    built = []
    value = ScrollRing._value

    def counted(ring, terms):
        built.append(frozenset(terms.items()))
        return value(ring, terms)
    monkeypatch.setattr(ScrollRing, "_value", counted)
    monkeypatch.setattr(mat.ring, "_negations", {})  # count the negations made before too
    neg = -mat
    assert len(built) == len(set(built)) == len(codes) < len(mat.entries)
    assert dict(neg.entries.items()) == {pos: -e for pos, e in mat.entries.items()}
    assert -mat == neg and -neg == mat
    assert len(built) == len(set(built))  # the second round built only negations not yet made


def assemble_reference(mat):
    """mat's entries copied block by block into one dict, at their cells' starts."""
    if mat.blocks is None:
        return dict(mat.entries)
    out = {}
    for (i, j), part in mat.blocks.items():
        for (r, c), e in assemble_reference(part).items():
            out[(mat.row_starts[i] + r, mat.col_starts[j] + c)] = e
    return out


@pytest.mark.parametrize("blocks", [(2, 5), (4, 3), (5, 4)])
def test_piece_view_and_arrays_match_the_copy(blocks):
    spec = build_scroll(blocks)
    ring = ring_for(spec)
    res = field_resolution(spec, 5)
    mats = res.steps + [phi(spec, i) for i in range(5)] + [alpha(spec, i) for i in range(4)] \
        + [inject_fault(res, kind).steps[2] for kind in FAULT_KINDS]  # dict-backed copies
    p = 32003
    vals = scroll_point(spec, random.Random(len(blocks)), p)
    for mat in mats:
        ref = assemble_reference(mat)
        assert list(mat.entries.items()) == list(ref.items())
        assert list(mat.entries) == list(ref)
        assert list(mat.entries.values()) == list(ref.values())
        assert len(mat.entries) == len(ref)
        assert mat.entries == ref and ref == dict(mat.entries.items())
        assert mat == SparseMatrixR(ring, mat.rows, mat.cols, ref)
        assert all(mat.entries[pos] is e and pos in mat.entries for pos, e in ref.items())
        outside = [(r, c) for r in range(min(mat.rows, 6)) for c in range(min(mat.cols, 6))
                   if (r, c) not in ref]
        assert not any(pos in mat.entries for pos in outside)
        copied = mat.copy()
        assert type(copied.entries) is dict
        assert list(copied.entries.items()) == list(ref.items())
        assert copied == mat
        a = mat.eval_modp(vals, p)
        assert sorted(zip(a.rows.tolist(), a.cols.tolist(), a.vals.tolist())) == \
            sorted((r, c, e.eval_modp(vals, p)) for (r, c), e in ref.items())
        # the leaf reader, codes included, at each leaf's offsets
        assert [(r0 + r, c0 + c, code) for leaf, r0, c0 in _parts(mat)
                for r, c, code in zip(*_read(leaf))] == \
            [(r, c, e.code) for (r, c), e in ref.items()]


def test_piece_stored_entries_are_read_only():
    step = field_resolution(S43, 4).steps[3]
    assert step.blocks is not None
    with pytest.raises(TypeError):
        step.entries[(0, 0)] = ring_for(S43).one()
    with pytest.raises(KeyError):
        step.entries[(step.rows - 1, 0)]
    with pytest.raises(TypeError):
        step.set(step.rows - 1, 0, ring_for(S43).one())


def assert_lined_up(a, b):
    """a's column starts are b's row starts, and so for every two grid blocks a @ b pairs."""
    assert a.col_starts == b.row_starts
    for (_, j), lhs in a.blocks.items():
        for (j2, _), rhs in b.blocks.items():
            if j == j2 and lhs.blocks is not None and rhs.blocks is not None:
                assert_lined_up(lhs, rhs)


@pytest.mark.parametrize("blocks", [(2, 3), (3, 3), (4, 5), (5, 4), (6, 6), (3, 7)])
def test_column_blocks_are_the_next_row_blocks(blocks):
    """Otherwise `@` falls back to the join: right, but slower."""
    spec = build_scroll(blocks)
    for i in range(2, 5):
        assert_lined_up(phi(spec, i), phi(spec, i + 1))
    steps = field_resolution(spec, 5 if spec.n < 12 else 4).steps
    for a, b in zip(steps[2:], steps[3:]):
        assert_lined_up(a, b)


def test_a_block_must_fill_its_cell():
    ring = ring_for(S33)
    f0 = phi0(S33)
    assert _grid(ring, [2, 2], [4, 4], {(0, 0): f0, (1, 1): f0}) == direct_sum([f0, f0])
    for heights, widths, cell in (([2, 2], [4, 4], (0, 2)),  # no such cell
                                  ([3, 1], [4, 4], (0, 0)),  # too short a block
                                  ([2, 1], [4, 4], (1, 0)),  # too tall a block
                                  ([2, 2], [3, 5], (0, 1))):  # too wide a block
        with pytest.raises(ValueError):
            _grid(ring, heights, widths, {cell: f0})
    with pytest.raises(ValueError):
        _grid(ring, [2, 0], [4], {(0, 0): f0})  # an empty band


def block_at(mat, path):
    """(row offset, col offset, block) of the block that path, a list of cells, leads to."""
    r0 = c0 = 0
    for i, j in path:
        r0, c0, mat = r0 + mat.row_starts[i], c0 + mat.col_starts[j], mat.blocks[i, j]
    return r0, c0, mat


def with_block(mat, path, part):
    """mat with the block that path leads to replaced by part."""
    if not path:
        return part
    blocks = dict(mat.blocks)
    blocks[path[0]] = with_block(blocks[path[0]], path[1:], part)
    return _grid(mat.ring, _sizes(mat.row_starts, mat.rows), _sizes(mat.col_starts, mat.cols),
                 blocks)


def third_phi2_copy(step):
    """Path to the third copy of -phi2 in the J block of step 5 of a field resolution."""
    low = step.blocks[1, 1]
    copies = [cell for cell, part in low.blocks.items()
              if (part.rows, part.cols) == (phi2(S45).rows, phi2(S45).cols)]
    assert len(copies) == S45.n - 2
    return [(1, 1), copies[2]]


def faulty_copy(step, path, mutate):
    """A leaf copy of step's block at path with its middle entry replaced by mutate(entry)."""
    leaf = block_at(step, path)[2].copy()
    pos, e = sorted(leaf.entries.items())[len(leaf.entries) // 2]
    leaf.entries[pos] = mutate(e)
    return leaf


def materialised(res):
    return Resolution(res.spec, res.target, [s.copy() for s in res.steps],
                      list(res.ranks), list(res.provenance))


def test_fault_in_one_copy_of_a_repeated_tile_is_found():
    res = field_resolution(S45, 6)
    step5 = res.steps[4]
    k = third_phi2_copy(step5)
    bad5 = with_block(step5, k, faulty_copy(step5, k, lambda e: -e))
    steps = res.steps[:4] + [bad5, res.steps[5]]
    bad = Resolution(S45, "field", steps, list(res.ranks))
    report = check_complex(bad)
    want = check_complex(materialised(bad))  # one join on whole dict-backed steps
    assert not report.ok and report.details == want.details
    assert report.details["pair"] == (3, 4)
    # the copy meets phi3 of step 6 in a product of its own
    tail = Resolution(S45, "field", [bad5, res.steps[5]], res.ranks[4:])
    report = check_complex(tail)
    want = check_complex(materialised(tail))
    assert not report.ok and report.details == want.details


@pytest.mark.parametrize("where", ["alpha3", "phi2"])
def test_exactness_of_a_planted_fault_matches_the_flat_steps(where):
    """A fault in alpha_3 (block (0, 1) of step 5) or in the third copy of
    -phi2 gets the reports that the whole dict-backed steps get.

    The block-tree bound skips alpha, so on the alpha_3 fault it still
    meets step 5's claim, 1764, while the flat rank is 1765: only the
    d∘d premise, which fails next to the faulty step, keeps the flat rank.
    """
    res = field_resolution(S45, 6)
    step5 = res.steps[4]
    k = [(0, 1)] if where == "alpha3" else third_phi2_copy(step5)
    assert where != "alpha3" or block_at(step5, k)[2] is alpha(S45, 3)
    bad = Resolution(S45, "field", res.steps[:4] + [
        with_block(step5, k, faulty_copy(step5, k, lambda e: -e)), res.steps[5]],
        list(res.ranks))
    flat = materialised(bad)
    for i in (4, 5):
        report = check_exactness(bad, i).to_json_obj()
        assert report == check_exactness(flat, i).to_json_obj()
        assert report["verdict"] == "fail"
    if where == "alpha3":
        assert report["details"]["rank_lo"] == "1765"


def test_joins_of_whole_steps_multiply_each_value_pair_once(joins, monkeypatch):
    """Each product of dict-backed steps is one join, and its value pairs are memo hits."""
    from scrollres.ring import Element

    muls = [0]

    def mul(a, b):
        muls[0] += 1
        return real_mul(a, b)

    real_mul = Element.__mul__
    res = materialised(field_resolution(S45, 6))
    monkeypatch.setattr(Element, "__mul__", mul)
    assert check_complex(res).ok
    assert len(joins) == len(res.steps) - 1 and max(joins) > 10**5
    # every entry is some +-x_v: at most (2n)^2 distinct value pairs
    assert 0 < muls[0] <= (2 * S45.n) ** 2


def test_unit_in_one_copy_of_a_repeated_tile_is_found():
    res = field_resolution(S45, 5)
    step5 = res.steps[4]
    k = third_phi2_copy(step5)
    one = ring_for(S45).one()
    bad = Resolution(S45, "field", res.steps[:4] + [
        with_block(step5, k, faulty_copy(step5, k, lambda e: one))], list(res.ranks))
    report = check_minimality(bad)
    unit = (0,) * S45.n
    first = next(((idx, r, c, e) for idx, step in enumerate(bad.steps)
                  for (r, c), e in assemble_reference(step).items() if unit in e.terms))
    assert not report.ok
    assert report.details == {"step": first[0], "row": first[1], "col": first[2],
                              "entry": str(first[3])}
    assert report.details["step"] == 4 and report.details["row"] >= block_at(step5, k)[0]


@pytest.mark.parametrize("blocks", [(6, 6), (3, 7)])
def test_overlapping_result_rectangles_fall_back_to_the_join(blocks):
    """In step 2 @ step 3, blocks that do not line up are joined.

    Step 2's staircases span several phi1 copies of step 3, and alpha_0,
    a leaf, meets the J block's staircase, a leaf too.
    """
    spec = build_scroll(blocks)
    res = field_resolution(spec, 3)
    d2, d3 = res.steps[1], res.steps[2]
    assert len(d2.entries) + len(d3.entries) >= 1000  # large enough to be tiled
    assert not (d2 @ d3).entries
    k = next([cell] for cell, part in d2.blocks.items() if part is alpha(spec, 0))
    bad = with_block(d2, k, faulty_copy(d2, k, lambda e: -e))
    got = bad @ d3
    want = bad.copy() @ d3.copy()  # one join on whole dict-backed matrices
    assert got.entries and got == want
    assert exact_form(got) == exact_form(want)
