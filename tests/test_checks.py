import random
from fractions import Fraction

import pytest

from scrollres import checks, linalg
from scrollres.checks import (FAULT_KINDS, check_complex, check_exactness,
                              check_minimality, check_phi_ranks,
                              groebner_consistency, inject_fault,
                              minor_certificate, minor_reports, probe_rank,
                              scroll_point)
from scrollres.checks import _diagonal, _rank_bound, claimed_ranks
from scrollres.resolution import SparseMatrixR, _grid, field_resolution, phi, staircase
from scrollres.ring import ring_for
from scrollres.scrolls import build_scroll

S22 = build_scroll([2, 2])
S33 = build_scroll([3, 3])
S43 = build_scroll([4, 3])
S44 = build_scroll([4, 4])


def test_scroll_point_lies_on_all_minors():
    from scrollres.scrolls import minor_generators
    rng = random.Random(0)
    q = 32003
    for blocks in [(3, 3), (4, 3), (2, 2, 2)]:
        s = build_scroll(blocks)
        vals = scroll_point(s, rng, q)
        for g in minor_generators(s):
            lhs = rhs = 1
            for i, e in enumerate(g.plus):
                lhs = lhs * pow(vals[i], e, q) % q
            for i, e in enumerate(g.minus):
                rhs = rhs * pow(vals[i], e, q) % q
            assert lhs == rhs


def test_probe_rank_zero_matrix():
    rep = probe_rank(SparseMatrixR(ring_for(S33), 5, 7), trials=2, seed=1)
    assert rep.probe == 0


def test_probe_rank_known_values():
    rep = probe_rank(phi(S33, 1), claimed=3, seed=2)
    assert (rep.probe, rep.probes_run) == (3, 1)  # stops once the claim is met
    assert probe_rank(phi(S33, 1), seed=2).probes_run == 5
    assert probe_rank(staircase(S33, 5), claimed=4, seed=2).probe == 4
    assert probe_rank(phi(S33, 0), claimed=1, seed=2).probe == 1


def test_probe_rank_draws_only_the_seeds_it_runs(monkeypatch):
    drawn = []

    class CountingRandom(random.Random):
        def randrange(self, *args, **kwargs):
            if args == (2**32,):
                drawn.append(1)
            return super().randrange(*args, **kwargs)

    monkeypatch.setattr(random, "Random", CountingRandom)
    rep = probe_rank(phi(S33, 2), trials=10**6, claimed=(S33.n - 3) ** 2, seed=3)
    assert rep.ok
    assert len(drawn) == rep.probes_run == len(rep.trial_seeds)


def test_probe_rank_monotone_and_bounded():
    mat = phi(S43, 2)
    claimed = (S43.n - 3) ** 2
    probes = [probe_rank(mat, trials=t, seed=9).probe for t in (1, 2, 4)]
    assert probes == sorted(probes)
    assert all(p <= claimed for p in probes)
    assert probes[-1] == claimed


def test_probe_rank_reproducible_and_validated():
    a = probe_rank(phi(S33, 1), trials=3, seed=5)
    b = probe_rank(phi(S33, 1), trials=3, seed=5)
    assert (a.probe, a.trial_seeds) == (b.probe, b.trial_seeds)
    with pytest.raises(ValueError):
        probe_rank(phi(S33, 1), modulus=32004)
    with pytest.raises(ValueError):
        probe_rank(phi(S33, 1), trials=0)


def test_probe_rank_refuses_coefficients_without_image_mod_p():
    # det [[1, 1/101], [101, 1]] = 0, so the rank over Q is 1; sending 1/101
    # to 0 mod 101 would report 2, more than the true rank
    r = ring_for(S33)
    unit = (0,) * S33.n
    mat = SparseMatrixR(r, 2, 2, {(0, 0): r.one(), (1, 1): r.one(),
                                  (0, 1): r.element({unit: Fraction(1, 101)}),
                                  (1, 0): r.element({unit: 101})})
    assert probe_rank(mat, trials=2, modulus=103).probe == 1
    with pytest.raises(ValueError, match="1/101 has no image mod 101"):
        probe_rank(mat, trials=2, modulus=101)


def test_phi_rank_values():
    for blocks in [(4, 3), (3, 3), (2, 4)]:
        s = build_scroll(blocks)
        for rep in check_phi_ranks(s, imax=3, seed=4):
            assert rep.ok, rep.name


def test_check_complex_passes_and_locates_faults():
    res = field_resolution(S33, 5)
    assert check_complex(res).ok
    single = field_resolution(S33, 1)
    assert check_complex(single).ok  # vacuous
    bad = inject_fault(res, "sign_flip")
    rep = check_complex(bad)
    assert not rep.ok
    assert {"pair", "row", "col", "residual"} <= set(rep.details)


def test_check_minimality():
    res = field_resolution(S44, 4)
    assert check_minimality(res).ok
    bad = inject_fault(res, "unit_insert")
    rep = check_minimality(bad)
    assert not rep.ok
    assert rep.details["entry"] == "1"


def test_minimality_tests_only_the_codes_a_step_holds():
    """A unit value in the shared palette that no step holds does not fail minimality."""
    trap = ring_for(S33).element({(0,) * 6: 1, (1, 0, 0, 0, 0, 0): 1})  # 1 + x1
    res = field_resolution(S33, 5)
    for step in res.steps:
        held = step.codes()
        assert held == {e.code for e in step.entries.values()} and trap.code not in held
    assert check_minimality(res).ok


def test_check_exactness_3_3():
    res = field_resolution(S33, 5)
    rep = check_exactness(res, 2, seed=42)
    assert rep.ok
    assert rep.details["rank_lo"] == 5 and rep.details["rank_hi"] == 16
    assert rep.details["cols"] == 21
    rep1 = check_exactness(res, 1, seed=42)
    assert rep1.ok and rep1.details["rank_lo"] == 1 and rep1.details["rank_hi"] == 5


def test_block_tree_bound_meets_the_flat_rank_at_every_step():
    """The block-tree bound never exceeds the flat rank (the kept
    reference), and on criterion 6's specs it equals both the flat rank
    and the claim at every step, at one random point per step."""
    p = 32003
    for n in range(4, 10):
        for m in range(2, n - 1):
            spec = build_scroll([m, n - m])
            res = field_resolution(spec, 5)
            for k, (step, claim) in enumerate(zip(res.steps, claimed_ranks(res))):
                vals = scroll_point(spec, random.Random(100 * n + 10 * m + k), p)
                flat = linalg.rank_modp(step.eval_modp(vals, p), p)
                bound = _rank_bound(step, vals, p, {})
                assert bound <= flat, (spec, k)
                assert bound == flat == claim, (spec, k, bound, flat, claim)
                # the cone steps are block upper-triangular from step 3 on
                assert (_diagonal(step) is not None) == (k >= 2)


def test_other_grids_take_the_flat_path(monkeypatch):
    """Step 2's 1 x 2 bands, and a grid whose off-diagonal blocks make a
    cycle, are evaluated whole: there the sum of the diagonal ranks can
    exceed the rank."""
    ring = ring_for(S33)
    x1 = SparseMatrixR(ring, 1, 1, {(0, 0): ring.var_elem(1, 1)})
    full = _grid(ring, [1, 1], [1, 1], {cell: x1 for cell in [(0, 0), (0, 1), (1, 0), (1, 1)]})
    # [[x1, x1, 0], [0, x1, x1], [-x1, 0, x1]] has rank 2
    cycle = _grid(ring, [1, 1, 1], [1, 1, 1],
                  {**{cell: x1 for cell in [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]}, (2, 0): -x1})
    chain = _grid(ring, [1, 1, 1], [1, 1, 1],
                  {cell: x1 for cell in [(0, 0), (1, 1), (2, 2), (0, 1), (2, 1)]})
    step2 = field_resolution(S33, 2).steps[1]
    assert [len(step2.row_starts), len(step2.col_starts)] == [1, 2]
    assert _diagonal(step2) is _diagonal(full) is _diagonal(cycle) is None
    assert _diagonal(chain) == [x1] * 3  # acyclic, like phi2's three bands
    evaluated = []
    real_eval = SparseMatrixR.eval_modp

    def eval_modp(mat, vals, p):
        evaluated.append(mat)
        return real_eval(mat, vals, p)
    monkeypatch.setattr(SparseMatrixR, "eval_modp", eval_modp)
    vals = scroll_point(S33, random.Random(1), 101)
    for mat, rank in [(step2, 5), (full, 1), (cycle, 2)]:
        evaluated.clear()
        assert _rank_bound(mat, vals, 101, {}) == rank
        assert evaluated == [mat]
        evaluated.clear()
        rep = probe_rank(mat, trials=1, modulus=101, claimed=rank, proven=True)
        assert rep.probe == rank and evaluated == [mat]
    evaluated.clear()
    assert _rank_bound(chain, vals, 101, {}) == 3 and evaluated == [x1]  # once per distinct node


def test_proven_probe_refuses_a_value_without_image_mod_p():
    """A value with no image mod p, even off the diagonal, sends the probe down the flat path."""
    ring = ring_for(S33)
    x1 = SparseMatrixR(ring, 1, 1, {(0, 0): ring.var_elem(1, 1)})
    third = SparseMatrixR(ring, 1, 1, {(0, 0): ring.element({(0,) * S33.n: Fraction(1, 101)})})
    mat = _grid(ring, [1, 1], [1, 1], {(0, 0): x1, (0, 1): third, (1, 1): x1})
    assert probe_rank(mat, trials=1, modulus=103, claimed=2, proven=True, seed=2).probe == 2
    with pytest.raises(ValueError, match="1/101 has no image mod 101"):
        probe_rank(mat, trials=1, modulus=101, claimed=2, proven=True)


def test_exactness_multiplies_only_pairs_of_triangular_steps(monkeypatch):
    """The d∘d premise is taken from step 3 @ step 4 on: the product of
    steps 2 and 3 joins step 2's flat staircases whole."""
    from scrollres.resolution import _ProductRun
    pairs = set()
    real = _ProductRun.residual

    def residual(run, lhs, rhs):
        pairs.add((id(lhs), id(rhs)))
        return real(run, lhs, rhs)
    monkeypatch.setattr(_ProductRun, "residual", residual)
    res = field_resolution(S33, 5)
    assert all(check_exactness(res, i, seed=7).ok for i in range(1, 5))
    steps = res.steps
    assert pairs == {(id(steps[2]), id(steps[3])), (id(steps[3]), id(steps[4]))}


def test_check_exactness_rejects_bad_index():
    res = field_resolution(S33, 2)
    with pytest.raises(ValueError):
        check_exactness(res, 0)
    with pytest.raises(ValueError):
        check_exactness(res, 2)


def test_groebner_consistency():
    assert groebner_consistency(S33, 4).ok
    assert groebner_consistency(S22, 3).ok
    assert groebner_consistency(S43, 4).ok
    with pytest.raises(ValueError, match="groebner needs n <= 9, got n = 11"):
        groebner_consistency(build_scroll([6, 5]), 2)


def test_minor_reports_refuse_a_wide_scroll_before_any_certificate(monkeypatch):
    def certify(*args, **kwargs):
        raise AssertionError("a certificate was computed")
    monkeypatch.setattr(checks, "minor_certificate", certify)
    with pytest.raises(ValueError, match="minors needs n <= 48, got n = 49"):
        minor_reports(build_scroll([25, 24]), 0)


def test_phi_ranks_refuse_a_matrix_before_building_the_next(monkeypatch):
    phi3 = phi(S43, 3)
    assert max(len(phi(S43, i).entries) for i in range(3)) < len(phi3.entries)
    monkeypatch.setattr(linalg, "MAX_HELD_ENTRIES", len(phi3.entries) - 1)

    def build(spec, d):
        raise AssertionError("a staircase was built")
    monkeypatch.setattr(checks, "staircase", build)
    with pytest.raises(ValueError, match=f"evaluating a {phi3.rows}x{phi3.cols} F_p block"):
        check_phi_ranks(S43, 3, 101)


def test_minor_certificate_phi1_full_power():
    cert = minor_certificate(S33, "phi1", 1)
    assert cert.ok
    assert len(cert.rows) == 3
    assert str(cert.minor) in ("x1^3", "-x1^3")


def test_minor_certificate_staircase_single_entry():
    cert = minor_certificate(S33, "staircase", 1, d=2)
    assert cert.ok
    assert str(cert.minor) == "-x1"
    cert44 = minor_certificate(S44, "staircase", 4, d=4)
    assert cert44.ok
    assert cert44.rows == [1, 2, 3]
    assert str(cert44.minor) in ("x4^3", "-x4^3")


def test_minor_certificates_all_variables():
    for s in (S33, S44):
        n = s.n
        for i in range(1, n + 1):
            assert minor_certificate(s, "phi0", i).ok
            assert minor_certificate(s, "phi1", i).ok, f"phi1 x{i}"
            for d in range(2, n):
                assert minor_certificate(s, "staircase", i, d=d).ok
            cert = minor_certificate(s, "phi2", i)
            assert cert.status != "failed", (i, cert.readings)


def test_minor_certificates_keep_no_partial_product_in_the_palette():
    """The ring keeps every value made on it for the life of the process.

    A determinant is made as one Element (`ScrollRing.product`), so the
    palette grows by at most the determinants tried and the matrices'
    own +-x_v; a chain of `*` would keep each of phi2's ~(n-3)^2 partial
    products as well.
    """
    spec = build_scroll([7, 7])
    ring = ring_for(spec)
    before = len(ring.palette)
    reports = minor_reports(spec, 0)
    tried = sum(len(r["details"]["readings"]) for r in reports)
    assert all(r["verdict"] == "pass" for r in reports)
    assert len(ring.palette) - before <= tried + 2 * spec.n


def test_minor_certificate_rejects_bad_input():
    with pytest.raises(ValueError):
        minor_certificate(S33, "phi1", 0)
    with pytest.raises(ValueError):
        minor_certificate(S33, "staircase", 1)  # missing d
    with pytest.raises(ValueError):
        minor_certificate(S33, "phi7", 1)
    with pytest.raises(ValueError):
        minor_certificate(build_scroll([2, 2, 2]), "phi1", 1)


def test_fault_injection_is_caught():
    res = field_resolution(S33, 4)
    for kind in FAULT_KINDS:
        bad = inject_fault(res, kind)
        caught = (not check_complex(bad).ok
                  or not check_minimality(bad).ok
                  or not all(check_exactness(bad, i, seed=3).ok
                             for i in range(1, len(bad.steps))))
        assert caught, kind


def test_fault_injection_unknown_kind():
    res = field_resolution(S33, 3)
    with pytest.raises(ValueError):
        inject_fault(res, "typo")


def test_reports_serialise():
    import json
    rep = check_exactness(field_resolution(S33, 3), 1, seed=0)
    obj = rep.to_json_obj()
    json.dumps(obj)
    assert obj["verdict"] == "pass"
    assert obj["modulus"] == 32003
    cert = minor_certificate(S33, "phi2", 3)
    json.dumps(cert.to_json_obj())
