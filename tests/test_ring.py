import os
import random
from itertools import combinations_with_replacement

import pytest

from scrollres.scrolls import build_scroll
from scrollres.ring import (ScrollRing, adegree, is_standard, normal_form, ring_for,
                            standard_monomials)
from scrollres.series import betti, hilbert_coefficients

S33 = build_scroll([3, 3])
S22 = build_scroll([2, 2])


def mono(n, **kw):
    e = [0] * n
    for name, exp in kw.items():
        e[int(name[1:]) - 1] = exp
    return tuple(e)


def all_monomials(n, d):
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        yield tuple(e)


def test_is_standard_examples():
    assert not is_standard(mono(6, x1=1, x3=1), S33)   # gap 2 inside block 1
    assert is_standard(mono(6, x1=1), S33)
    assert not is_standard(mono(6, x2=1, x5=1), S33)   # cross-block clash
    assert is_standard(mono(6, x2=2), S33)
    assert is_standard(mono(6, x3=5, x4=2), S33)


def test_normal_form_single_rewrites():
    r = ring_for(S33)
    assert r.nf_monomial(mono(6, x1=1, x3=1)) == mono(6, x2=2)
    std = mono(6, x3=1, x4=2)
    assert r.nf_monomial(std) == std
    # two rewrite steps
    assert r.nf_monomial(mono(6, x1=1, x6=1)) == mono(6, x3=1, x4=1)


def test_normal_form_cancellation():
    e = normal_form({mono(6, x1=1, x6=1): 1, mono(6, x3=1, x4=1): -1}, S33)
    assert e.is_zero()


def test_multiply_examples():
    r = ring_for(S33)
    x1, x3 = r.var_elem(1), r.var_elem(3)
    prod = x1 * x3
    assert prod.terms == {mono(6, x2=2): 1}
    e = r.element({mono(6, x3=1, x4=1): 2, mono(6, x2=1): -1})
    assert e * r.one() == e
    assert (e * r.zero()).is_zero()


def test_scalar_and_add_negate():
    r = ring_for(S33)
    e = r.var_elem(2)
    assert (e + (-e)).is_zero()
    assert e.scalar_mul(3).terms == {mono(6, x2=1): 3}
    assert (e - e).is_zero()


def test_element_str_canonical():
    r = ring_for(S33)
    e = r.element({mono(6, x1=1, x6=1): 1})  # rewrites to x3*x4
    assert str(e) == "x3*x4"
    f = r.element({mono(6, x2=1, x5=1): 1, mono(6, x3=1, x4=1): -1})
    assert str(f) == "0"
    g = r.element({mono(6, x2=2): -1, mono(6, x1=1, x2=1): 1})
    assert str(g) == "x1*x2 - x2^2"


def test_standard_monomials_small_degrees():
    assert standard_monomials(S33, 0) == [mono(6)]
    assert len(standard_monomials(S33, 1)) == 6
    assert len(standard_monomials(S33, 2)) == 15


def test_standard_monomials_match_filter_oracle():
    cases = [(blocks, 4) for blocks in [(3, 3), (2, 2), (4, 3), (2, 2, 2)]]
    cases += [(blocks, 6) for blocks in [(6,), (2, 2, 2, 2), (2, 7)]]
    for blocks, dmax in cases:
        s = build_scroll(blocks)
        for d in range(0, dmax + 1):
            fast = standard_monomials(s, d)
            slow = sorted(
                (m for m in all_monomials(s.n, d) if is_standard(m, s)),
                reverse=True,
            )
            assert fast == slow
            assert all(ring_for(s).nf_monomial(m) == m for m in fast)


def test_rings_are_built_without_the_minors(monkeypatch):
    """Only standard monomials and the rewriting reference need the
    minors; resolving and verifying read normal forms off the grading."""
    import scrollres.ring
    from scrollres.cli import main
    from scrollres.resolution import field_resolution

    def boom(spec):
        raise AssertionError(f"the minors of {spec} were built")
    monkeypatch.setattr(scrollres.ring, "minor_generators", boom)
    s45 = build_scroll([4, 5])
    ScrollRing(s45)
    assert main(["verify", "--scroll", "4,5", "--steps", "4", "--out", os.devnull]) == 0
    assert main(["resolve", "--scroll", "4,5", "--steps", "4", "--out", os.devnull]) == 0
    wide = build_scroll([300, 300])
    assert field_resolution(wide, 2).ranks == [betti(wide, i) for i in range(3)]
    with pytest.raises(AssertionError, match=r"minors of \(4,5\)"):
        ScrollRing(s45).standard_monomials(1)


def test_standard_monomials_counts_match_series():
    for blocks in [(3, 3), (2, 2), (4, 4), (2, 3, 3), (5, 3), (6,)]:
        s = build_scroll(blocks)
        coeffs = hilbert_coefficients(s, 6)
        for d in range(0, 7):
            assert len(standard_monomials(s, d)) == coeffs[d]


def test_standard_monomials_sorted_descending():
    mons = standard_monomials(S33, 3)
    assert mons == sorted(mons, reverse=True)
    assert len(set(mons)) == len(mons)


def test_adegree_examples():
    assert adegree(mono(6, x1=1), S33) == (1, 0, 0)
    assert adegree(mono(6), S33) == (0, 0, 0)
    assert adegree(mono(6, x3=1, x4=1), S33) == (1, 1, 2)


def test_normal_form_preserves_adegree():
    rng = random.Random(7)
    for blocks in [(2,), (5,), (2, 2), (3, 3), (4, 3), (2, 2, 2), (3, 2, 5, 2)]:
        s = build_scroll(blocks)
        r = ring_for(s)
        for _ in range(200):
            m = tuple(rng.randrange(3) for _ in range(s.n))
            assert r.adegree(r.nf_monomial(m)) == r.adegree(m)


def test_rewrite_order_does_not_matter():
    rng = random.Random(20)
    for blocks in [(2,), (5,), (2, 2), (3, 3), (4, 3), (2, 5), (3, 2, 2), (3, 2, 5, 2)]:
        s = build_scroll(blocks)
        r = ring_for(s)
        for _ in range(150):
            d = rng.randrange(1, 5)
            m = [0] * s.n
            for _ in range(d):
                m[rng.randrange(s.n)] += 1
            m = tuple(m)
            nf = r.nf_monomial(m)
            for _ in range(4):
                assert r.nf_monomial_randomized(m, rng) == nf


def eval_parametrized(mono_, spec, ys, t):
    """Image of a monomial under block b, position j -> ys[b] * t**(j-1)."""
    out = 1
    for flat, e in enumerate(mono_, start=1):
        if e:
            v = spec.var_at(flat)
            out *= (ys[v.block - 1] * t ** (v.pos - 1)) ** e
    return out


def test_parametrization_identifies_equal_normal_forms():
    rng = random.Random(3)
    for blocks in [(3, 3), (4, 3), (2, 2, 2)]:
        s = build_scroll(blocks)
        r = ring_for(s)
        for _ in range(100):
            m = tuple(rng.randrange(3) for _ in range(s.n))
            nf = r.nf_monomial(m)
            for _ in range(3):
                ys = [rng.randrange(2, 50) for _ in range(s.k)]
                t = rng.randrange(2, 50)
                assert eval_parametrized(m, s, ys, t) == eval_parametrized(nf, s, ys, t)


def test_parametrization_separates_nonzero_elements():
    # a nonzero combination of standard monomials has nonzero image
    # under the parametrization for generic integer evaluations
    rng = random.Random(11)
    s = S33
    r = ring_for(s)
    for _ in range(50):
        d = rng.randrange(1, 4)
        basis = r.standard_monomials(d)
        picks = rng.sample(basis, k=min(3, len(basis)))
        coeffs = [rng.choice([-2, -1, 1, 2, 3]) for _ in picks]
        e = r.element({m: c for m, c in zip(picks, coeffs)})
        if e.is_zero():
            continue
        seen_nonzero = False
        for _ in range(6):
            ys = [rng.randrange(2, 100) for _ in range(s.k)]
            t = rng.randrange(2, 100)
            val = sum(c * eval_parametrized(m, s, ys, t)
                      for m, c in e.terms.items())
            if val != 0:
                seen_nonzero = True
                break
        assert seen_nonzero


def test_multiplication_associative_commutative():
    rng = random.Random(5)
    for blocks in [(3, 3), (2, 2, 2), (4, 2)]:
        s = build_scroll(blocks)
        r = ring_for(s)

        def random_elem():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                d = rng.randrange(0, 3)
                m = [0] * s.n
                for _ in range(d):
                    m[rng.randrange(s.n)] += 1
                terms[tuple(m)] = rng.choice([-2, -1, 1, 2])
            return r.element(terms)

        for _ in range(40):
            a, b, c = random_elem(), random_elem(), random_elem()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_elements_of_two_scrolls_do_not_mix():
    a = ring_for(S33).element({mono(6, x1=1): 1})
    b = ring_for(build_scroll([4, 2])).element({mono(6, x1=1): 1})
    for op in (lambda: a + b, lambda: b - a, lambda: a * b, lambda: b * a):
        with pytest.raises(ValueError, match="different rings"):
            op()
    assert a != b


def test_eval_modp_matches_parametrization():
    r = ring_for(S33)
    q = 101
    e = r.element({mono(6, x1=1, x6=1): 1})
    vals = []
    ys, t = [4, 9], 5
    for flat in range(1, 7):
        v = S33.var_at(flat)
        vals.append(ys[v.block - 1] * pow(t, v.pos - 1, q) % q)
    expect = eval_parametrized(mono(6, x1=1, x6=1), S33, ys, t) % q
    assert e.eval_modp(vals, q) == expect


def test_adegree_additive_under_multiplication():
    r = ring_for(S33)
    a = r.var_elem(2)
    b = r.var_elem(5)
    prod = a * b
    expect = tuple(
        x + y for x, y in zip(a.adegree(), b.adegree())
    )
    assert prod.adegree() == expect
