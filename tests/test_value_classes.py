"""The value classes' contract: construction, equality, hash, repr, freezing.

Callers rely on each of these: a ScrollSpec is an lru_cache key, reports
and tables are compared and printed, and the closed-form results are
read-only.
"""
import copy
import pickle

import pytest

from scrollres.checks import CheckReport, MinorCertificate, RankReport
from scrollres.oracle import BettiTable
from scrollres.resolution import Resolution, SparseMatrixR
from scrollres.ring import ring_for
from scrollres.scrolls import Binomial, ScrollSpec, VarIndex, build_scroll, scroll_matrix
from scrollres.series import FaceVector, IntSeries, RationalForm

S33 = build_scroll([3, 3])


def frozen_values():
    return [ScrollSpec((3, 3)), VarIndex(1, 2, 2), Binomial((1, 0), (0, 1)),
            FaceVector((1, 5, 4)), RationalForm((1,), (1, -1)), IntSeries((1, 1), 1)]


def mutable_values():
    return [CheckReport("complex", "(3,3)", True),
            RankReport("phi1", 3, 3, 5, 1, 32003, 0, [7]),
            MinorCertificate("phi0", 1, [1], [2], None, 1, "failed"),
            Resolution(S33, "field", [], [1]),
            BettiTable(32003)]


REPRS = [
    "ScrollSpec(blocks=(3, 3))",
    "VarIndex(block=1, pos=2, flat=2)",
    "Binomial(plus=(1, 0), minus=(0, 1))",
    "FaceVector(counts=(1, 5, 4))",
    "RationalForm(num=(1,), den=(1, -1))",
    "IntSeries(coefficients=(1, 1), order=1)",
    "CheckReport(name='complex', target='(3,3)', ok=True, details={}, modulus=None, seed=None)",
    "RankReport(matrix_id='phi1', claimed=3, probe=3, trials=5, probes_run=1, "
    "modulus=32003, seed=0, trial_seeds=[7])",
    "MinorCertificate(target='phi0', var_index=1, rows=[1], cols=[2], minor=None, "
    "expected_power=1, status='failed', readings=[])",
    "Resolution(spec=ScrollSpec(blocks=(3, 3)), target='field', steps=[], ranks=[1], "
    "provenance=[])",
    "BettiTable(modulus=32003, entries={}, imax=0)",
]


def test_reprs():
    assert [repr(v) for v in frozen_values() + mutable_values()] == REPRS


def test_equality_is_by_class_and_fields():
    for a, b in zip(frozen_values() + mutable_values(), frozen_values() + mutable_values()):
        assert a is not b and a == b and not a != b
    spec = ScrollSpec((3, 3))
    assert spec != ((3, 3),) and ((3, 3),) != spec
    assert spec != ScrollSpec((3, 4))
    assert VarIndex(1, 2, 2) != VarIndex(1, 2, 3)
    assert CheckReport("a", "b", True) != CheckReport("a", "b", False)
    assert CheckReport("a", "b", True, {}, 3) != CheckReport("a", "b", True, {}, 5)


def test_frozen_values_hash_as_their_field_tuple():
    for value, fields in zip(frozen_values(), [((3, 3),), (1, 2, 2), ((1, 0), (0, 1)),
                                               ((1, 5, 4),), ((1,), (1, -1)), ((1, 1), 1)]):
        assert hash(value) == hash(fields)
    assert len({ScrollSpec((3, 3)), ScrollSpec((3, 3)), ((3, 3),)}) == 2
    # an equal spec built afresh hits the cache entry of the first
    assert scroll_matrix(ScrollSpec((3, 3))) is scroll_matrix(S33)


def test_mutable_values_are_unhashable_and_assignable():
    for value in mutable_values():
        with pytest.raises(TypeError):
            hash(value)
    report = CheckReport("complex", "(3,3)", True)
    report.ok = False
    report.details["step"] = 2
    assert report == CheckReport("complex", "(3,3)", False, {"step": 2})


def test_frozen_values_refuse_assignment_and_deletion():
    names = ["blocks", "block", "plus", "counts", "num", "coefficients"]
    for value, name in zip(frozen_values(), names):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert getattr(value, name) is before


def test_defaults_are_fresh_per_instance():
    for make, name in [(lambda: CheckReport("a", "b", True), "details"),
                       (lambda: Resolution(S33, "field", [], [1]), "provenance"),
                       (lambda: MinorCertificate("phi0", 1, [], [], None, 1, "failed"),
                        "readings"),
                       (lambda: BettiTable(3), "entries")]:
        first, second = getattr(make(), name), getattr(make(), name)
        assert not first and first == second and first is not second


def test_keyword_construction_and_arity():
    assert ScrollSpec(blocks=(3, 3)) == S33
    assert CheckReport("a", "b", ok=True, seed=4).seed == 4
    assert BettiTable(3, imax=2).imax == 2
    with pytest.raises(TypeError):
        ScrollSpec()
    with pytest.raises(TypeError):
        VarIndex(1, 2)
    with pytest.raises(TypeError):
        CheckReport("a", "b", True, colour="red")


def test_validation():
    with pytest.raises(ValueError, match="unit constant term"):
        RationalForm((1,), (0, 1))
    with pytest.raises(ValueError, match="unit constant term"):
        RationalForm((1,), ())
    with pytest.raises(ValueError, match="coefficient count"):
        IntSeries((1, 2), 3)
    ring = ring_for(S33)
    with pytest.raises(ValueError, match="steps do not chain"):
        Resolution(S33, "field", [SparseMatrixR(ring, 1, 2), SparseMatrixR(ring, 3, 1)], [1, 2, 1])


def test_copy_and_pickle_round_trip():
    for value in frozen_values() + mutable_values():
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value
