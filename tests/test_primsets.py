import copy
import pickle
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fourier_hadamard import numtheory
from fourier_hadamard.graphs import CompatGraph
from fourier_hadamard.hadamard import Decision, SubmatrixSpec, SubmatrixVerdict
from fourier_hadamard.numtheory import modulus_context
from fourier_hadamard.primsets import (
    PrimitiveSet,
    ResidueSet,
    difference_set,
    normalize,
    primitive_set,
    scale,
    shift,
    size_divisor,
)
from fourier_hadamard.sweeps import compprop_violation

import primitive_set_reference as reference


def _records():
    """(record, an equal record, one differing in a field, repr) for each
    record class."""
    two = PrimitiveSet((1, 2))
    pair = ResidueSet(2, (0, 1))

    def graph(rep):
        return CompatGraph(2, 2, frozenset({two}), frozenset({(two, two)}), {two: rep})

    return [
        (ResidueSet(6, (3, 0)), ResidueSet(6, (0, 3)), ResidueSet(6, (0, 2)),
         "ResidueSet(modulus=6, elements=(0, 3))"),
        (SubmatrixSpec.of(4, (0, 1), (0, 2)), SubmatrixSpec.of(4, (1, 0), (0, 2)),
         SubmatrixSpec.of(4, (0, 1), (0, 3)),
         "SubmatrixSpec(m=4, j=ResidueSet(modulus=4, elements=(0, 1)), "
         "k=ResidueSet(modulus=4, elements=(0, 2)))"),
        (SubmatrixVerdict(Decision.HADAMARD, "exact"),
         SubmatrixVerdict(Decision.HADAMARD, "exact", None),
         SubmatrixVerdict(Decision.NOT_HADAMARD, "exact"),
         "SubmatrixVerdict(decision=<Decision.HADAMARD: 'hadamard'>, rule='exact', "
         "witness=None)"),
        (graph(pair), graph(ResidueSet(2, (1, 0))), graph(ResidueSet(2, (1,))),
         "CompatGraph(m=2, n=2, vertices=frozenset({PrimitiveSet([1, 2])}), "
         "edges=frozenset({(PrimitiveSet([1, 2]), PrimitiveSet([1, 2]))}), "
         "representatives={PrimitiveSet([1, 2]): ResidueSet(modulus=2, elements=(0, 1))})"),
    ]


FIELDS = {
    "ResidueSet": ("modulus", "elements"),
    "SubmatrixSpec": ("m", "j", "k"),
    "SubmatrixVerdict": ("decision", "rule", "witness"),
    "CompatGraph": ("m", "n", "vertices", "edges", "representatives"),
}


@pytest.mark.parametrize("record, equal, other, text", _records())
def test_records_are_read_only_values(record, equal, other, text):
    assert repr(record) == text
    assert record == equal and record is not equal
    assert record != other and not record == other
    # equal fields in another class do not make an equal record
    fields = FIELDS[type(record).__name__]
    assert record != tuple(getattr(record, f) for f in fields)
    if isinstance(record, CompatGraph):
        with pytest.raises(TypeError):
            hash(record)  # its representatives are a dict
    else:
        assert hash(record) == hash(equal)
        assert len({record, equal, other}) == 2
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def random_residue_set(rng, m_max=200, size_max=6):
    m = rng.randint(1, m_max)
    size = rng.randint(1, min(size_max, m))
    return ResidueSet(m, tuple(rng.sample(range(m), size)))


def test_residue_set_validation():
    x = ResidueSet(10, (8, 0, 2))
    assert x.elements == (0, 2, 8)
    assert len(x) == 3
    with pytest.raises(ValueError):
        ResidueSet(10, ())
    with pytest.raises(ValueError):
        ResidueSet(10, (1, 1))
    with pytest.raises(ValueError):
        ResidueSet(10, (0, 10))
    with pytest.raises(ValueError):
        ResidueSet(10, (-1, 3))
    with pytest.raises(ValueError):
        ResidueSet(0, (0,))


def test_primitive_set_validation():
    p = PrimitiveSet([2, 1, 2])
    assert p.elements == (1, 2)
    assert p.without_one() == (2,)
    with pytest.raises(ValueError, match="^a primitive set always contains 1$"):
        PrimitiveSet([2, 4])
    with pytest.raises(ValueError, match="^primitive set elements must be positive integers$"):
        PrimitiveSet([0, 1])
    with pytest.raises(ValueError, match="^primitive set elements must be positive integers$"):
        PrimitiveSet([])


def test_primitive_set_is_a_tuple():
    p = PrimitiveSet((4, 1, 2))
    assert p == (1, 2, 4) and hash(p) == hash((1, 2, 4))
    assert isinstance(p, tuple) and len(p) == 3 and 4 in p and list(p) == [1, 2, 4]
    assert PrimitiveSet((1, 2)) < p < PrimitiveSet((1, 3))
    # plain tuples out, so witnesses and exports print as they always did
    assert type(p.elements) is tuple and type(p.without_one()) is tuple
    assert str(p) == "{1,2,4}" and repr(p) == "PrimitiveSet([1, 2, 4])"


def test_difference_set_examples():
    x = ResidueSet(6000, (0, 5, 375))
    assert difference_set(x) == {0, 5, -5, 370, -370, 375, -375}
    assert difference_set(ResidueSet(1, (0,))) == {0}
    assert difference_set(ResidueSet(21, (0, 7, 14))) == {0, 7, -7, 14, -14}


def test_difference_set_properties():
    rng = random.Random(10)
    for _ in range(200):
        x = random_residue_set(rng)
        d = difference_set(x)
        assert 0 in d
        assert d == {-v for v in d}


def test_primitive_set_examples():
    assert primitive_set(ResidueSet(6000, (0, 5, 375))) == PrimitiveSet([1, 16, 600, 1200])
    assert primitive_set(ResidueSet(10, (0, 1, 7, 8, 9))) == PrimitiveSet([1, 5, 10])
    assert primitive_set(ResidueSet(12, (0, 4, 8))) == PrimitiveSet([1, 3])
    assert primitive_set(ResidueSet(12, (0, 1, 6, 9))) == PrimitiveSet([1, 2, 3, 4, 12])
    assert primitive_set(ResidueSet(21, (0, 2, 16))) == PrimitiveSet([1, 3, 21])


def test_primitive_set_properties():
    rng = random.Random(11)
    for _ in range(300):
        x = random_residue_set(rng)
        p = primitive_set(x)
        assert 1 in p
        assert all(x.modulus % s == 0 for s in p)
        if len(x) == 1:
            assert p == PrimitiveSet([1])


def test_size_divisor_examples():
    assert size_divisor(primitive_set(ResidueSet(6000, (0, 5, 375)))) == 2
    assert size_divisor(primitive_set(ResidueSet(6, (0, 4)))) == 3
    assert size_divisor(primitive_set(ResidueSet(12, (0, 1, 6, 9)))) == 12
    assert size_divisor(primitive_set(ResidueSet(5, (0,)))) == 1


def test_shift_examples():
    assert shift(ResidueSet(6000, (0, 5, 375)), 10).elements == (10, 15, 385)
    assert shift(ResidueSet(6, (0, 4)), -4).elements == (0, 2)


def test_shift_invariance_of_primitive_sets():
    rng = random.Random(12)
    for _ in range(100):
        x = random_residue_set(rng)
        v = rng.randint(-1000, 1000)
        assert primitive_set(shift(x, v)) == primitive_set(x)


def test_scale_examples():
    y = scale(ResidueSet(6, (0, 4)), 2)
    assert y.modulus == 12 and y.elements == (0, 8)
    y = scale(ResidueSet(1, (0,)), 5)
    assert y.modulus == 5 and y.elements == (0,)
    with pytest.raises(ValueError):
        scale(ResidueSet(6, (0, 4)), 0)


def test_scale_invariance_of_primitive_sets():
    rng = random.Random(13)
    for _ in range(100):
        x = random_residue_set(rng)
        v = rng.randint(1, 9)
        assert primitive_set(scale(x, v)) == primitive_set(x)


def test_normalize_examples():
    assert normalize(ResidueSet(6000, (10, 15, 385))).elements == (0, 5, 375)
    assert normalize(ResidueSet(1, (0,))).elements == (0,)
    assert normalize(ResidueSet(8, (3, 5))).elements == (0, 2)


def test_normalize_is_least_zero_containing_shift():
    # brute force over every shift of the set, keeping those containing 0
    rng = random.Random(14)
    for _ in range(100):
        x = random_residue_set(rng, m_max=40, size_max=5)
        m = x.modulus
        zero_shifts = []
        for v in range(m):
            shifted = tuple(sorted((e + v) % m for e in x.elements))
            if shifted[0] == 0:
                zero_shifts.append(shifted)
        assert normalize(x).elements == min(zero_shifts)


def test_normalize_idempotent_and_shift_invariant():
    rng = random.Random(15)
    for _ in range(100):
        x = random_residue_set(rng, m_max=60)
        v = rng.randint(-100, 100)
        canon = normalize(x)
        assert normalize(canon) == canon
        assert normalize(shift(x, v)) == canon


def test_compprop_small_exhaustive():
    # p-adic bounds tying difference sets to primitive sets; the full-scale
    # sweep runs in the acceptance suite
    for m in range(2, 13):
        for size in (2, 3):
            if size > m:
                continue
            for elems in combinations(range(m), size):
                assert compprop_violation(ResidueSet(m, elems)) is None


def assert_matches_reference(xs):
    """primitive_set on the residue sets xs, all of one modulus, agrees with
    the per-call reference in elements, printing, hashing, equality and
    order, and equal sets are one interned object."""
    got = [primitive_set(x) for x in xs]
    ref = [reference.primitive_set(x) for x in xs]
    objects = {}
    for x, g, r in zip(xs, got, ref):
        assert g.elements == r.elements, x
        assert (str(g), repr(g), hash(g)) == (str(r), repr(r), hash(r)), x
        assert objects.setdefault(r, g) is g, x
    assert len(set(got)) == len(objects)
    assert [g.elements for g in sorted(set(got))] == [r.elements for r in sorted(objects)]


def test_primitive_set_matches_reference_exhaustive():
    # every subset for m <= 16, then every 0-containing subset of size at
    # most 4 for m <= 40
    for m in range(1, 17):
        assert_matches_reference(
            [ResidueSet(m, t) for n in range(1, m + 1) for t in combinations(range(m), n)]
        )
    for m in range(17, 41):
        assert_matches_reference(
            [ResidueSet(m, (0,) + t) for n in range(4) for t in combinations(range(1, m), n)]
        )


@st.composite
def selections_of_one_modulus(draw):
    """Up to four selections of at most 8 residues for one modulus up to
    10^18: any modulus, or a product of small prime powers, which has many
    divisors and so many distinct orders."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 10**18))
    else:
        m = 1
        for p in (2, 3, 5, 7, 11, 13):
            m *= p ** draw(st.integers(0, 6))
    n_max = min(8, m)
    sizes = st.integers(1, n_max)
    return [
        ResidueSet(m, tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True))))
        for n in draw(st.lists(sizes, min_size=1, max_size=4))
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(selections_of_one_modulus())
def test_primitive_set_matches_reference_random(xs):
    assert_matches_reference(xs)


def test_primitive_set_never_factorizes(monkeypatch):
    def refuse(m):
        raise AssertionError(f"factorize({m}) called")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    modulus_context.cache_clear()
    m = 2**89 - 1  # prime: trial division would never finish
    start = time.perf_counter()
    p = primitive_set(ResidueSet(m, (0, 1, 5)))
    assert time.perf_counter() - start < 1
    assert p == PrimitiveSet((1, m))


def test_modulus_memo_is_bounded():
    bound = modulus_context.cache_info().maxsize
    assert bound is not None
    for m in range(2, bound + 100):
        primitive_set(ResidueSet(m, (0, 1)))
    assert modulus_context.cache_info().currsize <= bound
