import random
from itertools import combinations

import pytest

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
    with pytest.raises(ValueError):
        PrimitiveSet([2, 4])  # no 1
    with pytest.raises(ValueError):
        PrimitiveSet([0, 1])
    with pytest.raises(ValueError):
        PrimitiveSet([])


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
