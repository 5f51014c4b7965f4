from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadicsq.dyadic import (
    DEFAULT_MAX_DEPTH,
    DepthOverflowError,
    DyadicInterval,
    children,
    spine,
)


def shell(n):
    """J_n = [2^-n, 2^(1-n)), the right child of I_{n-1}."""
    return DyadicInterval(n, 1)


def _measure(q):
    """The exact length of q."""
    return q.right - q.left


@st.composite
def intervals(draw, max_level=24):
    level = draw(st.integers(0, max_level))
    index = draw(st.integers(0, 2 ** level - 1))
    return DyadicInterval(level, index)


def test_unit_interval_children():
    assert children(DyadicInterval(0, 0)) == (DyadicInterval(1, 0), DyadicInterval(1, 1))


def test_quarter_interval_children():
    left, right = children(DyadicInterval(2, 1))
    assert (left, right) == (DyadicInterval(3, 2), DyadicInterval(3, 3))
    assert left.left == Fraction(1, 4) and right.right == Fraction(1, 2)


def test_spine_children_are_spine_and_shell():
    for k in range(0, 30):
        assert children(spine(k)) == (spine(k + 1), shell(k + 1))


@given(intervals())
def test_children_partition_exactly(q):
    left, right = children(q)
    assert left.left == q.left
    assert left.right == right.left
    assert right.right == q.right
    assert _measure(left) + _measure(right) == _measure(q)


def test_shell_examples():
    assert (shell(1).left, shell(1).right) == (Fraction(1, 2), Fraction(1, 1))
    assert (shell(3).left, shell(3).right) == (Fraction(1, 8), Fraction(1, 4))
    assert children(spine(9))[1] == shell(10)


def test_shell_union_spine():
    for n in range(1, 40):
        assert shell(n).left == spine(n).right
        assert shell(n).right == spine(n - 1).right
        assert _measure(shell(n)) + _measure(spine(n)) == _measure(spine(n - 1))


def test_endpoints_exact():
    for q, want in ((DyadicInterval(1, 1), (Fraction(1, 2), Fraction(1))),
                    (DyadicInterval(3, 5), (Fraction(5, 8), Fraction(6, 8))),
                    (spine(17), (Fraction(0), Fraction(1, 2 ** 17)))):
        assert (q.left, q.right) == want


@given(st.integers(0, 12))
def test_level_partitions_unit_interval(n):
    ivs = [DyadicInterval(n, k) for k in range(2 ** n)]
    assert len(ivs) == 2 ** n
    assert ivs[0].left == 0 and ivs[-1].right == 1
    for a, b in zip(ivs, ivs[1:]):
        assert a.right == b.left


def test_invalid_construction():
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)
    with pytest.raises(ValueError):
        spine(-1)


def test_depth_overflow():
    q = DyadicInterval(DEFAULT_MAX_DEPTH, 0)
    with pytest.raises(DepthOverflowError):
        children(q)
    # spine indices may exceed tree depth (they never enumerate leaves)
    assert _measure(spine(DEFAULT_MAX_DEPTH + 40)) == Fraction(1, 2 ** 100)
