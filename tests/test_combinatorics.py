import pytest
from hypothesis import given, settings, strategies as st

from akzeta.combinatorics import (Composition, binomial, dual,
                                  weak_compositions, m_coeff,
                                  admissible_compositions)
from akzeta.errors import DomainError


def test_parse_and_str_roundtrip():
    c = Composition.parse("1,2,2,4")
    assert c.parts == (1, 2, 2, 4)
    assert str(c) == "1,2,2,4"
    assert Composition.parse(str(c)) == c


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        Composition.parse("1,a,2")
    with pytest.raises(DomainError):
        Composition.parse("")
    with pytest.raises(DomainError):
        Composition.of(0, 2)


def test_weight_depth_admissible():
    c = Composition.of(1, 2, 3)
    assert c.weight == 6
    assert c.depth == 3
    assert c.admissible
    assert not Composition.of(2, 1).admissible


def test_alpha_roundtrip():
    c = Composition.of(1, 2, 4)
    assert c.alpha() == (1, 2, 3)
    assert Composition.from_alpha(c.alpha()) == c
    with pytest.raises(DomainError):
        Composition.of(1, 1).alpha()


def test_dual_known_pairs():
    assert dual(Composition.of(1, 2)) == Composition.of(3)
    assert dual(Composition.of(3)) == Composition.of(1, 2)
    assert dual(Composition.of(2)) == Composition.of(2)
    # sum formula instance: the depth-3 all-low tuple pairs with the single 4
    assert dual(Composition.of(1, 1, 2)) == Composition.of(4)
    assert dual(Composition.of(2, 2)) == Composition.of(2, 2)  # self-dual


def test_dual_rejects_non_admissible():
    with pytest.raises(DomainError):
        dual(Composition.of(2, 1))


@st.composite
def admissible(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    parts = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n - 1)]
    parts.append(draw(st.integers(min_value=2, max_value=5)))
    return Composition(tuple(parts))


@settings(max_examples=80, deadline=None)
@given(admissible())
def test_dual_involution_and_invariants(c):
    d = dual(c)
    assert dual(d) == c
    assert d.weight == c.weight
    assert c.depth + d.depth == c.weight
    assert d.admissible


def test_weak_compositions_count_and_order():
    ws = list(weak_compositions(3, 2))
    assert ws == [(0, 3), (1, 2), (2, 1), (3, 0)]
    for m, k in [(0, 1), (4, 3), (5, 2), (3, 4)]:
        assert len(list(weak_compositions(m, k))) == binomial(m + k - 1, k - 1)


def test_weak_composition_validation():
    with pytest.raises(DomainError):
        list(weak_compositions(-1, 2))


def test_m_coeff():
    # prod C(a_j + d_j - 1, d_j)
    assert m_coeff((1, 2), (0, 0)) == 1
    assert m_coeff((1, 2), (1, 1)) == 1 * 2
    assert m_coeff((3,), (2,)) == binomial(4, 2)
    with pytest.raises(DomainError):
        m_coeff((1, 2), (1,))


def test_admissible_compositions_enumeration():
    got = list(admissible_compositions(4))
    # weight 2: (2); weight 3: (3),(1,2); weight 4: (4),(1,3),(2,2),(1,1,2)
    assert len(got) == 7
    assert all(c.admissible for c in got)
    assert len(set(got)) == 7
    counts = {}
    for c in got:
        counts[c.weight] = counts.get(c.weight, 0) + 1
    assert counts == {2: 1, 3: 2, 4: 4}
