"""The Q_2 Hilbert symbol oracle: its classical values and laws, and its
agreement with the kernel pairing on every pair of Q_2 square classes."""

import random

import pytest

from lfk.errors import DomainError, UnsupportedCaseError
from lfk.local_arith import parse_field
from lfk.pairings_verifiers import line_catalog, pairs_trivially

from hilbert_q2 import hilbert_symbol_q2


@pytest.fixture(scope="module")
def q2():
    return parse_field("Qp p=2 f=1")


def test_hilbert_classical_values(q2):
    f = q2.from_int
    assert hilbert_symbol_q2(f(-1), f(-1)) == -1
    assert hilbert_symbol_q2(f(2), f(5)) == -1
    assert hilbert_symbol_q2(f(5), f(2)) == -1
    assert hilbert_symbol_q2(f(2), f(7)) == 1   # 7 = 9 - 2 = N(3 + sqrt(2))
    assert hilbert_symbol_q2(f(3), f(3)) == -1
    assert hilbert_symbol_q2(f(5), f(-1)) == 1


def test_hilbert_a_minus_a(q2):
    # (a, -a) = 1 always: -a = N(sqrt(a)) up to squares
    for a in (2, 3, 5, 6, 7, 10, -1, -2, -6):
        x = q2.from_int(a)
        assert hilbert_symbol_q2(x, x.neg()) == 1


def test_hilbert_symmetry_and_bimultiplicativity(q2):
    vals = [-2, -1, 2, 3, 5, 6, 7, 10, 14, 15]
    elems = {a: q2.from_int(a) for a in vals}
    for a in vals:
        for b in vals:
            assert hilbert_symbol_q2(elems[a], elems[b]) == hilbert_symbol_q2(
                elems[b], elems[a]
            )
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        lhs = hilbert_symbol_q2(q2.from_int(a * b), elems[c])
        assert lhs == hilbert_symbol_q2(elems[a], elems[c]) * hilbert_symbol_q2(
            elems[b], elems[c]
        )


def test_hilbert_agrees_with_kernel_pairing(q2):
    cat = line_catalog(q2)
    assert len(cat) == 7
    for a in cat:
        for b in cat:
            classical = hilbert_symbol_q2(a.a, b.a) == 1
            assert pairs_trivially(a, b.a) == classical


def test_hilbert_rejects_other_fields():
    q3 = parse_field("Qp p=3 f=1")
    with pytest.raises(UnsupportedCaseError):
        hilbert_symbol_q2(q3.from_int(2), q3.from_int(3))


def test_hilbert_rejects_zero(q2):
    with pytest.raises(DomainError):
        hilbert_symbol_q2(q2.zero(), q2.from_int(3))
