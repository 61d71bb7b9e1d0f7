import itertools
import random
import tracemalloc

import pytest

import lfk

from lfk.errors import DomainError
from lfk.residues import ResidueField, default_residue_poly, irreducible_over_fp


def test_default_poly_f1_is_u():
    assert default_residue_poly(2, 1) == (0, 1)
    assert default_residue_poly(5, 1) == (0, 1)


def test_default_poly_f2_p2():
    # x^2, x^2+1, x^2+x all factor; x^2+x+1 is the first irreducible
    assert default_residue_poly(2, 2) == (1, 1, 1)


def test_default_poly_f3_p2():
    # lex order on (c0, c1, c2): first irreducible tail is (1,0,1) = x^3+x^2+1
    assert default_residue_poly(2, 3) == (1, 0, 1, 1)


def test_irreducibility_oracle_small():
    # oracle: a monic poly of degree f is irreducible iff it has no root
    # and no monic divisor of degree <= f//2; for degree 2-3 root-freeness
    # over all field elements is the whole story
    p = 3
    for tail in itertools.product(range(p), repeat=2):
        coeffs = list(tail) + [1]
        has_root = any(
            (coeffs[0] + coeffs[1] * x + x * x) % p == 0 for x in range(p)
        )
        assert irreducible_over_fp(coeffs, p) == (not has_root)


def test_reducible_poly_rejected():
    with pytest.raises(DomainError):
        ResidueField(2, 2, poly=(1, 0, 1))  # x^2+1 = (x+1)^2


def test_field_axioms_f4_by_enumeration():
    k = ResidueField(2, 2)
    els = list(k.elements())
    assert len(els) == 4
    for a in els:
        for b in els:
            assert a.mul(b) == b.mul(a)
            assert a.add(b) == b.add(a)
            for c in els:
                assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    for a in els:
        if not a.is_zero():
            assert a.mul(a.inv()) == k.one()
            assert a.pow(k.q - 1) == k.one()


def test_trace_f4():
    # k = F_4 with g^2+g+1 = 0: S(1) = 1+1 = 0, S(g) = g+g^2 = 1
    k = ResidueField(2, 2)
    g = k.gen()
    assert k.one().trace() == 0
    assert g.trace() == 1
    assert g.mul(g).trace() == 1
    assert k.zero().trace() == 0


def test_trace_f1_identity():
    k = ResidueField(5, 1)
    for a in k.elements():
        assert a.trace() == a.coords[0]


def test_trace_linear_and_surjective():
    for (p, f) in [(2, 2), (3, 2), (2, 3)]:
        k = ResidueField(p, f)
        values = set()
        for a in k.elements():
            for b in k.elements():
                assert a.add(b).trace() == (a.trace() + b.trace()) % p
            values.add(a.trace())
        assert values == set(range(p))


def test_pth_root_inverts_frobenius():
    for (p, f) in [(2, 3), (3, 2), (5, 1)]:
        k = ResidueField(p, f)
        for a in k.elements():
            assert a.pth_root().pow(p) == a
            assert a.pow(p).pth_root() == a


def test_wp_preimage_table():
    # x^p - x = a solvable iff trace(a) = 0; verify against direct search
    for (p, f) in [(2, 2), (3, 1), (3, 2)]:
        k = ResidueField(p, f)
        for a in k.elements():
            got = k.wp_preimage(a)
            want = [x for x in k.elements() if x.pow(p).sub(x) == a]
            if a.trace() == 0:
                assert got is not None and got in want
            else:
                assert got is None and not want


@pytest.mark.parametrize(
    "p, f, poly",
    [(2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None), (3, 3, None), (3, 2, (1, 0, 1))],
)
def test_wp_preimage_is_the_first_preimage(p, f, poly):
    # brute force: the lexicographically first x with x^p - x = a
    k = ResidueField(p, f, poly)
    first = {}
    for x in k.elements():
        first.setdefault(x.pow(p).sub(x), x)
    for a in k.elements():
        got = k.wp_preimage(a)
        assert got == first.get(a), (a, got)
        assert (got is None) == (a.trace() != 0), a


@pytest.mark.parametrize(
    "desc, text, window, want",
    [("Qp p=101 f=3", "2", None, (0, 9, 0, 0)), ("Fq((t)) p=101 f=3", "1+t", 3, (0, 1) + (0,) * 8)],
)
def test_first_class_over_a_large_residue_field_is_small(desc, text, window, want):
    # q = 101^3: one class reads a few digits, so it must cost memory in
    # f and log p, never a table over the q elements
    tracemalloc.start()
    try:
        ctx = lfk.parse_field(desc)
        vec = lfk.coordinates(lfk.adapted_basis(ctx, "mult", window), lfk.parse_element(ctx, text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.coords == want
    assert peak < 2 * 2**20, peak


# ---------------------------------------------------------------- polynomial oracle


def _oracle_mul(a, b, poly, p):
    """Schoolbook product of coefficient lists, reduced mod the monic poly."""
    f = len(poly) - 1
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * f - 2, f - 1, -1):
        c = prod[d]
        for i in range(f + 1):
            prod[d - f + i] -= c * poly[i]
    return tuple(c % p for c in prod[:f])


def _oracle_pow(a, n, poly, p):
    out = (1,) + (0,) * (len(poly) - 2)
    for _ in range(n):
        out = _oracle_mul(out, a, poly, p)
    return out


ORACLE_FIELDS = [(2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None), (3, 3, None), (3, 2, (1, 0, 1))]


@pytest.mark.parametrize("p,f,poly", ORACLE_FIELDS)
def test_operations_against_polynomial_arithmetic(p, f, poly):
    # every operation on every element (pair) against plain F_p[u]/(poly)
    k = ResidueField(p, f, poly)
    poly, q = k.poly, k.q
    els = list(k.elements())
    assert [x.coords for x in els] == list(itertools.product(range(p), repeat=f))
    one = (1,) + (0,) * (f - 1)
    for a in els:
        A = a.coords
        assert k.elt(A) == a and k.elt(list(A) + [0]) == a
        assert a.neg().coords == tuple(-c % p for c in A)
        for s in range(-1, p + 1):
            assert a.scale(s).coords == tuple(s * c % p for c in A)
        assert a.frobenius().coords == _oracle_pow(A, p, poly, p)
        assert a.pth_root().frobenius() == a
        for n in (0, 1, 2, p, q - 2, q - 1, q + 3):
            assert a.pow(n).coords == _oracle_pow(A, n, poly, p)
        frob, tr = A, [0] * f
        for _ in range(f):
            tr = [x + y for x, y in zip(tr, frob)]
            frob = _oracle_pow(frob, p, poly, p)
        assert tuple(c % p for c in tr[1:]) == (0,) * (f - 1)
        assert a.trace() == tr[0] % p
        for b in els:
            B = b.coords
            assert a.add(b).coords == tuple((x + y) % p for x, y in zip(A, B))
            assert a.sub(b).coords == tuple((x - y) % p for x, y in zip(A, B))
            assert a.mul(b).coords == _oracle_mul(A, B, poly, p)
        if a.is_zero():
            for n in (-1, -2):
                with pytest.raises(DomainError):
                    a.pow(n)
            with pytest.raises(DomainError):
                a.inv()
        else:
            assert _oracle_mul(A, a.inv().coords, poly, p) == one
            assert a.pow(-2).coords == _oracle_pow(a.inv().coords, 2, poly, p)


@pytest.mark.parametrize("p, f", [(101, 3), (2, 5)])
def test_wide_slots_against_polynomial_arithmetic(p, f):
    # the exhaustive fields above all fit a digit's slots in one byte; these
    # two need several, so seeded samples are checked against the oracle
    k = ResidueField(p, f)
    poly, one, rng = k.poly, k.one(), random.Random(p ** f)
    assert k.layout.store.b > 1
    samples = [(0,) * f, one.coords] + [tuple(rng.randrange(p) for _ in range(f)) for _ in range(100)]
    for A, B in zip(samples, reversed(samples)):
        a, b = k.elt(A), k.elt(B)
        assert a.coords == A
        assert a.mul(b).coords == _oracle_mul(A, B, poly, p)
        assert a.add(b).coords == tuple((x + y) % p for x, y in zip(A, B))
        assert a.sub(b).coords == tuple((x - y) % p for x, y in zip(A, B))
        assert a.neg().coords == tuple(-c % p for c in A)
        for s in (-1, 0, 1, p):
            assert a.scale(s).coords == tuple(s * c % p for c in A)
        if not a.is_zero():
            assert a.mul(a.inv()) == one
        assert a.frobenius().coords == _oracle_pow(A, p, poly, p)
        assert a.pth_root().frobenius() == a
        frob, tr = A, [0] * f
        for _ in range(f):
            tr = [x + y for x, y in zip(tr, frob)]
            frob = _oracle_pow(frob, p, poly, p)
        assert tuple(c % p for c in tr) == (a.trace(),) + (0,) * (f - 1)


def test_u_of_order_4_over_f3():
    # over F_3, u^2 + 1 is irreducible but u has order 4, not 8
    k = ResidueField(3, 2, poly=(1, 0, 1))
    u = k.elt([0, 1])
    assert _oracle_pow(u.coords, 4, k.poly, 3) == (1, 0)
    assert u.pow(4) == k.one() and u.pow(2) != k.one()


def test_elements_are_values_per_field():
    k = ResidueField(2, 3)
    assert k.elt([1, 0, 1]) == k.elt((1, 0, 1)) == k.elt([1, 0, 1, 0])
    assert k.elt(3) == k.one()
    assert hash(k.elt([1, 0, 1])) == hash(k.elt((1, 0, 1, 0)))
    other = ResidueField(2, 3)
    assert other.elt([1, 1]) == k.elt([1, 1]) and other.elt([1, 1]).field is not k
    assert hash(other.elt([1, 1])) == hash(k.elt([1, 1]))
    # an element of an equal field is accepted as is; of another field, refused
    assert k.elt(other.elt([1, 1])) == k.elt([1, 1])
    # equal codes in unequal fields are unequal elements
    assert ResidueField(3, 1).one() != k.one()
    with pytest.raises(DomainError):
        k.elt(ResidueField(3, 1).one())
