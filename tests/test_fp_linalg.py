import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lfk.errors import MalformedInputError
from lfk.fp_linalg import (
    FpSubspace,
    FpVector,
    extend,
    member,
    perp,
    rref,
    solve,
)


# ---------------------------------------------------------------- oracles

def identity_space(p, n):
    """All of F_p^n, with the unit vectors as its basis."""
    return FpSubspace(p, n, tuple(tuple(int(j == i) for j in range(n)) for i in range(n)))


def span_enumerate(rows, p, n):
    """All vectors in the span, by brute force over coefficient tuples."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            v = [(a + c * b) % p for a, b in zip(v, row)]
        out.add(tuple(v))
    return out


def rank_by_elimination_oracle(rows, p):
    """Rank via an independent, destructive forward elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] % p:
                f = (rows[i][col] * pow(rows[rank][col], -1, p)) % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def gauss_jordan_oracle(rows, p):
    """Batch Gauss-Jordan over F_p: (reduced rows, pivot columns).

    Column by column it swaps a pivot row up, scales it to 1 and clears the
    column in every other row, an elimination independent of the
    row-at-a-time extend that rref, solve and perp run on.
    """
    rows = [[x % p for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(inv * x) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in rows[:r]], pivots


def random_rows(data, p, n, nrows):
    return [
        tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        for _ in range(nrows)
    ]


# ---------------------------------------------------------------- rref

def test_rref_f2_three_rows_rank_two():
    # span{(1,1,0),(0,1,1),(1,0,1)} over F_2 has rank 2; oracle: enumerate it.
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    sp = rref([FpVector(2, r) for r in rows])
    assert sp.dim() == 2
    assert sp.basis == ((1, 0, 1), (0, 1, 1))
    assert span_enumerate(rows, 2, 3) == span_enumerate(sp.basis, 2, 3)


def test_rref_empty_rows():
    sp = rref([], p=3, ambient_dim=4)
    assert sp.dim() == 0
    assert sp.ambient_dim == 4


def test_rref_duplicate_row():
    sp = rref([FpVector(2, (1, 0)), FpVector(2, (1, 0))])
    assert sp.dim() == 1
    assert sp.basis == ((1, 0),)


def test_rref_idempotent():
    rows = [FpVector(3, (1, 2, 0)), FpVector(3, (2, 1, 1)), FpVector(3, (0, 0, 2))]
    sp = rref(rows)
    again = rref([FpVector(3, row) for row in sp.basis])
    assert sp == again


def test_rref_mixed_moduli_rejected():
    with pytest.raises(MalformedInputError):
        rref([FpVector(2, (1, 0)), FpVector(3, (1, 0))])
    with pytest.raises(MalformedInputError):
        rref([FpVector(2, (1, 0)), FpVector(2, (1, 0, 1))])


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_rref_rank_matches_elimination_oracle(p, n, data):
    nrows = data.draw(st.integers(min_value=0, max_value=6))
    rows = [
        data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        for _ in range(nrows)
    ]
    sp = rref([FpVector(p, r) for r in rows], p=p, ambient_dim=n)
    assert sp.dim() == rank_by_elimination_oracle(rows, p)
    for r in rows:
        assert member(sp, FpVector(p, r))


# ---------------------------------------------------------------- extend

@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_extend_row_by_row_is_the_rref_of_all_rows(p, n, data):
    # canonical form: adding rows one at a time gives, after every row, the
    # very rows and pivots that batch Gauss-Jordan gives on all of them
    nrows = data.draw(st.integers(min_value=0, max_value=8))
    rows = [FpVector(p, r) for r in random_rows(data, p, n, nrows)]
    sp = rref([], p=p, ambient_dim=n)
    for k, row in enumerate(rows):
        grown = extend(sp, row)
        assert (grown is sp) == member(sp, row)
        sp = grown
        want, pivots = gauss_jordan_oracle([r.coords for r in rows[: k + 1]], p)
        assert sp.basis == tuple(want) and sp.pivots == tuple(pivots)
        assert rref(rows[: k + 1]).basis == tuple(want)


def test_extend_shape_check():
    sp = rref([FpVector(3, (1, 0))])
    with pytest.raises(MalformedInputError):
        extend(sp, FpVector(3, (1, 0, 0)))
    with pytest.raises(MalformedInputError):
        extend(sp, FpVector(2, (0, 1)))


# ---------------------------------------------------------------- member

def test_member_enumerated():
    sp = rref([FpVector(2, (1, 0, 1)), FpVector(2, (0, 1, 1))])
    inside = span_enumerate(sp.basis, 2, 3)
    for v in itertools.product(range(2), repeat=3):
        assert member(sp, FpVector(2, v)) == (v in inside)
    assert member(sp, FpVector(2, (1, 1, 0)))


def test_member_zero_vector_always_in():
    sp = rref([FpVector(5, (1, 2))])
    assert member(sp, FpVector(5, (0, 0)))


def test_member_pivot_mismatch():
    sp = rref([FpVector(2, (1, 0))])
    assert not member(sp, FpVector(2, (0, 1)))


def test_member_shape_check():
    sp = rref([FpVector(2, (1, 0))])
    with pytest.raises(MalformedInputError):
        member(sp, FpVector(2, (1, 0, 0)))


# ---------------------------------------------------------------- perp

def test_perp_zero_rows():
    full = identity_space(2, 3)
    rows = [[0, 0, 0], [0, 0, 0]]
    assert perp(rows, 2, 3) == full


def test_perp_identity_rows_nondegenerate():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert perp(rows, 2, 3).dim() == 0


def test_perp_single_row_is_hyperplane():
    # one nonzero row c: perp = {v : v·c = 0}, oracle by enumeration
    c = (1, 1, 0)
    got = perp([c], 2, 3)
    want = {
        v
        for v in itertools.product(range(2), repeat=3)
        if sum(a * b for a, b in zip(v, c)) % 2 == 0
    }
    assert span_enumerate(got.basis, 2, 3) == want


def test_perp_shape_check():
    with pytest.raises(MalformedInputError):
        perp([[1, 0], [1]], 2, 2)
    with pytest.raises(MalformedInputError):
        perp([[1, 0, 1]], 2, 2)


def test_perp_random_against_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice([2, 3])
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        got = perp(rows, p, n)
        want = {
            v
            for v in itertools.product(range(p), repeat=n)
            if all(sum(a * b for a, b in zip(v, row)) % p == 0 for row in rows)
        }
        assert span_enumerate(got.basis, p, n) == want


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_perp_of_perp_is_the_row_space(p, n, data):
    # the basis perp reads off is already canonical, and the complement of
    # the complement is the row space
    rows = random_rows(data, p, n, data.draw(st.integers(min_value=0, max_value=6)))
    comp = perp(rows, p, n)
    want, pivots = gauss_jordan_oracle(comp.basis, p)
    assert comp.basis == tuple(want) and comp.pivots == tuple(pivots)
    assert comp.dim() == n - rank_by_elimination_oracle(rows, p)
    assert perp(comp.basis, p, n) == rref([FpVector(p, r) for r in rows], p=p, ambient_dim=n)


# ---------------------------------------------------------------- solve

def test_solve_random_against_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        m = rng.randint(0, 3)
        cols = [FpVector(p, tuple(rng.randrange(p) for _ in range(n))) for _ in range(m)]
        target = FpVector(p, tuple(rng.randrange(p) for _ in range(n)))
        got = solve(cols, target)
        brute = None
        for x in itertools.product(range(p), repeat=m):
            acc = [0] * n
            for c, col in zip(x, cols):
                acc = [(a + c * b) % p for a, b in zip(acc, col.coords)]
            if tuple(acc) == target.coords:
                brute = x
                break
        if brute is None:
            assert got is None
        else:
            assert got is not None
            acc = [0] * n
            for c, col in zip(got, cols):
                acc = [(a + c * b) % p for a, b in zip(acc, col.coords)]
            assert tuple(a % p for a in acc) == target.coords


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(min_value=0, max_value=5),
    m=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_solve_is_the_gauss_jordan_solution_with_free_coordinates_zero(p, n, m, data):
    cols = [FpVector(p, r) for r in random_rows(data, p, n, m)]
    target = FpVector(p, data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    augmented = [[col.coords[i] for col in cols] + [target.coords[i]] for i in range(n)]
    reduced, pivots = gauss_jordan_oracle(augmented, p)
    if m in pivots:
        want = None
    else:
        x = [0] * m
        for row, lead in zip(reduced, pivots):
            x[lead] = row[m]
        want = tuple(x)
    assert solve(cols, target) == want


def test_solve_empty_columns():
    assert solve([], FpVector(3, (0, 0))) == ()
    assert solve([], FpVector(3, (1, 0))) is None
