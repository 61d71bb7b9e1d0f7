import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lfk.errors import MalformedInputError
from lfk.fp_linalg import (
    FpSubspace,
    FpVector,
    extend,
    left_kernel,
    member,
    rref,
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
    # canonical form: adding rows one at a time gives the very FpSubspace
    # that rref gives on all of them, after every row
    nrows = data.draw(st.integers(min_value=0, max_value=8))
    rows = [
        FpVector(p, data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        for _ in range(nrows)
    ]
    sp = rref([], p=p, ambient_dim=n)
    for k, row in enumerate(rows):
        grown = extend(sp, row)
        assert (grown is sp) == member(sp, row)
        sp = grown
        assert sp == rref(rows[: k + 1])


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


# ---------------------------------------------------------------- left_kernel

def test_left_kernel_zero_table():
    full = identity_space(2, 3)
    table = [[0, 0], [0, 0], [0, 0]]
    assert left_kernel(table, 2) == full


def test_left_kernel_identity_table_nondegenerate():
    table = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert left_kernel(table, 2).dim() == 0


def test_left_kernel_single_column_is_hyperplane():
    # one nonzero column c: kernel = {v : v·c = 0}, oracle by enumeration
    c = (1, 1, 0)
    table = [[c[i]] for i in range(3)]
    got = left_kernel(table, 2)
    want = {
        v
        for v in itertools.product(range(2), repeat=3)
        if sum(a * b for a, b in zip(v, c)) % 2 == 0
    }
    assert span_enumerate(got.basis, 2, 3) == want


def test_left_kernel_shape_check():
    with pytest.raises(MalformedInputError):
        left_kernel([[1], [0, 1]], 2)


def test_left_kernel_random_against_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice([2, 3])
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        table = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        got = left_kernel(table, p)
        want = {
            v
            for v in itertools.product(range(p), repeat=n)
            if all(sum(v[r] * table[r][c] for r in range(n)) % p == 0 for c in range(m))
        }
        assert span_enumerate(got.basis, p, n) == want


def test_solve_random_against_brute_force():
    from lfk.fp_linalg import solve

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


def test_solve_empty_columns():
    from lfk.fp_linalg import solve

    assert solve([], FpVector(3, (0, 0))) == ()
    assert solve([], FpVector(3, (1, 0))) is None
