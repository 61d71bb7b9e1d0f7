"""Exact linear algebra over the prime field F_p.

Everything is tiny (ambient dimension is a handful), so matrices are lists
of tuples.  The canonical form of a subspace is its reduced row echelon
basis with pivots 1, which makes subspace equality a plain data
comparison.  One elimination builds it: extend adds one row to a reduced
basis, rref folds extend over its rows, solve reads a solution off the
rref of the augmented rows, and perp reads an orthogonal complement off
the rref of the rows with their columns reversed.
"""

from bisect import bisect

from .errors import MalformedInputError


class FpVector:
    """A coordinate vector over F_p, stored with canonical residues in [0, p)."""

    __slots__ = ("p", "coords")

    def __init__(self, p, coords):
        self.p = p
        self.coords = tuple([c % p for c in coords])

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, FpVector)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def __repr__(self):
        return "FpVector(p=%d, %r)" % (self.p, list(self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)


class FpSubspace:
    """A subspace of F_p^n held as a reduced-row-echelon basis matrix.

    Rows are nonzero, pivots are 1, pivot columns strictly increase and are
    cleared above and below.  Two FpSubspace values are equal iff they are
    the same subspace.  `pivots` holds each row's pivot column.
    """

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p, ambient_dim, basis, pivots=None):
        self.p = p
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis)  # tuple of coordinate tuples, already reduced
        if pivots is None:
            pivots = tuple(next(i for i, x in enumerate(row) if x) for row in self.basis)
        self.pivots = pivots

    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, FpSubspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis))

    def __repr__(self):
        return "FpSubspace(p=%d, dim %d of %d, basis=%r)" % (
            self.p,
            self.dim(),
            self.ambient_dim,
            [list(r) for r in self.basis],
        )


def rref(vectors, p=None, ambient_dim=None):
    """Row space of the given FpVectors in canonical reduced echelon form.

    `p` and `ambient_dim` are only needed when `vectors` is empty; given
    otherwise, they must agree with every row.
    """
    vectors = list(vectors)
    if vectors:
        p = vectors[0].p if p is None else p
        ambient_dim = len(vectors[0]) if ambient_dim is None else ambient_dim
    elif p is None or ambient_dim is None:
        raise MalformedInputError("empty row list needs explicit p and ambient_dim")
    space = FpSubspace(p, ambient_dim, (), ())
    for v in vectors:
        space = extend(space, v)
    return space


def member(space, v):
    """True iff v lies in the row space of `space`."""
    return extend(space, v) is space


def extend(space, v):
    """The span of `space` and v, in canonical reduced echelon form.

    `space` itself when v lies in it; otherwise v's residual against the
    basis, scaled to a pivot 1, is cleared from the other rows and joins
    them in pivot order.  This is the library's one elimination.
    """
    p, pivots = space.p, space.pivots
    residual = v.coords
    if p != v.p or space.ambient_dim != len(residual):
        raise MalformedInputError("vector/subspace dimension or modulus mismatch")
    for lead, row in zip(pivots, space.basis):
        f = residual[lead]
        if f:
            residual = [(a - f * b) % p for a, b in zip(residual, row)]
    for lead, f in enumerate(residual):
        if f:
            break
    else:
        return space
    if f != 1:
        inv = pow(f, -1, p)
        residual = [inv * x % p for x in residual]
    new = tuple(residual)
    rows = [
        tuple([(a - row[lead] * b) % p for a, b in zip(row, new)]) if row[lead] else row
        for row in space.basis
    ]
    k = bisect(pivots, lead)
    rows.insert(k, new)
    return FpSubspace(p, space.ambient_dim, rows, pivots[:k] + (lead,) + pivots[k:])


def solve(columns, target):
    """Solve sum_j x_j * columns[j] == target over F_p.

    Returns one solution as a tuple of residues, or None when the target is
    outside the column span.  It is read off the rref of the augmented rows
    [A | b]: each pivot coordinate from its row, every free coordinate 0,
    so a rank-deficient column set is fine (one preimage of possibly many
    comes back).
    """
    p, m = target.p, len(columns)
    for col in columns:
        if col.p != p or len(col) != len(target):
            raise MalformedInputError(
                "incompatible vectors: p=%s/%s, len=%s/%s" % (col.p, p, len(col), len(target))
            )
    rows = [FpVector(p, row) for row in zip(*[col.coords for col in columns], target.coords)]
    space = rref(rows, p=p, ambient_dim=m + 1)
    x = [0] * m
    for lead, row in zip(space.pivots, space.basis):
        if lead == m:
            return None  # row (0 ... 0 | nonzero): inconsistent
        x[lead] = row[m]
    return tuple(x)


def perp(rows, p, n):
    """{y in F_p^n : r . y == 0 for every r in rows}, as an FpSubspace.

    The rows are reduced with their columns reversed, so each reduced row,
    read back in the original order, ends at its pivot.  Each free column f
    then gives the complement vector e_f - sum_i row_i[f] e_(pivot_i), which
    is zero before f and at every other free column: together they are
    already the canonical basis.
    """
    space = rref([FpVector(p, row[::-1]) for row in rows], p=p, ambient_dim=n)
    ends = {n - 1 - lead: row[::-1] for lead, row in zip(space.pivots, space.basis)}
    free = [f for f in range(n) if f not in ends]
    basis = []
    for f in free:
        y = [0] * n
        y[f] = 1
        for c, row in ends.items():
            y[c] = -row[f] % p
        basis.append(tuple(y))
    return FpSubspace(p, n, basis, tuple(free))
