"""Exact linear algebra over the prime field F_p.

Everything is tiny (ambient dimension is a handful), so matrices are lists
of tuples and elimination is the schoolbook algorithm.  The canonical form
of a subspace is its reduced row echelon basis with pivots 1, which makes
subspace equality a plain data comparison.
"""

from .errors import MalformedInputError


class FpVector:
    """A coordinate vector over F_p, stored with canonical residues in [0, p)."""

    __slots__ = ("p", "coords")

    def __init__(self, p, coords):
        self.p = p
        self.coords = tuple(c % p for c in coords)

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

    def add(self, other):
        _check_compatible(self, other)
        return FpVector(self.p, [a + b for a, b in zip(self.coords, other.coords)])


class FpSubspace:
    """A subspace of F_p^n held as a reduced-row-echelon basis matrix.

    Rows are nonzero, pivots are 1, pivot columns strictly increase and are
    cleared above and below.  Two FpSubspace values are equal iff they are
    the same subspace.
    """

    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, p, ambient_dim, basis):
        self.p = p
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis)  # tuple of coordinate tuples, already reduced

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


def _check_compatible(a, b):
    if a.p != b.p or len(a.coords) != len(b.coords):
        raise MalformedInputError(
            "incompatible vectors: p=%s/%s, len=%s/%s"
            % (a.p, b.p, len(a.coords), len(b.coords))
        )


def _row_reduce(rows, p):
    """In-place Gauss-Jordan over F_p on a list of lists; returns pivot cols."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(inv * x) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] % p != 0:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rref(vectors, p=None, ambient_dim=None):
    """Row space of the given FpVectors in canonical reduced echelon form.

    `p` and `ambient_dim` are only needed when `vectors` is empty.
    """
    vectors = list(vectors)
    if not vectors:
        if p is None or ambient_dim is None:
            raise MalformedInputError("empty row list needs explicit p and ambient_dim")
        return FpSubspace(p, ambient_dim, ())
    p0 = vectors[0].p
    n = len(vectors[0])
    for v in vectors:
        if v.p != p0 or len(v) != n:
            raise MalformedInputError("mixed moduli or lengths in rref input")
    if p is not None and p != p0:
        raise MalformedInputError("explicit p disagrees with row modulus")
    if ambient_dim is not None and ambient_dim != n:
        raise MalformedInputError("explicit ambient_dim disagrees with row length")
    rows, _ = _row_reduce([list(v.coords) for v in vectors], p0)
    return FpSubspace(p0, n, tuple(tuple(r) for r in rows))


def member(space, v):
    """True iff v lies in the row space of `space`."""
    return extend(space, v) is space


def extend(space, v):
    """The span of `space` and v, in canonical reduced echelon form.

    `space` itself when v lies in it; otherwise v's residual against the
    basis, scaled to a pivot 1, is cleared from the other rows and joins
    them in pivot order.  Adding rows one at a time this way gives the same
    FpSubspace as rref of all of them.
    """
    if space.p != v.p or space.ambient_dim != len(v):
        raise MalformedInputError("vector/subspace dimension or modulus mismatch")
    p = space.p
    residual = list(v.coords)
    for row in space.basis:
        lead = next(i for i, x in enumerate(row) if x != 0)
        f = residual[lead]
        if f:
            residual = [(a - f * b) % p for a, b in zip(residual, row)]
    lead = next((i for i, x in enumerate(residual) if x), None)
    if lead is None:
        return space
    inv = pow(residual[lead], -1, p)
    new = tuple(inv * x % p for x in residual)
    rows = [
        tuple((a - row[lead] * b) % p for a, b in zip(row, new)) if row[lead] else row
        for row in space.basis
    ]
    rows.append(new)
    rows.sort(key=lambda row: next(i for i, x in enumerate(row) if x))
    return FpSubspace(p, space.ambient_dim, rows)


def solve(columns, target):
    """Solve sum_j x_j * columns[j] == target over F_p.

    Returns one solution as a tuple of residues, or None when the target is
    outside the column span.  Elimination runs on the augmented matrix, so a
    rank-deficient column set is fine (one preimage of possibly many comes
    back).
    """
    if not columns:
        return () if target.is_zero() else None
    p = target.p
    n = len(target)
    for col in columns:
        _check_compatible(col, target)
    m = len(columns)
    # rows of [A | b] where A's j-th column is columns[j]
    rows = [[columns[j].coords[i] for j in range(m)] + [target.coords[i]] for i in range(n)]
    reduced, _ = _row_reduce(rows, p)
    x = [0] * m
    for row in reduced:
        lead = next(i for i, v in enumerate(row) if v != 0)
        if lead == m:
            return None  # row (0 ... 0 | nonzero): inconsistent
        x[lead] = row[m]
    return tuple(x)


def left_kernel(pairing_table, p):
    """{v in F_p^n : v · pairing_table = 0}, n the number of rows.

    pairing_table[r][c] is the pairing of the r-th basis vector of F_p^n
    against the c-th column.
    """
    n = len(pairing_table)
    ncols = len(pairing_table[0]) if n else 0
    for row in pairing_table:
        if len(row) != ncols:
            raise MalformedInputError("ragged pairing table")
    rows = [FpVector(p, v) for v in _kernel_basis(pairing_table, p)]
    return rref(rows, p=p, ambient_dim=n)


def _kernel_basis(matrix, p):
    """Basis of {x : x·matrix = 0} for a dense list-of-lists matrix."""
    m = len(matrix)
    if m == 0:
        return []
    # Transpose and find the null space of matrix^T · x^T = 0 column-wise:
    # row-reduce the transpose and read off free variables.
    ncols = len(matrix[0])
    tr = [[matrix[r][c] % p for r in range(m)] for c in range(ncols)]
    reduced, pivots = _row_reduce(tr, p) if tr else ([], [])
    pivot_set = set(pivots)
    free = [j for j in range(m) if j not in pivot_set]
    basis = []
    for fj in free:
        x = [0] * m
        x[fj] = 1
        for row, pc in zip(reduced, pivots):
            x[pc] = (-row[fj]) % p
        basis.append(x)
    return basis
