"""Kernel-level hilbertian pairing and the per-claim verifiers.

The pairing is computed at kernel level: (a, b) is trivial iff b's class
lies in the norm-class group of the degree-p extension attached to a's
line.  Every bit or value is read off one certified matrix per field
(see the note on linearity); in characteristic p that matrix holds the
Schmid residues S(res(x db/b)), which give values, not only bits.

Verifiers turn the structure theorems into pass/fail reports: filtration
shape, break/level equality, break positions, norm-group intersections,
reciprocity kernels, and the orthogonality table.  Reports carry a
stable JSON layout for golden-file comparison; runtime_ms is always null
so identical inputs give byte-identical reports.

Char p is each statement read with e = infinity, so the verifiers take
one path for both characteristics and the characteristic picks the data.
line_catalog enumerates the lines of the first-argument space (K*/(K*)^p
in char 0, the windowed K+/wp(K+) in char p), each a Line built from its
coordinate vector with no descent, as are the lines that the certificates
of the pairing matrix and of the breaks walk; _setting fixes a verifier's
window, mult basis and last level index; _graded_dim is the one filtration
rule behind S2.10/S3.16 and S5.27/S5.28; verify_orthogonality reads both
complement sides of _complement at every level for S8.33 and S8.34, and
only its report layout depends on the characteristic; and _CLAIMS lists,
per claim id, the fields it applies to, its verifier and its statement.
verify_claim rejects a claim that does not apply to the field before any
verifier runs, so the verifiers hold no guard of their own.

A note on linearity.  The pairing is bilinear and nondegenerate, and the
norm group of the line of a is a's orthogonal (Serre, Local Fields, XIV
2).  So one matrix G per field (_pairing_matrix) answers every norm-group
question of the verifiers as an orthogonal complement, fp_linalg.perp of
rows of G or of its columns, and every pairing bit or value is (x.G).y,
read off the row x.G (_row_times) by _row_dot; a char-p window reads a
top-left block of G.  norm_class_subgroup reads ker(x.G) = perp([x.G])
too whenever the field's G covers its window; otherwise it walks the
norms and builds no G, so a one-shot query pays for one walk only.  In
char p, G holds the Schmid values; in char 0 it is the one solution, up
to a global factor, of the Steinberg relations (x, 1 - x) = 1 on seeded
draws x, the perp of their equations.  Neither walks a norm group.  In
both, G is certified when it is built, against the walked norm groups of
the d + 1 lines of a projective frame (_frame: the basis lines and their
sum), which pins G up to the one global factor no norm group sees; those
are the only norm groups that verify_all walks.  The tests compare
ker(x.G) with the walked norm group of every line of the bundled fields.

A note on breaks.  S4.22, S5.27 and S5.28 read each line's break off the
closed-form norm of line_break and build no extension per line; the built
extension's break certifies the closed form on the lines of G's frame
(_break_entries), whose extensions G's certificate builds anyway.  The
tests compare the two breaks on every line of the bundled fields.

A note on S7.31.  Each catalog line's row x.G is formed once, x the
line's catalog vector.  The perturbations u = 1 + tau(d) pi^(i + r) of part
(c) take few values, so each distinct u is descended once per claim, and
b u has coordinates y = coords(b) + coords(u), the class map being a
homomorphism; every bit is the length-d product of the row with y.  Part
(d) asks whether the U_i classes lie in the line's norm group, ker(x.G);
that is the row vanishing on the mult slots of level >= i, the same set
as _complement(ctx, w, i, "first").  The seeded draws do not depend on
the memo, so neither does the report.
"""

import itertools
import random

from .class_spaces import (
    _random_nonzero_digit,
    adapted_basis,
    coordinates,
    filtration_dims,
    first_trivial_level,
)
from .errors import (
    DomainError,
    InternalError,
    UnsupportedCaseError,
)
from .extensions import Line, attach_extension, line_break
from .fp_linalg import (
    FpVector,
    extend,
    member,
    perp,
    rref,
)
from .local_arith import series_residue_and_dlog

_ADD_CATALOG_BUDGET = 128
_DEFAULT_WINDOW = 9
# the draws x = combination(v) z^p of the char-0 Steinberg system: the
# seed, the Teichmuller digits of z, and the draws allowed per entry of G
# before the system is declared stuck
_STEINBERG_SEED = 0x5731
_STEINBERG_DIGITS = 12
_STEINBERG_DRAWS_PER_ENTRY = 4


def _window(window):
    """The char-p working window: 9 when unset, DomainError unless positive."""
    if window is None:
        return _DEFAULT_WINDOW
    if window <= 0:
        raise DomainError("window must be a positive level, got %d" % window)
    return window


# ================================================================ pairing


def norm_class_subgroup(E, window=None):
    """The image of the norm map in the class space, as an FpSubspace.

    The norm group of a line is its orthogonal under the pairing (Serre,
    Local Fields, XIV), so when ctx.cache holds the pairing matrix G of the
    window or a wider one, the answer is ker(x.G), x.G the line's row, and
    no norm is taken; a char-p line deeper than the window gives the whole
    windowed space, as a break past the window does.  Otherwise the norms
    are walked (_walk_norm_group) and G is not built, so a one-shot query
    costs one walk, not G's construction and certificate.
    """
    ctx = E.base
    if ctx.characteristic == 0:
        window = None  # the whole class space; char p needs a window
    if ctx.cache.get("pairing", (-1,))[0] < (window or 0):
        return _walk_norm_group(E, window)
    G = _pairing_matrix(ctx, window)
    line, n = E.line, len(G[0])
    if ctx.characteristic and line.level > window:
        return perp([], ctx.p, n)
    return perp([_row_times(line.vec, G, ctx.p)], ctx.p, n)


def _walk_norm_group(E, window):
    """The norm group of E, walked: window None in char 0.

    Norms of a fixed generator schedule (_norm_generator_schedule) are
    reduced to coordinates and accumulated until their span reaches the
    dimension that class field theory fixes: codimension 1 in char 0 and
    in a char-p window that holds the break, codimension 0 in a char-p
    window the break lies past.  A schedule that ends short of it is an
    InternalError.  It never reads G, so it certifies G
    (_certify_pairing_matrix) and serves the tests as G's oracle.
    """
    ctx = E.base
    basis = adapted_basis(ctx, "mult", window)
    n = basis.dim()
    # N(E*) has index p in K* and contains U_(b+1), b the ramification
    # break (Serre, Local Fields, XIV).  Char 0 reads all of K*/(K*)^p, so
    # the image has codimension 1.  Char p reads K*/(K*)^p U_(window+1):
    # when b <= window, U_(window+1) lies in N(E*) and the image keeps
    # index p; when b > window, U_(window+1) does not, so N(E*) U_(window+1)
    # is all of K* and the image is the whole windowed space.
    target = n - 1 if window is None or E.ramification_break <= window else n
    space = rref([], p=ctx.p, ambient_dim=n)
    for cand in _norm_generator_schedule(E, window):
        space = extend(space, coordinates(basis, E.norm(cand)))
        if space.dim() == target:
            break
    if space.dim() != target:
        raise InternalError(
            "norm subgroup stuck at codimension %d > %d after the full "
            "generator schedule" % (n - space.dim(), n - target)
        )
    return space


def _norm_generator_schedule(E, window):
    """Candidates whose norm classes generate the full norm-class group:
    the uniformizer, then single-digit units 1 + tau(theta) y with
    y = pi^k e_j over E's integral basis, so that deep ones keep digits.

    Ramified E: y = y_m of valuation m (DegreePExtension._of_valuation).
    Walking m deep enough that norms of deeper units have trivial class,
    every unit norm is a product of these (successive digit elimination).
    A level m divisible by p is skipped: there y_m = pi^(m/p) lies in K,
    so the unit c does too, and its norm c^p is a p-th power with zero
    coordinates (Serre, Local Fields, V 3); skipping it changes no span and
    no stopping point of the walk.  Unramified E: y = pi^j e_s, 0 < s < p.
    The e_s are units whose residues are the powers of a residue generator,
    so the graded norm is the residue trace of theta e_s, nonzero for some
    s because the residue extension is separable.  Powers of the generator
    x alone are NOT enough: their shallow digits cancel.
    """
    ctx = E.base
    one = E.embed(ctx.one())
    yield E.uniformizer
    if ctx.characteristic == 0:
        depth = first_trivial_level(ctx) + 2
        cap = lambda x: x
    else:
        # exact Laurent coefficients grow without bound under products;
        # classes only need digits to the window, so cap the precision
        depth = window + 2
        cap = lambda x: x.truncate(2 * depth + 8)
    if E.is_unramified:
        ys = (E._basis_element(s, j) for j in range(depth + 1) for s in range(1, ctx.p))
    else:
        ys = (E._of_valuation(m) for m in range(1, ctx.p * (depth + 1) + 1) if m % ctx.p)
    for y in map(cap, ys):
        for theta in ctx.k.basis():
            yield one.add(y.scale(ctx.teichmuller(theta)))


def pairing_value(a_line, b, window=None):
    """The F_p value of the char-p pairing of a_line's class with b.

    (x.G).y for the coordinates x of a_line and y of b, with G the Schmid
    table read at the window max(window, level), a block of the field's one
    G: the value only depends on b modulo U_(level+1).  The Schmid residue
    S(res(x db/b)) is exactly bilinear, so this is that residue itself; G
    was checked against walked norm groups when it was built.
    """
    if a_line.ctx.characteristic == 0:
        raise UnsupportedCaseError(
            "pairing values need a reciprocity normalization in char 0; "
            "only triviality (pairs_trivially) is computed there"
        )
    return _line_value(a_line, b, window)


def pairs_trivially(a_line, b, window=None):
    """True iff the hilbertian pairing of a_line's class with b is trivial.

    (x.G).y == 0 for the coordinates x of a_line and y of b, with G the
    field's certified pairing matrix; this is norm membership in the
    extension attached to a_line, without building that extension.  Char 0
    reads the whole class space, char p the window max(window, level).
    """
    return _line_value(a_line, b, window) == 0


def _line_value(a_line, b, window):
    """(x.G).y for the first-argument coordinates x of a_line and the mult
    coordinates y of b, read at the window the line needs."""
    ctx = a_line.ctx
    w = _window(window)  # char 0 has no use for it, but rejects a bad one too
    if b.ctx is not ctx:
        raise DomainError("pairing arguments live over different fields")
    w = None if ctx.characteristic == 0 else max(w, a_line.level)
    y = coordinates(adapted_basis(ctx, "mult", w), b)
    return _row_dot(_row_times(a_line.vec, _pairing_matrix(ctx, w), ctx.p), y.coords, ctx.p)


def _row_dot(row, y, p):
    """(x.G).y over F_p from the row x.G.  Every pairing bit or value is read here."""
    return sum(r * c for r, c in zip(row, y)) % p


def _pairing_matrix(ctx, window=None):
    """The pairing over the adapted bases as one matrix G, cached in ctx.cache.

    Rows index the first-argument basis, columns the mult basis; the norm
    group of the line with coordinates x is the kernel of y -> (x.G).y.
    Char p: the Schmid values S(res(g_r dh_c/h_c)), one series residue
    each.  Char 0 fixes no normalization, so G is known up to one global
    factor, which no kernel sees: _steinberg_matrix solves for it.  Neither
    builds an extension; _certify_pairing_matrix checks G in both
    characteristics.  A field holds one G, under "pairing" with the widest
    window it was built for.  The bases are ordered by level and a Schmid
    entry does not depend on the window, so a narrower window reads the
    top-left block; a wider one rebuilds G.
    """
    w = window or 0  # char 0 has one class space
    if ctx.cache.get("pairing", (-1,))[0] < w:
        if ctx.characteristic:
            mult = adapted_basis(ctx, "mult", window).elements()
            G = [
                [series_residue_and_dlog(g, h) for h in mult]
                for g in adapted_basis(ctx, "add", window).elements()
            ]
        else:
            G = _steinberg_matrix(ctx)
        _certify_pairing_matrix(ctx, G, window)
        ctx.cache["pairing"] = w, G
    top, G = ctx.cache["pairing"]
    if top == w:
        return G
    d, n = (adapted_basis(ctx, space, window).dim() for space in ("add", "mult"))
    return [row[:n] for row in G[:d]]


def _steinberg_matrix(ctx):
    """Char-0 G from the Steinberg relations, scaled to a leading 1.

    K_2(K)/p is mu_p (Moore; Milnor, Introduction to Algebraic K-Theory,
    appendix), so the bilinear forms on K*/(K*)^p with (x, 1 - x) = 1 for
    every x != 0, 1 form one line, which the Hilbert pairing spans.  A draw
    x = combination(v) z^p has coordinates v with no descent, z^p being a
    p-th power, and one descent gives those of 1 - x, y.  With c =
    coords(-1), read once, that gives the relation at the six points of the
    anharmonic orbit of x, each an equation a.G.b = 0 in the d^2 entries of
    G, a the coordinates of the point and b of one minus it: (v, y) at x,
    (y, v) at 1 - x, (-v, c + y - v) at 1/x, (-y, c + v - y) at 1/(1 - x),
    (c + v - y, -y) at x/(x - 1), (c + y - v, -v) at (x - 1)/x.  A sign
    does not change an equation's span, so the minus signs are dropped.
    Draws stop when the equations reach rank d^2 - 1, and G is the solution.
    Running out of draws first is an InternalError that names the rank
    reached.

    A draw whose equations are 0 skips its arithmetic: v = 0, or v(x) =
    v[0] + p v(z) at or past first_trivial_level, where 1 - x is a p-th
    power and y = 0.  Its digits are still drawn, so the draws after it
    stay the same.
    """
    if not ctx.mu_p_present:
        raise UnsupportedCaseError("the char-0 pairing needs the p-th roots of unity")
    basis = adapted_basis(ctx)
    p, d = ctx.p, basis.dim()
    top = first_trivial_level(ctx)
    c = coordinates(basis, ctx.one().neg()).coords
    rng = random.Random(_STEINBERG_SEED)
    system = rref([], p=p, ambient_dim=d * d)
    draws = _STEINBERG_DRAWS_PER_ENTRY * d * d
    for _ in range(draws):
        v = [rng.randrange(p) for _ in range(d)]
        t = rng.randrange(-1, 2)
        digits = [(t + j, _random_nonzero_digit(ctx, rng)) for j in range(_STEINBERG_DIGITS)]
        if not any(v) or v[0] + p * t >= top:
            continue
        z = ctx.from_digits(digits)
        x = basis.combination(v).mul(z.powi(p))
        y = coordinates(basis, ctx.one().sub(x)).coords
        cyv = [k + b - a for k, a, b in zip(c, v, y)]
        cvy = [k + a - b for k, a, b in zip(c, v, y)]
        for a, b in ((v, y), (y, v), (v, cyv), (y, cvy), (cvy, y), (cyv, v)):
            system = extend(system, FpVector(p, [r * s for r in a for s in b]))
        if system.dim() == d * d - 1:
            break
    else:
        raise InternalError(
            "the Steinberg system reached rank %d of %d in %d draws"
            % (system.dim(), d * d - 1, draws)
        )
    (g,) = perp(system.basis, p, d * d).basis
    return [list(g[r * d : (r + 1) * d]) for r in range(d)]


def _certify_pairing_matrix(ctx, G, window=None):
    """Check a pairing matrix against facts its construction never used.

    The pairing is nondegenerate, so G has full rank; in char 0, where both
    arguments live in one space, (a, b)(b, a) = 1 makes G skew-symmetric
    (symmetric at p = 2); and each line x of the frame (_frame), which the
    construction did not walk, must have the directly walked norm group
    ker(x.G), which fixes G up to one global factor.  Those walks call
    _walk_norm_group by name: norm_class_subgroup reads G once G is cached,
    and a certificate must not read what it certifies.  Any failure is an
    InternalError.
    """
    p, d = ctx.p, len(G)
    if ctx.characteristic == 0 and any(
        (G[r][c] + G[c][r]) % p for r in range(d) for c in range(d)
    ):
        kind = "symmetric" if p == 2 else "skew-symmetric"
        raise InternalError("pairing matrix is not %s" % kind)
    if rref([FpVector(p, row) for row in G]).dim() != d:
        raise InternalError("pairing matrix is singular")
    basis = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window)
    for vec in _frame(d):
        line = Line(basis, vec)
        if _walk_norm_group(attach_extension(line), window) != perp([_row_times(vec, G, p)], p, d):
            raise InternalError(
                "pairing matrix disagrees with the walked norm group of line %s"
                % "".join(map(str, vec))
            )


def _frame(d):
    """The d basis lines and their sum, a projective frame of P^(d-1): a
    norm group fixes basis line i's row of G up to its own scalar, and the
    sum line's forces the d scalars to agree."""
    return [tuple(int(k == i) for k in range(d)) for i in range(d)] + [(1,) * d]


def _row_times(x, G, p):
    """The row vector x.G over F_p."""
    return [sum(a * row[c] for a, row in zip(x, G)) % p for c in range(len(G[0]))]


# ================================================================ reports


class VerificationReport:
    """Pass/fail record for one numbered claim on one field.

    `witnesses` is a list of JSON-ready dicts documenting what was checked;
    `counterexample` is present exactly when status is "fail".  runtime_ms
    is kept in the schema but always null: timing would break byte-level
    report determinism.
    """

    __slots__ = (
        "claim_id",
        "field",
        "window",
        "seed",
        "status",
        "witnesses",
        "counterexample",
        "runtime_ms",
    )

    def __init__(self, claim_id, field, window, seed, status, witnesses, counterexample=None):
        if (status == "fail") != (counterexample is not None):
            raise InternalError("fail reports carry a counterexample; pass reports must not")
        self.claim_id = claim_id
        self.field = field
        self.window = window
        self.seed = seed
        self.status = status
        self.witnesses = witnesses
        self.counterexample = counterexample
        self.runtime_ms = None

    def passed(self):
        return self.status == "pass"

    def to_json(self):
        return {
            "claim_id": self.claim_id,
            "field": self.field,
            "window": self.window,
            "seed": self.seed,
            "status": self.status,
            "witnesses": self.witnesses,
            "counterexample": self.counterexample,
            "runtime_ms": self.runtime_ms,
        }

    def __repr__(self):
        return "VerificationReport(%s, %s, %s)" % (self.claim_id, self.field, self.status)


class PairingReport(VerificationReport):
    """VerificationReport plus the Gram table and the complement ledger."""

    __slots__ = ("row_labels", "col_labels", "gram", "claimed_orthogonals")

    def __init__(self, row_labels, col_labels, gram, claimed_orthogonals, **kw):
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.gram = gram
        self.claimed_orthogonals = claimed_orthogonals
        super().__init__(**kw)

    def to_json(self):
        out = super().to_json()
        out["witnesses"] = [
            {"gram_rows": list(self.row_labels), "gram_cols": list(self.col_labels), "gram": [list(r) for r in self.gram]},
            {"orthogonals": self.claimed_orthogonals},
        ] + list(self.witnesses)
        return out


def _report(ctx, claim_id, window, seed, witnesses, counterexample,
            cls=VerificationReport, **tables):
    """A report that passes exactly when no counterexample was found; its
    first witness is the claim's statement."""
    return cls(
        claim_id=claim_id,
        field=ctx.field_label(),
        window=window,
        seed=seed,
        status="pass" if counterexample is None else "fail",
        witnesses=[{"statement": _CLAIMS[claim_id][2]}] + witnesses,
        counterexample=counterexample,
        **tables,
    )


# ================================================================ line catalogs


def _normalized_tuples(p, dim):
    """One coordinate tuple per line: first nonzero entry is 1, lex order."""
    for vec in itertools.product(range(p), repeat=dim):
        if any(vec) and next(c for c in vec if c) == 1:
            yield vec


def line_catalog(ctx, window=None, seed=0):
    """Lines of the first-argument class space, over its adapted basis.

    Char 0: all (p^d - 1)/(p - 1) lines of K*/(K*)^p, which takes no
    window.  Char p: lines of the windowed K+/wp(K+), all of them when
    p^dim fits the budget; otherwise basis lines, pairwise sums, and a
    seeded sample of longer combinations.  Each is a Line built from its
    normalized coordinate vector, with no descent; its label spells the
    vector out, and its representative is the basis combination, the
    vectors in lex order sharing their prefix products.
    """
    basis = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window)
    p, d = ctx.p, basis.dim()
    full = ctx.characteristic == 0 or p**d <= _ADD_CATALOG_BUDGET
    key = ("catalog", window, None if full else seed)
    if key not in ctx.cache:
        if full:
            vecs = list(_normalized_tuples(p, d))
        else:
            seen = {tuple(int(k == i) for k in range(d)) for i in range(d)}
            pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
            seen |= {tuple(int(k in ij) for k in range(d)) for ij in pairs}
            rng, size = random.Random((seed << 16) ^ 0xAD5C), len(seen) + 40
            while len(seen) < size:  # 40 more lines, each normalized
                v = [rng.randrange(p) for _ in range(d)]
                if any(v):
                    inv = pow(next(c for c in v if c), -1, p)
                    seen.add(tuple(inv * c % p for c in v))
            vecs = sorted(seen)
        stack = []  # the lex order shares prefixes: one product per line
        ctx.cache[key] = [Line(basis, vec, basis.combination(vec, stack)) for vec in vecs]
    return ctx.cache[key]


def _slice(p, n, idx):
    """The span of the basis vectors idx in F_p^n."""
    rows = [FpVector(p, [int(j == i) for j in range(n)]) for i in idx]
    return rref(rows, p=p, ambient_dim=n)


def _complement(ctx, window, i, side):
    """(complement, predicted slice) of one side's level slice under G.

    side "mult": the mult classes orthogonal to the first-argument basis
    lines of level < i; predicted: the U_i classes.  side "first": the
    first-argument classes orthogonal to the U_i classes; predicted: the
    basis lines of level < i.  A char-0 generator of unit level b spans a
    line of level pc - b (the uniformizer's unit level is 0).
    """
    G = _pairing_matrix(ctx, window)
    col_levels = adapted_basis(ctx, "mult", window).levels()
    if ctx.characteristic == 0:
        row_levels = [ctx.pc - lvl for lvl in col_levels]
    else:
        row_levels = adapted_basis(ctx, "add", window).levels()
    low = [r for r, lvl in enumerate(row_levels) if lvl < i]
    deep = [c for c, lvl in enumerate(col_levels) if lvl >= i]
    if side == "mult":
        orth, keep, n = [G[r] for r in low], deep, len(col_levels)
    else:
        orth, keep, n = [[row[c] for row in G] for c in deep], low, len(G)
    return perp(orth, ctx.p, n), _slice(ctx.p, n, keep)


# ================================================================ verifiers


def _setting(ctx, window):
    """(window, mult basis, last level index i) of a verifier.

    Char 0 works in the whole class space (window None), and i runs to the
    triviality threshold, pc + 1 when the p-th roots of unity are present.
    Char p works in the window, and i runs to the window.  A nonpositive
    window is a DomainError in both characteristics.  Which fields a claim
    applies to is _CLAIMS' business, checked by verify_claim before any
    verifier runs.
    """
    w = _window(window)
    if ctx.characteristic:
        return w, adapted_basis(ctx, "mult", w), w
    return None, adapted_basis(ctx), first_trivial_level(ctx)


def _graded_dim(ctx, m):
    """The predicted dimension of the graded piece at level m = |i|.

    1 at m = 0 (the valuation resp. trace line); f at prime-to-p m below the
    triviality threshold, which char p, the case e = infinity, does not
    have; 1 at m = pc when the p-th roots of unity are present; 0 otherwise.
    """
    if m == 0:
        return 1
    if m % ctx.p and (ctx.characteristic or m < first_trivial_level(ctx)):
        return ctx.f
    return 1 if ctx.mu_p_present and m == ctx.pc else 0


def verify_filtration(ctx, window=None, seed=0):
    w, _, top = _setting(ctx, window)
    if ctx.characteristic:  # pole orders m = -i up to the window
        claim, space, lo, hi = "S3.16", "add", -w, 0
    else:  # unit levels, two past the threshold
        claim, space, lo, hi = "S2.10", "mult", 0, top + 2
    profile = filtration_dims(ctx, (lo, hi), space)
    witnesses = [{"index": i, "dim": d} for i, d in profile]
    counterexample = None
    for i, d in profile:
        want = _graded_dim(ctx, abs(i))
        if d != want:
            counterexample = {"index": i, "dim": d, "expected": want}
            break
    return _report(ctx, claim, w, seed, witnesses, counterexample)


def _break_entries(ctx, window, seed):
    """(label, level, break) per catalog line, each break from line_break.

    The break of the attached extension, read off its coefficients, certifies
    the closed form on the d + 1 lines of G's frame, whose norm groups G's
    certificate walks, so verify_all builds d + 1 extensions.  A
    disagreement is an InternalError.  The entries are cached next to the
    catalog, so S4.22 and S5.27/S5.28 share one pass.
    """
    key = ("breaks", window, seed)
    if key in ctx.cache:
        return ctx.cache[key]
    basis = adapted_basis(ctx, "add" if ctx.characteristic else "mult", window)
    for vec in _frame(basis.dim()):
        line = Line(basis, vec)
        got, want = line_break(line), attach_extension(line).ramification_break
        if got != want:
            raise InternalError(
                "closed-form break %d of line %s disagrees with the extension's %d"
                % (got, line.label, want)
            )
    ctx.cache[key] = [(cl.label, cl.level, line_break(cl)) for cl in line_catalog(ctx, window, seed)]
    return ctx.cache[key]


def verify_breaks(ctx, window=None, seed=0):
    w = _setting(ctx, window)[0]
    entries = _break_entries(ctx, w, seed)
    counterexample = None
    for label, level, eps in entries:
        want = level if level > 0 else -1
        if eps != want:
            counterexample = {"line": label, "level": level, "break": eps, "expected": want}
            break
    witnesses = [{"lines": len(entries)}] + [
        {"line": lbl, "level": lv, "break": ep} for lbl, lv, ep in entries
    ]
    return _report(ctx, "S4.22", w, seed, witnesses, counterexample)


def verify_break_positions(ctx, window=None, seed=0):
    # the positive breaks are the levels of the nonzero graded pieces
    w, _, top = _setting(ctx, window)
    claim = "S5.28" if ctx.characteristic else "S5.27"
    predicted = [m for m in range(1, top + 1) if _graded_dim(ctx, m)]
    entries = _break_entries(ctx, w, seed)
    observed = sorted({eps for _, _, eps in entries if eps > 0})
    counterexample = None
    if observed != predicted:
        counterexample = {"observed": observed, "expected": predicted}
    witnesses = [
        {"observed_breaks": observed},
        {"expected_breaks": predicted},
        {"multiset": _break_multiset(entries)},
    ]
    return _report(ctx, claim, w, seed, witnesses, counterexample)


def _break_multiset(entries):
    counts = {}
    for _, _, eps in entries:
        counts[eps] = counts.get(eps, 0) + 1
    return {str(k): counts[k] for k in sorted(counts)}


def verify_norm_groups(ctx, window=None, seed=0):
    w, basis, i_top = _setting(ctx, window)
    catalog = line_catalog(ctx, w, seed)
    n = basis.dim()
    witnesses = []
    counterexample = None
    for i in range(0, i_top + 1):
        # the lines of level < i span what the basis lines of level < i
        # span, so their norm groups meet in that span's complement
        inter, predicted = _complement(ctx, w, i, "mult")
        used = sum(cl.level < i for cl in catalog)
        ok = inter == predicted
        witnesses.append({"i": i, "lines": used, "dim": inter.dim(), "pass": ok})
        if not ok and counterexample is None:
            counterexample = {
                "i": i,
                "intersection": [list(r) for r in inter.basis],
                "expected": [list(r) for r in predicted.basis],
            }
        if i == 1 and ok:
            pi_vec = coordinates(basis, ctx.pi())
            if inter.dim() != n - 1 or member(inter, pi_vec):
                counterexample = {"i": 1, "detail": "valuation line not the quotient"}
    return _report(ctx, "S6.29", w, seed, witnesses, counterexample)


def verify_reciprocity(ctx, window=None, seed=0):
    rng = random.Random((seed << 8) ^ 0x7E31)
    witnesses = []
    counterexample = None

    w, basis, i_top = _setting(ctx, window)
    catalog = line_catalog(ctx, w, seed)
    G, p = _pairing_matrix(ctx, w), ctx.p
    # a sampled char-p catalog keeps every basis line, the trace line among them
    unram = [cl for cl in catalog if cl.level == 0]
    if len(unram) != 1:
        raise InternalError("expected exactly one unramified line, found %d" % len(unram))
    row0 = _row_times(unram[0].vec, G, p)
    g = ctx.k.gen() if ctx.f > 1 else ctx.k.elt(1)
    units = [
        ctx.one(),
        ctx.one().add(ctx.pi()),
        ctx.one().add(ctx.pi().shift(1)),
        ctx.one().add(ctx.teichmuller(g).shift(1)),
        ctx.one().add(ctx.pi()).mul(ctx.one().add(ctx.pi().shift(1))),
    ]
    uniformizers = [ctx.pi().mul(u) for u in units]
    if ctx.characteristic:
        third_b = ctx.one().add(ctx.teichmuller(g).shift(2))
    else:
        third_b = ctx.teichmuller(g) if ctx.f > 1 else ctx.one().add(ctx.pi().shift(1))
    sample_b = [ctx.pi(), ctx.one().add(ctx.pi()), third_b]

    # every bit is read off coordinates, (x.G).y == 0 with x.G the row of
    # the line's catalog vector; counterexamples name elements by literals
    # (a) every uniformizer pairs nontrivially with the unramified line
    # (b) unit quotients of uniformizers pair trivially (well-definedness)
    frob_ok = 0
    for u, unif in zip(units, uniformizers):
        if not _row_dot(row0, coordinates(basis, unif).coords, p):
            counterexample = {"part": "frobenius", "uniformizer_unit": u.to_literal()}
            break
        if _row_dot(row0, coordinates(basis, u).coords, p):
            counterexample = {"part": "well-definedness", "unit": u.to_literal()}
            break
        frob_ok += 1
    witnesses.append({"uniformizers_checked": frob_ok})
    rows = [_row_times(cl.vec, G, p) for cl in catalog]  # x.G, for (c) and (d)

    # (c) pairing bits depend only on b modulo U_(level+1).  A perturbed
    # product b u, u = 1 + tau(d) pi^(i + r), has coordinates coords(b) +
    # coords(u), those of each distinct (d, i + r) read once
    if counterexample is None:
        ys = [coordinates(basis, b).coords for b in sample_b]
        perturbations = {}

        def perturbed(i):  # (u, coordinates of u)
            key = (_random_nonzero_digit(ctx, rng), i + rng.randrange(0, 2))
            if key not in perturbations:
                u = ctx.one().add(ctx.teichmuller(key[0]).shift(key[1]))
                perturbations[key] = (u, coordinates(basis, u).coords)
            return perturbations[key]

        stable = 0
        for cl, row in zip(catalog, rows):
            i = cl.level + 1
            for b, y in zip(sample_b, ys):
                base_bit = _row_dot(row, y, p) == 0
                for _ in range(2):
                    u, cu = perturbed(i)
                    yu = [(a + s) % p for a, s in zip(y, cu)]
                    if (_row_dot(row, yu, p) == 0) != base_bit:
                        counterexample = {
                            "part": "perturbation",
                            "line": cl.label,
                            "b": b.to_literal(),
                            "u": u.to_literal(),
                        }
                        break
                    stable += 1
                if counterexample:
                    break
            if counterexample:
                break
        witnesses.append({"perturbations_stable": stable})

    # (d) U_i classes land in a line's norm group exactly when level < i
    if counterexample is None:
        checked = 0
        levels = basis.levels()
        for i in range(0, i_top + 1):
            # a line's norm group ker(x.G) holds the U_i classes iff its row
            # vanishes on their slots
            deep = [c for c, lvl in enumerate(levels) if lvl >= i]
            for cl, row in zip(catalog, rows):
                contained = not any(row[c] for c in deep)
                if contained != (cl.level < i):
                    counterexample = {
                        "part": "kernel-filtration",
                        "i": i,
                        "line": cl.label,
                        "contained": contained,
                    }
                    break
                checked += 1
            if counterexample:
                break
        witnesses.append({"containments_checked": checked})

    return _report(ctx, "S7.31", w, seed, witnesses, counterexample)


def verify_orthogonality(ctx, window=None, seed=0):
    """S8.33 and S8.34: under G, the complement of the U_i classes is the
    span of the first-argument lines of level < i, and vice versa.

    Both sides are read at every i in both characteristics; in char 0 the
    lines of level < i are the U_(pc-i+1) classes.  Only the report layout
    depends on the characteristic.  Char 0 fixes G up to one global factor,
    so the Gram table scales each row to a leading 1, and at p=2, where the
    values are absolute, it must come out symmetric.  Char p reports the
    Schmid values and spot-checks G against the Schmid residue.
    """
    w, mb, top = _setting(ctx, window)
    fb = adapted_basis(ctx, "add" if ctx.characteristic else "mult", w)
    G, p = _pairing_matrix(ctx, w), ctx.p
    orthogonals = []
    counterexample = None
    for i in range(0, top + 1):
        first, first_want = _complement(ctx, w, i, "first")
        mult, mult_want = _complement(ctx, w, i, "mult")
        ok_first, ok_mult = first == first_want, mult == mult_want
        failed = not (ok_first and ok_mult) and counterexample is None
        if ctx.characteristic:
            orthogonals.append({"i": i, "add_side_pass": ok_first, "mult_side_pass": ok_mult,
                                "add_dim": first.dim(), "mult_dim": mult.dim()})
            if failed:
                counterexample = {"i": i}
                for side, got, want in (("add", first, first_want), ("mult", mult, mult_want)):
                    counterexample[side + "_computed"] = [list(r) for r in got.basis]
                    counterexample[side + "_expected"] = [list(r) for r in want.basis]
        else:
            orthogonals.append({"i": i, "expected": "U_%d" % (ctx.pc - i + 1),
                                "dim": first.dim(), "pass": ok_first and ok_mult})
            if failed:  # the first failing side
                got, want = (mult, mult_want) if ok_first else (first, first_want)
                counterexample = {"i": i, "computed": [list(r) for r in got.basis],
                                  "expected": [list(r) for r in want.basis]}
    if ctx.characteristic:
        # seeded spot checks: random vector pairs against the bilinear prediction
        gram, spots = G, 0
        rng = random.Random((seed << 4) ^ 0x5E34)
        for _ in range(20 if counterexample is None else 0):
            av = [rng.randrange(p) for _ in range(fb.dim())]
            mv = [rng.randrange(p) for _ in range(mb.dim())]
            if not any(av) or not any(mv):
                continue
            predicted = _row_dot(_row_times(av, G, p), mv, p)
            # the Schmid residue itself, so the check does not read G
            got = series_residue_and_dlog(fb.combination(av), mb.combination(mv))
            if got != predicted:
                counterexample = {"part": "bilinearity-spot-check", "add_vec": av,
                                  "mult_vec": mv, "predicted": predicted, "computed": got}
                break
            spots += 1
        witnesses = [{"spot_checks": spots}]
    else:
        gram = []
        for row in G:  # scaled to a leading 1
            inv = pow(next(v for v in row if v), -1, p)
            gram.append([inv * v % p for v in row])
        witnesses = []
        if p == 2:
            sym = gram == [list(col) for col in zip(*gram)]
            witnesses.append({"gram_symmetric": sym})
            if not sym and counterexample is None:
                counterexample = {"detail": "gram not symmetric at p=2"}
    return _report(
        ctx, "S8.34" if ctx.characteristic else "S8.33", w, seed, witnesses, counterexample,
        PairingReport, row_labels=fb.labels(), col_labels=mb.labels(), gram=gram,
        claimed_orthogonals=orthogonals,
    )


# ================================================================ registry


# claim id -> (the kinds of field it applies to, verifier, statement), in
# the order claims_for lists them.  A field's kind is "p" in char p; in char
# 0 it is "mu" when the p-th roots of unity are present, which the Kummer
# extensions behind most claims need, and "0" otherwise.
_CLAIMS = {
    "S2.10": ("0 mu", verify_filtration, "graded dimensions of the unit-class "
              "filtration: f at each prime-to-p index below the threshold, one "
              "boundary line iff the p-th roots of unity are present, zero beyond"),
    "S3.16": ("p", verify_filtration, "graded dimensions of the additive class "
              "filtration: f at each prime-to-p pole order, plus the "
              "one-dimensional residue trace line at level zero"),
    "S4.22": ("mu p", verify_breaks, "the ramification break of the extension "
              "attached to a line equals the line's level, with break -1 exactly "
              "at level 0"),
    "S5.27": ("mu", verify_break_positions, "positive ramification breaks occur "
              "exactly at the prime-to-p integers b_p(i) for i in [1, e] and at pc"),
    "S5.28": ("p", verify_break_positions, "positive ramification breaks occur "
              "exactly at the prime-to-p integers (windowed)"),
    "S6.29": ("mu p", verify_norm_groups, "the intersection of norm-class groups "
              "over all lines of level < i is exactly the image of U_i"),
    "S7.31": ("mu p", verify_reciprocity, "every uniformizer class acts as "
              "Frobenius on the unramified line, unit quotients are norms, and "
              "pairing bits depend only on the class modulo U_(level+1)"),
    "S8.33": ("mu", verify_orthogonality, "the orthogonal complement of "
              "the U_i classes under the hilbertian pairing is the U_(pc-i+1) classes"),
    "S8.34": ("p", verify_orthogonality, "the orthogonal complement of the U_i "
              "classes is the classes of p^(-i+1), and vice versa (windowed)"),
}


def claims_for(ctx):
    """Claim ids applicable to ctx; extension-backed ones need mu_p in char 0."""
    kind = "p" if ctx.characteristic else ("mu" if ctx.mu_p_present else "0")
    return tuple(cid for cid, (kinds, _, _) in _CLAIMS.items() if kind in kinds.split())


def verify_claim(ctx, claim_id, window=None, seed=0):
    if claim_id not in _CLAIMS:
        raise DomainError(
            "unknown claim id %r (known: %s)" % (claim_id, ", ".join(sorted(_CLAIMS)))
        )
    if claim_id not in claims_for(ctx):
        raise DomainError(
            "claim %s does not apply to %s (its claims: %s)"
            % (claim_id, ctx.field_label(), ", ".join(claims_for(ctx)))
        )
    return _CLAIMS[claim_id][1](ctx, window=window, seed=seed)


def verify_all(ctx, window=None, seed=0):
    return [verify_claim(ctx, cid, window=window, seed=seed) for cid in claims_for(ctx)]
