"""Normal forms in K*/(K*)^p and K+/wp(K+), and adapted bases for both.

Adapted bases.  One generator per filtration slot: the uniformizer, the
units 1 + tau(theta_s) pi^b at each obstruction level b (theta_s running
over an F_p-basis of k), the boundary unit 1 + tau(a*) pi^pc when the p-th
roots of unity are present; on the additive side the trace-one constant
and the pole monomials theta_s t^(-b).  Independence is certified per
level from the generators' leading digits (AdaptedBasis.certify), so no
combination of classes is ever enumerated.

Multiplicative side.  One descent, unit_class_reduce, serves both
characteristics.  A nonzero x factors as pi^v * tau(r) * z with z a
principal unit.  The descent walks z down the filtration and cancels the
digit at each level m against the adapted-basis generators of level m,
whose exponents are the coordinates of the class, and against an explicit
p-th power, which goes into the certificate y.  Which digits a p-th power
can cancel is decided *empirically*: for each level the map "b -> level-m
digit of (1 + tau(b) pi^s)^p" is evaluated on a k-basis and the resulting
F_p-linear system is solved, so no closed-form case analysis of binomial
valuations is trusted at runtime.  Char p is the case e = infinity: there
the map exists exactly when p divides m, and its columns are the Frobenius
images of the k-basis.  The p-th powers are kept as one running product,
never divided by.  Char 0 walks to the triviality threshold, char p to
window + 1.  A reduction is the coordinates of that one walk, the
representative pi^(v mod p) * prod g^c they name and the certificate
x = y^p * prod g^c; a class's level is read off its coordinates, as the
least level of a slot with a nonzero coordinate.

Additive side (char p only).  The same walk for wp(y) = y^p - y,
as_class_reduce(x, window): poles of order divisible by p are absorbed
into the certificate, poles of order prime to p survive as coordinates on
the pole slots of adapted_basis(ctx, "add", window), the constant digit
collapses onto the trace-one slot, and everything of positive valuation is
killed by a telescoping series.  Both reductions thus return coordinates
over their basis, a representative and a certificate.

coordinates() runs the reduction of the basis's space at the basis window
and checks its certificate identity with multiplications only.
filtration_dims() counts the graded pieces of either side off its adapted
basis, and one loop checks both: a level-m sample must reduce to level m
iff the basis has a slot there.
"""

import random
from collections import Counter

from .errors import (
    DomainError,
    InternalError,
    OutOfWindowError,
    PrecisionError,
    UnsupportedCaseError,
)
from .fp_linalg import FpVector, member, rref, solve
from .local_arith import INF, bp_index, val

_PRECISION_SLACK = 2  # extra known digits demanded beyond the last level read


# ---------------------------------------------------------------- thresholds


def first_trivial_level(ctx):
    """Least m such that every principal unit in U_m is a p-th power.

    Equals pe/(p-1) + 1 when that index is an integer, and b_p(e) + 1
    otherwise.  Char-0 fields only; in char p no such level exists.
    """
    if ctx.characteristic != 0:
        raise UnsupportedCaseError(
            "the unit filtration of a char-p field has no trivial tail"
        )
    deepest = ctx.pc if ctx.pc is not None else bp_index(ctx.p, ctx.e)
    return deepest + 1


def _kill_exponent(ctx, m):
    """Exponent s so that (1 + tau(b) pi^s)^p can cancel a level-m digit.

    None means level m holds obstructions (m prime to p below the boundary).
    """
    if ctx.pc is not None and m == ctx.pc:
        return ctx.c
    if m * (ctx.p - 1) < ctx.p * ctx.e:  # m < pe/(p-1), exactly, in integers
        return m // ctx.p if m % ctx.p == 0 else None
    return m - ctx.e


def _kill_columns(ctx, m):
    """The level-m digit of (1 + tau(theta_j) pi^s)^p for each basis theta_j.

    Returns (s, columns); cached per level.  The digits are read off from
    actual p-th powers, so the linear system solved against these columns is
    correct by construction rather than by a binomial-valuation argument.
    """
    key = ("kill", m)
    if key not in ctx.cache:
        s = _kill_exponent(ctx, m)
        if s is None:
            raise InternalError("no kill map exists at level %d" % m)
        hi = m + 2
        one = ctx.one(hi)
        cols = []
        for theta in ctx.k.basis():
            factor = one.add(ctx.teichmuller(theta, hi).shift(s))
            diff = factor.powi(ctx.p).sub(one)
            if val(diff) < m:
                raise InternalError(
                    "p-th power of a level-%d kill factor sticks out at level %s"
                    % (m, val(diff))
                )
            cols.append(diff.digit(m).fp_vector())
        ctx.cache[key] = (s, cols)
    return ctx.cache[key]


def _boundary_data(ctx):
    """Image of the level-pc kill map, and a residue outside it.

    The map has corank 1 exactly when the p-th roots of unity are present
    (its kernel is generated by the digit of zeta - 1); anything else means
    the mu_p decision and the descent disagree, which is a hard error.
    """
    if "boundary" not in ctx.cache:
        _, cols = _kill_columns(ctx, ctx.pc)
        image = rref(cols, p=ctx.p, ambient_dim=ctx.f)
        corank = ctx.f - image.dim()
        if corank != (1 if ctx.mu_p_present else 0):
            raise InternalError(
                "level-%d kill map has corank %d but mu_p present is %r"
                % (ctx.pc, corank, ctx.mu_p_present)
            )
        a_star = None
        if corank == 1:
            for cand in ctx.k.elements():
                if not member(image, cand.fp_vector()):
                    a_star = cand
                    break
        ctx.cache["boundary"] = (cols, image, a_star)
    return ctx.cache["boundary"]


# ---------------------------------------------------------------- reductions


def _cancel_digit(basis, z, m, a, kill_cols, coords):
    """Cancel the level-m digit a of z against the level-m basis generators.

    Solves a = (kill image of b) + sum c_i * lead_i over the generators g_i
    of level m, records each c_i in coords and multiplies z by g_i^(p - c_i),
    whose level-m digit is -c_i * lead_i.  Returns (z, b); b is the k-digit
    of the p-th power the caller still has to divide out (None if zero).
    """
    ctx = basis.ctx
    here = [i for i, lvl in enumerate(basis.levels()) if lvl == m]
    sol = solve(list(kill_cols) + [basis.leads[i].fp_vector() for i in here], a.fp_vector())
    if sol is None:
        raise InternalError(
            "level-%d digit is neither killed by a p-th power nor spanned by "
            "the basis digits" % m
        )
    n = len(kill_cols)
    for i, c in zip(here, sol[n:]):
        if c:
            coords[i] = c
            z = z.mul(basis.power(i, ctx.p - c))
    return z, (ctx.k.elt(sol[:n]) if any(sol[:n]) else None)


def _cut(z, rel):
    """z known only to `rel` digits past its valuation (never more than it has)."""
    return z.truncate(min(z.P, val(z) + rel))


class UnitClassReduction:
    """Outcome of reducing x in K* modulo p-th powers, and modulo U_depth:
    the coordinates of the class, its representative and its certificate.

    coords          FpVector of the class in basis = adapted_basis(ctx, "mult",
                    window); the class's level is the least level of a
                    nonzero slot
    normalized_rep  basis.combination(coords) = pi^(v mod p) * prod g_i^c_i at
                    working precision, a canonical representative of the
                    whole class (the one() of the field for trivial classes)
    certificate     y = root / den with y^p * normalized_rep = x up to U_depth
    depth           the level the descent stops at: the triviality threshold
                    in char 0, window + 1 in char p

    root is the p-th root the descent took out (times pi^(v // p)) and den
    the product of the generators it cancelled, so that checking the
    certificate takes multiplications only.
    """

    __slots__ = ("basis", "coords", "normalized_rep", "root", "den", "depth")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def is_trivial(self):
        return self.coords.is_zero()

    @property
    def certificate(self):
        """y with y^p * normalized_rep = x up to U_depth."""
        return self.root.mul(self.den.inv())

    def verify_against(self, x):
        """x * den^p = root^p * rep up to U_depth, by multiplications only.

        Raises PrecisionError when fewer than `depth` digits past the
        valuation of x are known on both sides: the identity cannot be
        decided then.
        """
        p, depth = x.ctx.p, self.depth
        v = val(x)
        # Both the verdict and the guard read diff below pi^(v + depth) only.
        # Each factor is cut `depth` digits past its own valuation: a digit
        # of a product at pi^m with m below the valuation of the product plus
        # depth involves only factor digits within `depth` of their
        # valuations, and the valuations add up to v on both sides.  A cut
        # never raises precision, so the guard still sees what x carries.
        x, den, root, rep = (
            _cut(z, depth) for z in (x, self.den, self.root, self.normalized_rep)
        )
        diff = x.mul(den.powi(p)).sub(root.powi(p).mul(rep))
        if diff.P - v < depth:
            raise PrecisionError(
                "certificate identity reads %d digits past the valuation; %s are known"
                % (depth, diff.P - v)
            )
        return val(diff) - v >= depth

    def __repr__(self):
        return "UnitClassReduction(coords=%r, depth=%d)" % (list(self.coords.coords), self.depth)


def unit_class_reduce(x, window=None):
    """Reduce x modulo (K*)^p by explicit descent through the unit filtration.

    Cancels the digit at each level against p-th powers and the generators
    of that level in adapted_basis(ctx, "mult", window) (at pc: the kill
    image plus a multiple of a*).  The generator exponents are the
    coordinates of the class.  Char 0 takes no window and walks to the
    triviality threshold; char p needs one and walks to window + 1, so the
    class is taken modulo U_(window+1) as well.

    Raises PrecisionError when the input, or the field's working precision,
    does not reach the last level read plus two digits of slack beyond the
    valuation.
    """
    ctx = x.ctx
    basis = adapted_basis(ctx, "mult", window)
    v = val(x)
    if v == INF:
        raise DomainError("cannot reduce zero (or a truncation of zero)")
    v = int(v)
    stop = first_trivial_level(ctx) if window is None else window + 1
    z = x.shift(-v) if v else x
    # The descent reads digits of z at levels below stop only, and every
    # factor z is multiplied by is a unit, so a digit of z at or past the
    # cut never reaches a digit the descent reads: cutting z there keeps
    # two digits of slack and bounds every product below.
    cut = stop + _PRECISION_SLACK
    if min(z.P, ctx.default_precision) < cut:
        # when the field's precision binds, a wider field descriptor helps
        hint = "; add prec=%d to the field descriptor" % cut if z.P >= ctx.default_precision else ""
        raise PrecisionError(
            "unit class reduction reads digits up to level %d and needs "
            "precision >= %d beyond the valuation; element has %s, field %d%s"
            % (stop - 1, cut, z.P, ctx.default_precision, hint)
        )
    z = z.truncate(cut)

    r = z.residue()
    y = ctx.teichmuller(r.pth_root(), cut)
    z = z.mul(ctx.teichmuller(r.inv(), cut))
    one = ctx.one(cut)

    # The p-th powers divided out so far are kept as their product D, a
    # principal unit, and the descent walks z / D without dividing: since
    # z - D = D * (z/D - 1) and D = 1 mod pi, both have the same valuation
    # and the same leading digit, which is all a level reads.
    D = one
    coords = [v % ctx.p] + [0] * (basis.dim() - 1)
    prev = 0
    while True:
        diff = z.sub(D)
        m = diff.valuation()
        if m == INF or m >= stop:
            break
        m = int(m)
        if m <= prev:
            raise InternalError("descent failed to advance past level %d" % m)
        prev = m
        s, kill_cols = (None, ()) if _kill_exponent(ctx, m) is None else _kill_columns(ctx, m)
        z, b = _cancel_digit(basis, z, m, diff.digit(m), kill_cols, coords)
        if b is not None:
            factor = one.add(ctx.teichmuller(b, cut).shift(s))
            D = D.mul(factor.powi(ctx.p))
            y = y.mul(factor)

    # The descent cancelled each generator g_i with g_i^(p - c_i), so its
    # p-th root divided by the product of those g_i is the certificate.
    den = ctx.one()
    for i in range(1, basis.dim()):
        if coords[i]:
            den = den.mul(basis.vectors[i][1])
    return UnitClassReduction(
        basis=basis,
        coords=FpVector(ctx.p, coords),
        normalized_rep=basis.combination(coords),
        root=y.shift(v // ctx.p),
        den=den,
        depth=stop,
    )


class ASClassReduction:
    """Outcome of reducing x in K+ modulo wp(K+) = {y^p - y} (char p): the
    coordinates of the class, its representative and its certificate.

    coords          FpVector of the class in basis = adapted_basis(ctx, "add",
                    window): the trace coefficient, then the k-digits of the
                    surviving poles, all of order prime to p
    normalized_rep  basis.combination(coords), the sum of the surviving pole
                    monomials plus the trace coefficient times the field's
                    fixed trace-one element
    certificate     y with x - wp(y) = normalized_rep + O(t^depth)
    """

    __slots__ = ("basis", "coords", "normalized_rep", "certificate", "depth")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def is_trivial(self):
        return self.coords.is_zero()

    def verify_against(self, x):
        y = self.certificate
        lhs = x.sub(y.powi(x.ctx.p).sub(y)).sub(self.normalized_rep)
        d = val(lhs)
        return d == INF or d >= min(self.depth, lhs.P)

    def __repr__(self):
        return "ASClassReduction(coords=%r, depth=%d)" % (list(self.coords.coords), self.depth)


def as_class_reduce(x, window=None):
    """Reduce x modulo wp(K+) to its coordinates over adapted_basis(ctx,
    "add", window) (char p).

    Poles of order divisible by p are absorbed by subtracting wp of an exact
    monomial; poles of prime-to-p order survive as coordinates.  The
    constant digit keeps only its trace, carried on a fixed trace-one
    element of k, and the positive-valuation tail is killed by the
    telescoping series y = -(w + w^p + w^(p^2) + ...).  A surviving pole
    deeper than the window raises OutOfWindowError; with no window, the
    basis is the one of the deepest surviving pole (window 1 if none).
    """
    ctx = x.ctx
    if ctx.characteristic != ctx.p:
        raise UnsupportedCaseError("as_class_reduce needs a char-p field")
    if x.P < 1:
        raise PrecisionError(
            "constant digit unknown at precision %s; cannot normalize" % x.P
        )
    depth = min(ctx.default_precision, x.P)

    z = x
    y = ctx.zero()
    poles = {}
    prev_order = None
    while True:
        v = z.valuation()
        if v == INF or v >= 0:
            break
        m = -int(v)
        if prev_order is not None and m >= prev_order:
            raise InternalError("pole absorption failed to advance at order %d" % m)
        prev_order = m
        a = z.digit(-m)
        if m % ctx.p == 0:
            mono = ctx.from_digits([(-m // ctx.p, a.pth_root())])
            z = z.sub(mono.powi(ctx.p).sub(mono))
            y = y.add(mono)
        else:
            poles[m] = a
            z = z.sub(ctx.from_digits([(-m, a)]))

    a0 = z.digit(0)
    s = a0.trace()
    theta = ctx.trace_one()
    b0 = ctx.k.wp_preimage(a0.sub(theta.scale(s)))
    if b0 is None:
        raise InternalError("trace-zero residue escaped the image of wp on k")
    if not b0.is_zero():
        mono = ctx.from_digits([(0, b0)])
        z = z.sub(mono.powi(ctx.p).sub(mono))
        y = y.add(mono)

    const = ctx.from_digits([(0, theta.scale(s))]) if s else ctx.zero()
    w = z.sub(const)
    if val(w) != INF and val(w) < 1:
        raise InternalError("constant normalization left a level-0 digit behind")
    # wp(-(w + w^p + ...)) = w, and the series terminates at the depth cap
    acc = ctx.zero()
    term = w.truncate(min(depth, w.P))
    while val(term) != INF and val(term) < depth:
        acc = acc.add(term)
        term = term.powi(ctx.p).truncate(min(depth, term.P))
    y = y.sub(acc)

    deepest = max(poles, default=0)
    basis = adapted_basis(ctx, "add", max(deepest, 1) if window is None else window)
    if deepest > basis.window:
        raise OutOfWindowError(
            "normal form has a pole of order %d outside window %d" % (deepest, basis.window)
        )
    # the level-m generators are tau(theta_j) t^(-m), theta_j the k-basis
    levels = basis.levels()
    coords = [s] + [0] * (basis.dim() - 1)
    for m, a in poles.items():
        here = [i for i, lvl in enumerate(levels) if lvl == m]
        for i, c in zip(here, a.fp_vector().coords):
            coords[i] = c
    return ASClassReduction(
        basis=basis,
        coords=FpVector(ctx.p, coords),
        normalized_rep=basis.combination(coords),
        certificate=y,
        depth=depth,
    )


# ---------------------------------------------------------------- bases


class AdaptedBasis:
    """A basis of the class quotient, one vector per filtration slot.

    vectors is a tuple of (label, element, level) sorted by level; mult
    bases start with the uniformizer line at level 0, additive bases with
    the trace line.  leads holds each generator's leading digit, read by
    certify(), which adapted_basis runs before it returns a basis.
    """

    __slots__ = ("ctx", "space", "window", "vectors", "leads", "_powers")

    def __init__(self, ctx, space, window, vectors):
        self.ctx = ctx
        self.space = space
        self.window = window
        self.vectors = tuple(vectors)
        self.leads = None
        self._powers = {}

    def power(self, i, c):
        """g_i^c for 1 <= c < p, computed once per (i, c)."""
        key = (i, c)
        if key not in self._powers:
            self._powers[key] = self.vectors[i][1].powi(c)
        return self._powers[key]

    def dim(self):
        return len(self.vectors)

    def combination(self, vec):
        """The element with coordinates vec: prod g_i^c_i (mult), the
        descent's normalized representative, or sum c_i g_i (add)."""
        ctx = self.ctx
        if self.space == "mult":
            x = self.power(0, vec[0]) if vec[0] else ctx.one()
            for i in range(1, len(vec)):
                if vec[i]:
                    x = x.mul(self.power(i, vec[i]))
            return x
        x = ctx.zero()
        for c, g in zip(vec, self.elements()):
            if c:
                x = x.add(g.scale_int(c))
        return x

    def elements(self):
        return [g for _, g, _ in self.vectors]

    def labels(self):
        return [lbl for lbl, _, _ in self.vectors]

    def levels(self):
        return [lvl for _, _, lvl in self.vectors]

    def certify(self):
        """Prove the classes independent by a graded certificate.

        Reads one leading digit per generator and checks:
          - each generator's leading digit sits at its own level: valuation
            1 for the uniformizer, v(g - 1) = b for a level-b unit, v(g) = -b
            for a pole of order b, v(g) = 0 for the trace line;
          - only the first vector sits at level 0, and the trace line has
            trace 1;
          - every other level is an obstruction level (nothing there is the
            leading digit of a p-th power resp. of a wp-image: prime to p,
            and below pe/(p-1) in char 0) whose digits have rank f, or it is
            the char-0 boundary pc, whose one digit a* lies outside the image
            of the level-pc kill map.
        Then a nonzero combination is never trivial: if its valuation (resp.
        trace) coefficient is zero, its least level with a nonzero
        coefficient carries a nonzero leading digit that no p-th power
        (resp. wp-image) has.  The digits are kept in self.leads; any failed
        check raises InternalError.
        """
        ctx = self.ctx
        leads = []
        by_level = {}
        for idx, (label, g, lvl) in enumerate(self.vectors):
            if (lvl == 0) != (idx == 0):
                raise InternalError(
                    "basis vector %s: exactly the first vector sits at level 0" % label
                )
            if self.space == "mult":
                w, at = (g, 1) if lvl == 0 else (g.sub(ctx.one(g.P)), lvl)
            else:
                w, at = g, -lvl
            if val(w) != at:
                raise InternalError(
                    "basis vector %s leads at %s instead of %d" % (label, val(w), at)
                )
            leads.append(w.digit(at))
            if lvl:
                by_level.setdefault(lvl, []).append(leads[-1].fp_vector())
        if self.space == "add" and leads[0].trace() != 1:
            raise InternalError("the trace line has trace %d, not 1" % leads[0].trace())
        for lvl, digits in sorted(by_level.items()):
            if lvl == ctx.pc:
                ok = len(digits) == 1 and not member(_boundary_data(ctx)[1], digits[0])
            else:
                free = _kill_exponent(ctx, lvl) is None
                ok = free and len(digits) == rref(digits).dim() == ctx.f
            if not ok:
                raise InternalError(
                    "adapted basis classes are dependent: the level-%d digits "
                    "fail the graded certificate" % lvl
                )
        self.leads = leads

    def __repr__(self):
        return "AdaptedBasis(%s, %s, dim=%d%s)" % (
            self.ctx.field_label(),
            self.space,
            self.dim(),
            "" if self.window is None else ", window=%d" % self.window,
        )


def adapted_basis(ctx, space="mult", window=None):
    """Build (and cache) an adapted basis of K*/(K*)^p or K+/wp(K+).

    Char 0: the full multiplicative quotient, no window.  Char p: both
    quotients are infinite-dimensional, so a window (deepest level kept) is
    required.  Independence is certified before the basis is returned, by
    d digit reads and one rank check per level (AdaptedBasis.certify).
    """
    if space not in ("mult", "add"):
        raise DomainError("space must be 'mult' or 'add', got %r" % (space,))
    if ctx.characteristic == 0:
        if space == "add":
            raise UnsupportedCaseError(
                "the additive quotient is only nontrivial in char p"
            )
        if window is not None:
            raise DomainError("char-0 mult bases are finite; no window applies")
    else:
        if window is None:
            raise DomainError("char-p bases need a window (deepest level kept)")
        window = int(window)
        if window < 1:
            raise DomainError("window must be >= 1, got %d" % window)

    key = ("basis", space, window)
    if key in ctx.cache:
        return ctx.cache[key]

    if space == "add":
        vectors = [("c", ctx.from_digits([(0, ctx.trace_one())]), 0)]
    else:
        vectors = [("t" if ctx.characteristic else "pi", ctx.pi(), 0)]
    # the obstruction levels: prime to p, and below pe/(p-1) in char 0
    top = first_trivial_level(ctx) - 1 if window is None else window
    for b in range(1, top + 1):
        if _kill_exponent(ctx, b) is not None:
            continue
        for sidx, theta in enumerate(ctx.k.basis()):
            tau = ctx.teichmuller(theta)
            if space == "add":
                vectors.append(("a%d_%d" % (b, sidx), tau.shift(-b), b))
            else:
                vectors.append(("u%d_%d" % (b, sidx), ctx.one().add(tau.shift(b)), b))
    if ctx.mu_p_present:
        _, _, a_star = _boundary_data(ctx)
        vectors.append(
            (
                "u%d_*" % ctx.pc,
                ctx.one().add(ctx.teichmuller(a_star).shift(ctx.pc)),
                ctx.pc,
            )
        )

    basis = AdaptedBasis(ctx, space, window, vectors)
    basis.certify()
    ctx.cache[key] = basis
    return basis


# ---------------------------------------------------------------- coordinates


def coordinates(basis, x):
    """Coordinates of the class of x in the adapted basis, as an FpVector.

    They are read off one reduction at the basis window, which works in
    these very generators: unit_class_reduce for the mult space (in char p:
    coordinates modulo U_(window+1), the quotient the basis spans),
    as_class_reduce for the additive one, which rejects input whose normal
    form has a pole deeper than the window with OutOfWindowError.

    The answer is checked by its certificate, with multiplications and no
    second descent: x = y^p * prod g_i^c_i up to U_stop in char 0 and up to
    U_(window+1) in char p, resp. x - wp(y) = sum c_i * g_i.  A failed
    identity raises InternalError; an element with too few digits to decide
    it raises PrecisionError.
    """
    ctx = basis.ctx
    if x.ctx is not ctx:
        raise DomainError("element and basis live over different fields")
    if basis is not adapted_basis(ctx, basis.space, basis.window):
        raise DomainError("coordinates are taken in the field's own adapted basis")
    reduce = unit_class_reduce if basis.space == "mult" else as_class_reduce
    red = reduce(x, basis.window)
    if not red.verify_against(x):
        raise InternalError("coordinate vector failed its certificate identity")
    return red.coords


# ---------------------------------------------------------------- filtration


def filtration_dims(ctx, index_range, space="mult"):
    """Codimension profile of the filtration over an index range.

    Returns [(i, codim)] where codim is the dimension of the i-th graded
    piece of the class filtration: for mult, level-i units modulo deeper
    ones and p-th powers; for add (char p), pole order -i modulo shallower
    classes.  Counted from an adapted basis and cross-checked by reducing
    random elements sitting at each level.
    """
    lo, hi = index_range
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise DomainError("empty index range (%d, %d)" % (lo, hi))
    if space == "mult":
        if lo < 0:
            raise DomainError("multiplicative filtration levels start at 0")
        window = None if ctx.characteristic == 0 else max(hi, 1)
    elif space == "add":
        if ctx.characteristic == 0:
            raise UnsupportedCaseError("the additive quotient is only nontrivial in char p")
        if hi > 0:
            raise DomainError("additive filtration indices are <= 0 (i = -pole order)")
        window = max(-lo, 1)
    else:
        raise DomainError("space must be 'mult' or 'add', got %r" % (space,))
    basis = adapted_basis(ctx, space, window)
    counts = Counter(basis.levels())
    out = [(i, counts[abs(i)]) for i in range(lo, hi + 1)]
    _crosscheck_dims(basis, out)
    return out


def _random_nonzero_digit(ctx, rng):
    """A nonzero element of k with coordinates drawn from rng."""
    while True:
        coords = [rng.randrange(ctx.p) for _ in range(ctx.f)]
        if any(coords):
            return ctx.k.elt(coords)


def _crosscheck_dims(basis, profile):
    """Sample an element at each level m = |i| > 0 of the profile and confirm
    that its coordinates are nonzero on a slot of level m exactly when the
    basis has a slot there.

    Mult samples are units 1 + tau(a) pi^m, which cannot reduce below m;
    levels the working precision cannot reduce them at are skipped.  Add
    samples are pole monomials tau(a) t^(-m), exact at every pole order.
    coordinates() checks each sample's certificate on the way.
    """
    ctx = basis.ctx
    rng = random.Random(0xD1)
    levels = basis.levels()
    for i, codim in profile:
        m = abs(i)
        if m == 0:
            continue
        a = _random_nonzero_digit(ctx, rng)
        if basis.space == "add":
            x = ctx.from_digits([(-m, a)])
        elif m + _PRECISION_SLACK + 1 > ctx.default_precision:
            continue
        else:
            if ctx.mu_p_present and m == ctx.pc:
                # a random boundary digit may lie in the kill image and reduce
                # away; the basis digit a* is the one that must survive
                a = _boundary_data(ctx)[2]
            x = ctx.one().add(ctx.teichmuller(a).shift(m))
        vec = coordinates(basis, x).coords
        if any(c and lvl == m for c, lvl in zip(vec, levels)) != bool(codim):
            raise InternalError(
                "level-%d sample reduced to coordinates %r against a basis count of %d"
                % (m, list(vec), codim)
            )
