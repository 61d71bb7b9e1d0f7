"""One-shot `compute` queries and the seed-independent checks on their answers.

`answer` makes the same library calls as `lfk compute <kind>` and returns
the answer as a short string.  A trivial class makes line_of raise
DomainError, and that outcome is itself the answer ("error DomainError"),
as the CLI would exit 2 on it.
"""


class Fields:
    """The query-mix fields, parsed, with the bases the CLI would build."""

    def __init__(self, lfk, specs):
        self.lfk = lfk
        self.ctx = {}
        self.window = {}
        for desc, window, slug in specs:
            self.ctx[slug] = lfk.parse_field(desc)
            self.window[slug] = window

    def build_bases(self):
        lfk = self.lfk
        for slug, ctx in self.ctx.items():
            w = self.window[slug]
            if w is None:
                lfk.adapted_basis(ctx)
            else:
                lfk.adapted_basis(ctx, "mult", w)
                lfk.adapted_basis(ctx, "add", w)

    def basis(self, slug, side):
        w = self.window[slug]
        if w is None:
            return self.lfk.adapted_basis(self.ctx[slug])
        return self.lfk.adapted_basis(self.ctx[slug], side, w)


def _source(q):
    """The literal whose line a level/break/norm-group/pair query uses."""
    return q["elt"] if "elt" in q else q["add"]


def _coords(lfk, fields, q, side, text):
    basis = fields.basis(q["field"], side)
    return tuple(lfk.coordinates(basis, lfk.parse_element(basis.ctx, text)).coords)


def answer(fields, q):
    """The answer string for query q, as the CLI computes it."""
    lfk = fields.lfk
    ctx = fields.ctx[q["field"]]
    window = fields.window[q["field"]]
    kind = q["kind"]
    try:
        if kind == "class":
            side = "add" if "add" in q else "mult"
            text = q.get("elt") or q[side]
            return "coords " + " ".join(map(str, _coords(lfk, fields, q, side, text)))
        line = lfk.line_of(lfk.parse_element(ctx, _source(q)))
        if kind == "level":
            return "delta %d" % line.level
        if kind == "break":
            ext = lfk.attach_extension(line)
            return "eps %d delta %d" % (lfk.ramification_break(ext), line.level)
        if kind == "pair":
            b = lfk.parse_element(ctx, q["mult"])
            if window is None:
                return "trivial" if lfk.pairs_trivially(line, b) else "nontrivial"
            return "value %d" % lfk.pairing_value(line, b, window=window)
        ext = lfk.attach_extension(line)
        sub = lfk.norm_class_subgroup(ext, window=window)
        rows = ";".join("".join(map(str, row)) for row in sub.basis)
        return "dim %d gens %s" % (sub.dim(), rows)
    except lfk.DomainError:
        return "error DomainError"


def _vadd(p, u, v):
    return tuple((a + b) % p for a, b in zip(u, v))


def check_invariants(fields, q, got):
    """Seed-independent checks of one answer; returns a list of problems.

    These use a second literal from the stream (q["partner"]):
    coordinates are additive across products (sums on the additive side),
    levels survive multiplying by a p-th power (adding an element of
    wp(K)), breaks equal levels (-1 for level 0), the char-p pairing value
    is additive in b and the char-0 verdict survives p-th powers, norm
    groups have codimension 1 in char 0 and at most 1 in char p, and the
    DomainError answer appears exactly on trivial classes.
    """
    lfk = fields.lfk
    ctx = fields.ctx[q["field"]]
    p = ctx.p
    char0 = fields.window[q["field"]] is None
    kind = q["kind"]
    bad = []
    if kind == "class":
        side = "add" if "add" in q else "mult"
        x = q.get("elt") or q[side]
        y = q["partner"]
        op = "+" if side == "add" else "*"
        lhs = _coords(lfk, fields, q, side, "(%s)%s(%s)" % (x, op, y))
        rhs = _vadd(p, _coords(lfk, fields, q, side, x), _coords(lfk, fields, q, side, y))
        if got != "coords " + " ".join(map(str, _coords(lfk, fields, q, side, x))):
            bad.append("class answer differs from a fresh computation")
        if lhs != rhs:
            bad.append("coordinates are not additive: %s vs %s" % (lhs, rhs))
        return bad
    src = _source(q)
    side = "mult" if char0 else "add"
    trivial = not any(_coords(lfk, fields, q, side, src))
    if (got == "error DomainError") != trivial:
        bad.append("DomainError answer %r but class triviality is %s" % (got, trivial))
        return bad
    if trivial:
        return bad
    if char0:
        twin = "(%s)*(%s)^%d" % (src, q["partner"], p)
    else:
        twin = "(%s)+(%s)^%d-(%s)" % (src, q["partner"], p, q["partner"])
    words = got.split()
    if kind in ("level", "break"):
        level = lfk.line_of(lfk.parse_element(ctx, twin)).level
        if int(words[-1]) != level:
            bad.append("level changed under a p-th power twist: %s vs %d" % (got, level))
        if kind == "break":
            eps, delta = int(words[1]), int(words[3])
            if eps != (delta if delta > 0 else -1):
                bad.append("break %d does not match level %d" % (eps, delta))
    elif kind == "pair":
        twin_q = dict(q)
        if char0:
            twin_q["mult"] = "(%s)*(%s)^%d" % (q["mult"], q["partner"], p)
            if answer(fields, twin_q) != got:
                bad.append("char-0 pairing verdict changed under a p-th power")
        else:
            other = dict(q, mult=q["partner"])
            prod = dict(q, mult="(%s)*(%s)" % (q["mult"], q["partner"]))
            a = int(answer(fields, other).split()[1])
            ab = int(answer(fields, prod).split()[1])
            if ab != (int(words[1]) + a) % p:
                bad.append("pairing value is not additive in b")
    elif kind == "norm-group":
        n = fields.basis(q["field"], "mult").dim()
        dim = int(words[1])
        ok = dim == n - 1 if char0 else dim in (n - 1, n)
        if not ok:
            bad.append("norm group of dim %d in a class space of dim %d" % (dim, n))
    return bad
