"""Workload definitions: the fields each workload runs and the seeded query stream.

Nothing here imports lfk, so the parent process can plan a run without
paying for the library.  Queries are plain dicts of literal strings, the
same text a user would pass to `lfk compute`.
"""

import random

# (descriptor, window, slug).  Windows follow the bundled acceptance runs.
VERIFY_FIELDS = {
    "verify-char0": (
        ("Qp p=2 f=1", None, "Q2"),
        ("Qp p=2 f=2", None, "Q2f2"),
        ("Qp p=3 f=1 eis=3,3,1", None, "Q3e2"),
        ("Qp p=2 f=1 eis=-2,0,0,1", None, "Q2e3"),
        ("Qp p=3 f=2 eis=3,3,1", None, "Q3f2e2"),
    ),
    "verify-charp": (
        ("Fq((t)) p=2 f=1", 9, "F2t"),
        ("Fq((t)) p=3 f=1", 6, "F3t"),
        ("Fq((t)) p=2 f=2", 5, "F4t"),
    ),
}

QUERY_FIELDS = (
    ("Qp p=3 f=2 eis=3,3,1", None, "Q3f2e2"),
    ("Fq((t)) p=2 f=2", 5, "F4t"),
)

WORKLOADS = ("verify-char0", "verify-charp", "query-mix")

KINDS = ("class", "level", "break", "pair", "norm-group")

# Queries per query-mix episode: enough that p99 has ten samples beyond
# it within a single episode.
STREAM_LENGTH = 1000

DEFAULT_SEED = 0


def _monomial(rng, p, gen, unit, k):
    """c * unit^i * gen^k with c a nonzero digit and i in {0, 1}."""
    factors = []
    c = rng.randrange(1, p)
    if c != 1:
        factors.append(str(c))
    if rng.random() < 0.5:
        factors.append(unit)
    factors.append("%s^%d" % (gen, k))
    return "*".join(factors)


def _char0_unit(rng, p):
    terms = ["1"] + [_monomial(rng, p, "pi", "w", rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
    return "+".join(terms)


def _char0_element(rng, p):
    unit = _char0_unit(rng, p)
    v = rng.choice((0, 0, 1, 2))
    return unit if not v else "(%s)*pi^%d" % (unit, v)


def _charp_mult(rng, p):
    terms = ["1"] + [_monomial(rng, p, "t", "g", rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
    unit = "+".join(terms)
    return unit if rng.random() < 0.7 else "(%s)*t" % unit


def _charp_add(rng, p, window):
    """A sum of pole terms no deeper than the window, plus an optional constant."""
    terms = [_monomial(rng, p, "t", "g", -rng.randint(1, window)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        terms.append(rng.choice(("1", "g")))
    return "+".join(terms)


def query_stream(seed, length=STREAM_LENGTH):
    """The seeded stream: a list of query dicts.

    Every block of ten consecutive queries holds each (field, kind) pair
    once, in seeded order, so every seed asks the same mix and only the
    literals differ.  The uniform mix and the literal shapes are assumed,
    not taken from usage data, which does not exist.  Char-p class queries alternate between the
    multiplicative and the additive side.  Each query carries its kind,
    the field slug and the literal arguments the CLI would receive, plus
    a "partner" literal that only the invariant checks use.
    """
    rng = random.Random("query-mix:%d" % seed)
    combos = [(spec, kind) for spec in QUERY_FIELDS for kind in KINDS]
    out = []
    charp_classes = 0
    while len(out) < length:
        for (desc, window, slug), kind in rng.sample(combos, len(combos)):
            p = int(desc.split("p=")[1].split()[0])
            q = {"i": len(out), "kind": kind, "field": slug}
            if window is None:
                q["elt"] = _char0_element(rng, p)
                if kind == "pair":
                    q["mult"] = _char0_element(rng, p)
                q["partner"] = _char0_element(rng, p)
            elif kind == "class":
                charp_classes += 1
                if charp_classes % 2:
                    q["mult"] = _charp_mult(rng, p)
                    q["partner"] = _charp_mult(rng, p)
                else:
                    q["add"] = _charp_add(rng, p, window)
                    q["partner"] = _charp_add(rng, p, window)
            elif kind == "pair":
                q["add"] = _charp_add(rng, p, window)
                q["mult"] = _charp_mult(rng, p)
                q["partner"] = _charp_mult(rng, p)
            else:
                q["add"] = _charp_add(rng, p, window)
                q["partner"] = _charp_add(rng, p, window)
            out.append(q)
    return out[:length]
