"""Test-side reading of an additive reduction's coordinates.

as_class_reduce returns coordinates over its adapted basis; the tests
check facts about the normal form (which poles survive, with which
digits, and the trace coefficient) by reading them back off those
coordinates and the basis levels.
"""


def poles_and_trace(red):
    """({pole order: k-digit} of the surviving poles, trace coefficient)."""
    k = red.basis.ctx.k
    by_level = {}
    for c, lvl in zip(red.coords.coords, red.basis.levels()):
        by_level.setdefault(lvl, []).append(c)
    (trace,) = by_level.pop(0)
    return {m: k.elt(cs) for m, cs in by_level.items() if any(cs)}, trace


def as_level(red):
    """The deepest surviving pole, 0 for the trace line, None if trivial."""
    poles, trace = poles_and_trace(red)
    return max(poles) if poles else (0 if trace else None)
