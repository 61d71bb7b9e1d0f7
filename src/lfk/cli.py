"""Command-line front end.

Three commands on top of the library:

  describe      print the field constants (p, f, e, c, pc, q, mu_p, d)
  compute       one computation: level, break, pair, norm-group, or class
  verify        run claim verifiers and emit reports

Exit codes separate "the claim is false" from "the tool broke": 0 all pass,
1 a verified claim failed, 2 bad input or unsupported case, 3 not enough
precision, 4 internal invariant violation.  Precision comes from --prec,
falling back to the LFK_PREC environment variable, falling back to the
library default.  With --format json the output is schema-stable and, for
verify, byte-identical across runs with the same field/window/seed.
"""

import argparse
import contextlib
import json
import os
import sys

from .class_spaces import adapted_basis, coordinates
from .errors import (
    DomainError,
    InternalError,
    LfkError,
    MalformedInputError,
    PrecisionError,
)
from .extensions import attach_extension, line_of, ramification_break
from .local_arith import parse_element, parse_field
from .pairings_verifiers import (
    claims_for,
    norm_class_subgroup,
    pairing_value,
    pairs_trivially,
    verify_claim,
)


# ------------------------------------------------------------ shared helpers


def _context(args):
    prec = args.prec
    if prec is None and os.environ.get("LFK_PREC"):
        try:
            prec = int(os.environ["LFK_PREC"])
        except ValueError:
            raise MalformedInputError(
                "LFK_PREC must be an integer, got %r" % os.environ["LFK_PREC"]
            )
    return parse_field(args.field, prec_override=prec)


def _window_arg(text):
    """The type of --window in every command: a positive level."""
    try:
        window = int(text)
    except ValueError:
        window = 0
    if window <= 0:
        raise argparse.ArgumentTypeError("window must be a positive level, got %r" % text)
    return window


def _mult_window(ctx, args):
    """The window of the mult basis: None in char 0, where no window applies."""
    return None if ctx.characteristic == 0 else args.window


def _first_element(ctx, args):
    """The first argument of level, pair and norm-group: a class of K*/(K*)^p
    from --elt in char 0, of K+/wp(K+) from --add in char p."""
    return parse_element(ctx, args.elt if ctx.characteristic == 0 else args.add)


def _monomial(labels, coords):
    parts = []
    for lbl, k in zip(labels, coords):
        if k == 1:
            parts.append(lbl)
        elif k:
            parts.append("%s^%d" % (lbl, k))
    return "*".join(parts) if parts else "1"


def _emit(args, table_lines, payload):
    """Print the output; a reader that closes the pipe early is no error."""
    text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(table_lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:  # keep the exit code; Python flushes stdout again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ------------------------------------------------------------ describe


def cmd_describe(args):
    ctx = _context(args)
    char0 = ctx.characteristic == 0
    payload = {
        "field": ctx.field_label(),
        "characteristic": ctx.characteristic,
        "p": ctx.p,
        "f": ctx.f,
        "e": ctx.e if char0 else None,
        "c": ctx.c,
        "pc": ctx.pc,
        "q": ctx.q,
        "mu_p": ctx.mu_p_present,
        "d": ctx.dim_mult_classes() if char0 else None,
    }

    def shown(key, value):
        if isinstance(value, bool):
            return "yes" if value else "no"
        if value is None:  # e is infinite in char p; c and pc may be undefined in char 0
            return "∞" if key == "e" else "-"
        return value

    hidden = {"characteristic"} | (set() if char0 else {"c", "pc", "d"})
    rows = ["%s = %s" % (k, shown(k, v)) for k, v in payload.items() if k not in hidden]
    _emit(args, rows, payload)
    return 0


# ------------------------------------------------------------ compute


def _compute_line(ctx, args):
    line = line_of(_first_element(ctx, args))
    return ["δ=%d" % line.level], {"delta": line.level, "space": line.space}


def _compute_break(ctx, args):
    line = line_of(parse_element(ctx, args.line))
    ext = attach_extension(line)
    eps = ramification_break(ext)
    return ["ε=%d" % eps], {"epsilon": eps, "delta": line.level}


def _compute_pair(ctx, args):
    b = parse_element(ctx, args.mult)
    a_line = line_of(_first_element(ctx, args))
    if ctx.characteristic == 0:
        trivial = pairs_trivially(a_line, b, window=args.window)
        value = None
    else:
        value = pairing_value(a_line, b, window=args.window)
        trivial = value == 0
    word = "trivial" if trivial else "nontrivial"
    return [word], {"result": word, "value": value}


def _compute_norm_group(ctx, args):
    line = line_of(_first_element(ctx, args))
    ext = attach_extension(line)
    w = _mult_window(ctx, args)
    sub = norm_class_subgroup(ext, window=w)
    labels = adapted_basis(ctx, "mult", w).labels()
    lines = ["labels: %s" % " ".join(labels), "dim = %d" % sub.dim()]
    lines += ["gen: %s" % _monomial(labels, row) for row in sub.basis]
    payload = {
        "labels": labels,
        "dim": sub.dim(),
        "generators": [list(row) for row in sub.basis],
    }
    return lines, payload


def _compute_class(ctx, args):
    text = args.elt if ctx.characteristic == 0 else args.mult
    if text is not None:
        basis = adapted_basis(ctx, "mult", _mult_window(ctx, args))
    else:
        basis, text = adapted_basis(ctx, "add", args.window), args.add
    vec = coordinates(basis, parse_element(ctx, text))
    labels = basis.labels()
    lines = [
        "labels: %s" % " ".join(labels),
        "coords: %s" % " ".join(str(c) for c in vec.coords),
        "class = %s" % _monomial(labels, vec.coords),
    ]
    return lines, {"labels": labels, "coords": list(vec.coords)}


_COMPUTE = {
    "level": _compute_line,
    "break": _compute_break,
    "pair": _compute_pair,
    "norm-group": _compute_norm_group,
    "class": _compute_class,
}

# the element flags each kind reads, in char 0 and in char p: every word is
# needed, and a word "a|b" takes the first of --a and --b that is given
_READS = {
    "level": ("elt", "add"),
    "break": ("line", "line"),
    "pair": ("mult elt", "mult add"),
    "norm-group": ("elt", "add"),
    "class": ("elt", "mult|add"),
}


def _check_element_flags(ctx, args):
    """MalformedInputError (exit 2) naming the first element flag that the
    kind needs and lacks, else one that it was given and does not read."""
    where = "compute %s over a char-%s field" % (args.what, "p" if ctx.characteristic else "0")
    read = []
    for word in _READS[args.what][1 if ctx.characteristic else 0].split():
        given = [f for f in word.split("|") if getattr(args, f) is not None]
        if not given:
            raise MalformedInputError(
                "%s needs %s" % (where, " or ".join("--" + f for f in word.split("|")))
            )
        read.append(given[0])
    for flag in ("elt", "mult", "add", "line"):
        if flag not in read and getattr(args, flag) is not None:
            raise MalformedInputError(
                "%s reads %s, not --%s" % (where, " and ".join("--" + f for f in read), flag)
            )


def cmd_compute(args):
    ctx = _context(args)
    _check_element_flags(ctx, args)
    table_lines, payload = _COMPUTE[args.what](ctx, args)
    _emit(args, table_lines, payload)
    return 0


# ------------------------------------------------------------ verify


@contextlib.contextmanager
def _writing(path):
    """An OSError while writing path is bad input (exit 2) that names it."""
    try:
        yield
    except OSError as exc:
        raise MalformedInputError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def cmd_verify(args):
    ctx = _context(args)
    wanted = list(args.claims)
    if not wanted or wanted == ["all"]:
        wanted = list(claims_for(ctx))
    if args.out:  # an unusable --out is bad input, found before any claim runs
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
    reports = [
        verify_claim(ctx, cid, window=args.window, seed=args.seed) for cid in wanted
    ]
    for rep in reports if args.out else ():
        path = os.path.join(args.out, "%s.json" % rep.claim_id)
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(rep.to_json(), indent=2) + "\n")
    failed = [rep.claim_id for rep in reports if rep.status == "fail"]
    lines = ["%-7s %s" % (rep.claim_id, rep.status) for rep in reports]
    lines.append(
        "%d/%d claims pass on %s"
        % (len(reports) - len(failed), len(reports), ctx.field_label())
    )
    if failed:
        lines.append("failing: %s" % ", ".join(failed))
    _emit(args, lines, [rep.to_json() for rep in reports])
    return 1 if failed else 0


# ------------------------------------------------------------ parser / entry


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lfk",
        description="Exact invariants of p-fields at exponent p: class "
        "filtrations, degree-p extensions, breaks, norm groups, pairings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--field", required=True, help="field descriptor, e.g. 'Qp p=2 f=1'")
        sp.add_argument("--prec", type=int, default=None, help="precision override (else LFK_PREC, else default)")
        sp.add_argument("--format", choices=("table", "json"), default="table")

    def windowed(sp):
        common(sp)
        sp.add_argument(
            "--window", type=_window_arg, default=None,
            help="working window for char-p quotients (a positive level; ignored in char 0)",
        )

    sp = sub.add_parser("describe", help="print the field constants")
    common(sp)
    sp.set_defaults(func=cmd_describe)

    sp = sub.add_parser("compute", help="one computation on one field")
    sp.add_argument("what", choices=sorted(_COMPUTE))
    windowed(sp)
    sp.add_argument("--elt", help="element expression (char-0 class, e.g. '-1' or '2*pi')")
    sp.add_argument("--mult", help="multiplicative-side element expression")
    sp.add_argument("--add", help="additive-side element expression (char p, e.g. 't^-1')")
    sp.add_argument("--line", help="element spanning the line whose extension is meant")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("verify", help="run claim verifiers")
    sp.add_argument("claims", nargs="*", help="claim ids, or 'all' (default)")
    windowed(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument("--out", default=None, help="directory for per-claim JSON reports")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    """Entry point; returns the exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PrecisionError as exc:
        print("precision error: %s" % exc, file=sys.stderr)
        return 3
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except LfkError as exc:  # pragma: no cover - future error classes
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except Exception as exc:  # anything else is a bug: one line, no traceback
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
