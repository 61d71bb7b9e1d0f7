"""CLI behaviour: output contracts, exit codes, precision plumbing.

main() returns the exit code instead of raising, so every test drives the
real argv path.  Table output is checked loosely (it carries no stability
promise); json output is checked for schema and byte determinism.
"""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfk
from lfk.class_spaces import adapted_basis, unit_class_reduce
from lfk.cli import main
from lfk.errors import MalformedInputError, PrecisionError
from lfk import pairings_verifiers
from lfk.extensions import DegreePExtension, ExtElement, line_break, line_of
from lfk.fp_linalg import FpVector, member, rref
from lfk.local_arith import INF, parse_element, parse_field, series_residue_and_dlog, val


Q2 = "Qp p=2 f=1"
Q3Z = "Qp p=3 f=1 eis=3,3,1"
Q3F2E2 = "Qp p=3 f=2 eis=3,3,1"
Q11Z = "Qp p=11 f=1 eis=11,55,165,330,462,462,330,165,55,11,1"
F2T = "Fq((t)) p=2 f=1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ describe


def test_describe_q2(capsys):
    code, out, _ = run(capsys, "describe", "--field", Q2)
    assert code == 0
    for line in ("p = 2", "e = 1", "c = 1", "pc = 2", "d = 3", "mu_p = yes"):
        assert line in out


def test_describe_char_p_has_infinite_e(capsys):
    code, out, _ = run(capsys, "describe", "--field", F2T)
    assert code == 0
    assert "e = ∞" in out
    assert "\nd =" not in out


def test_describe_q3_zeta(capsys):
    code, out, _ = run(capsys, "describe", "--field", Q3Z)
    assert code == 0
    for line in ("e = 2", "c = 1", "pc = 3", "d = 4", "mu_p = yes"):
        assert line in out


def test_describe_json_schema(capsys):
    code, out, _ = run(capsys, "describe", "--field", Q2, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["characteristic"] == 0
    assert (doc["p"], doc["e"], doc["pc"], doc["d"]) == (2, 1, 2, 3)
    assert doc["mu_p"] is True

    code, out, _ = run(capsys, "describe", "--field", F2T, "--format", "json")
    doc = json.loads(out)
    assert doc["characteristic"] == 2
    assert doc["e"] is None and doc["d"] is None
    assert doc["mu_p"] is False


def test_describe_no_mu_p_field(capsys):
    # p=3, e=1: no c, no pc, no boundary line
    code, out, _ = run(capsys, "describe", "--field", "Qp p=3 f=1")
    assert code == 0
    assert "c = -" in out and "pc = -" in out and "mu_p = no" in out
    assert "d = 2" in out


# ------------------------------------------------------------ element parsing


def test_parse_element_char0():
    ctx = parse_field(Q2)
    assert val(parse_element(ctx, "-1").add(ctx.one())) == INF
    x = parse_element(ctx, "2*pi^2 + 1")  # pi = 2, so this is 9
    assert val(x.sub(ctx.from_int(9))) == INF
    assert val(parse_element(ctx, "pi^3")) == 3


def test_parse_element_char_p():
    ctx = parse_field(F2T)
    x = parse_element(ctx, "t^-1 + 1 + t^2")
    assert val(x) == -1
    # over F2: t*x = 1 + t + t^3
    back = ctx.one().add(ctx.pi()).add(ctx.pi().powi(3))
    assert val(x.mul(ctx.pi()).sub(back)) == INF


def test_parse_element_rejects_garbage():
    ctx = parse_field(Q2)
    with pytest.raises(MalformedInputError) as info:
        parse_element(ctx, "2 $ 3")
    assert "position" in str(info.value)
    with pytest.raises(MalformedInputError):
        parse_element(ctx, "t^2")  # wrong generator for a char-0 field
    with pytest.raises(MalformedInputError):
        parse_element(ctx, "")
    with pytest.raises(MalformedInputError):
        parse_element(ctx, "1 +")
    with pytest.raises(MalformedInputError):
        parse_element(ctx, "2²")  # a digit to str.isdigit, not to int()


# ------------------------------------------------------------ compute


def test_compute_level_of_minus_one(capsys):
    code, out, _ = run(capsys, "compute", "level", "--field", Q2, "--elt", "-1")
    assert code == 0
    assert out.strip() == "δ=1"


def test_compute_break_of_two(capsys):
    code, out, _ = run(capsys, "compute", "break", "--field", Q2, "--line", "2")
    assert code == 0
    assert out.strip() == "ε=2"


def test_compute_pair_schmid_example(capsys):
    code, out, _ = run(
        capsys, "compute", "pair", "--field", F2T, "--mult", "1+t", "--add", "t^-1"
    )
    assert code == 0
    assert out.strip() == "nontrivial"


def test_compute_pair_char_p_json_value(capsys):
    code, out, _ = run(
        capsys, "compute", "pair", "--field", F2T, "--mult", "1+t", "--add", "t^-1",
        "--format", "json",
    )
    assert json.loads(out) == {"result": "nontrivial", "value": 1}


def test_compute_pair_reads_the_line_level_past_the_window(capsys):
    # the pair is read in window max(window, level) = 11, where 1 + t^11 is
    # not yet trivial; in window 5 it would be, and the value would read 0
    ctx = parse_field(F2T)
    want = series_residue_and_dlog(parse_element(ctx, "t^-11"), parse_element(ctx, "1+t^11"))
    code, out, _ = run(
        capsys, "compute", "pair", "--field", F2T, "--add", "t^-11", "--mult", "1+t^11",
        "--window", "5", "--format", "json",
    )
    assert code == 0 and want == 1
    assert json.loads(out) == {"result": "nontrivial", "value": want}


def test_compute_pair_char0_membership(capsys):
    code, out, _ = run(capsys, "compute", "pair", "--field", Q2, "--elt", "5", "--mult", "-1")
    assert code == 0 and out.strip() == "trivial"
    code, out, _ = run(capsys, "compute", "pair", "--field", Q2, "--elt", "5", "--mult", "2")
    assert code == 0 and out.strip() == "nontrivial"


def test_compute_norm_group_q2(capsys):
    code, out, _ = run(capsys, "compute", "norm-group", "--field", Q2, "--elt", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["pi", "u1_0", "u2_*"]
    assert doc["dim"] == 2
    # N(sqrt 5) mod squares is generated by -1 and 5: no pi component
    assert doc["generators"] == [[0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "field, elt",
    # both walks ran out of digits while the schedule took running powers
    # of pi_E: exit 4, "descent failed to advance past level 10", and exit
    # 2, "cannot reduce zero".  The Q11(zeta11) walk exited 2 too while E
    # was held over the powers of its generator: a norm's coefficients
    # cancelled down to nothing
    [
        ("Qp p=2 f=1 eis=2,0,0,0,0,1", "1+pi^7"),
        ("Qp p=7 f=1 eis=7,21,35,35,21,7,1", "1+pi^6"),
        (Q11Z, "1+pi^9"),
    ],
)
def test_compute_norm_group_of_a_deeply_ramified_line(capsys, field, elt):
    code, out, err = run(capsys, "compute", "norm-group", "--field", field, "--elt", elt, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    ctx = parse_field(field)
    basis = adapted_basis(ctx)
    n = basis.dim()
    assert doc["labels"] == basis.labels() and doc["dim"] == n - 1
    # N(E*) holds U_(b+1), b the break: every mult slot of unit level > b
    b = line_break(line_of(parse_element(ctx, elt)))
    span = rref([FpVector(ctx.p, g) for g in doc["generators"]], p=ctx.p, ambient_dim=n)
    deep = [c for c, lvl in enumerate(basis.levels()) if lvl > b]
    assert deep and all(member(span, FpVector(ctx.p, [int(j == c) for j in range(n)])) for c in deep)


def test_compute_break_of_a_level_one_q11_zeta11_line(capsys):
    # exit 3 while E was held over the powers of its generator: the
    # conjugate-product break lost every digit
    code, out, err = run(capsys, "compute", "break", "--field", Q11Z, "--line", "1+pi^10")
    assert code == 0, err
    assert out.strip() == "ε=1"


def test_a_vanished_walk_norm_exits_3(capsys, monkeypatch):
    # a nonzero element whose conjugate product vanishes to working
    # precision, pi^30 + O(pi^29) y: the norm says the digits went (exit
    # 3), where the descent of the vanished norm said "cannot reduce zero"
    # (exit 2)
    def vanishing(E, window):
        ctx = E.base
        yield ExtElement(E, [ctx.one().shift(30), ctx.zero(29)] + [E.zero] * (ctx.p - 2))

    monkeypatch.setattr(pairings_verifiers, "_norm_generator_schedule", vanishing)
    code, _, err = run(capsys, "compute", "norm-group", "--field", Q2, "--elt", "2")
    assert code == 3, err
    assert "norm vanished" in err


def test_compute_norm_group_char_p_needs_window(capsys):
    code, _, err = run(capsys, "compute", "norm-group", "--field", F2T, "--add", "t^-1")
    assert code == 2
    assert "window" in err


def test_compute_class_q2(capsys):
    # a positive --window is accepted and ignored in char 0
    for window in ((), ("--window", "3")):
        code, out, _ = run(
            capsys, "compute", "class", "--field", Q2, "--elt", "-1", "--format", "json", *window
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"labels": ["pi", "u1_0", "u2_*"], "coords": [0, 1, 1]}


def test_compute_class_char_p_add(capsys):
    code, out, _ = run(
        capsys, "compute", "class", "--field", F2T, "--add", "t^-3", "--window", "5"
    )
    assert code == 0
    assert "class = a3_0" in out


def test_compute_level_without_boundary_index(capsys):
    # Q3 has no p-th roots of unity, so Kummer lines are refused
    code, _, err = run(capsys, "compute", "level", "--field", "Qp p=3 f=1", "--elt", "3")
    assert code == 2
    assert "roots of unity" in err


def test_compute_missing_argument(capsys):
    code, _, err = run(capsys, "compute", "level", "--field", Q2)
    assert code == 2
    assert "--elt" in err


def test_char_p_level_reads_the_add_flag(capsys):
    code, out, err = run(capsys, "compute", "level", "--field", F2T, "--add", "t^-3")
    assert code == 0, err
    assert out.strip() == "δ=3"


@pytest.mark.parametrize("command", ["level", "pair", "norm-group"])
def test_first_argument_flag_follows_the_characteristic(capsys, command):
    # level, pair and norm-group read their first argument from --elt in
    # char 0 and from --add in char p, and name that flag when it is missing
    for field, flag, other in ((Q2, "--elt", "--add"), (F2T, "--add", "--elt")):
        code, _, err = run(
            capsys, "compute", command, "--field", field, "--mult", "3", other, "5",
            "--window", "3",
        )
        assert code == 2 and flag in err and other not in err, (field, err)


# ------------------------------------------------------------ verify


def test_verify_all_q2(capsys):
    code, out, _ = run(capsys, "verify", "--field", Q2, "all")
    assert code == 0
    assert "6/6 claims pass" in out


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "--field", F2T, "S3.16", "--window", "5")
    assert code == 0
    assert "S3.16" in out and "pass" in out


def test_verify_precision_failure_exits_3(capsys):
    code, _, err = run(capsys, "verify", "--field", Q2, "S2.10", "--prec", "4")
    assert code == 3
    assert "precision" in err
    # a char-p window whose reading depth (window + 3) is past the field's
    # working precision
    argv = ("compute", "class", "--field", "Fq((t)) p=2 f=1 prec=8", "--mult", "1+t")
    assert run(capsys, *argv, "--window", "5")[0] == 0
    code, _, err = run(capsys, *argv, "--window", "6")
    assert code == 3
    assert "precision" in err


def test_a_precision_error_names_the_prec_the_field_needs(capsys):
    # window 80 reads digits to level 80 plus two of slack: the field's
    # precision 64 binds, so the message names the descriptor key to add,
    # and a field with it reads the class
    code, _, err = run(capsys, "verify", "all", "--field", F2T, "--window", "80")
    assert code == 3
    assert "needs precision >= 83" in err and "field 64; add prec=83 to the field descriptor" in err
    argv = ("compute", "class", "--field", F2T + " prec=83", "--mult", "1+t", "--window", "80")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[-1] == "class = u1_0"
    # an element whose own precision binds gets no such hint
    q2 = parse_field(Q2)
    with pytest.raises(PrecisionError, match="element has 3, field 64$"):
        unit_class_reduce(q2.one().add(q2.pi()).truncate(3))


@pytest.mark.parametrize(
    "field, elt, want",
    [
        (Q2, "p^100", "class = 1"),
        (Q2, "p^50*p^50", "class = 1"),
        (Q2, "5*p^81", "class = pi*u2_*"),
        (Q3F2E2, "pi^200", "class = pi^2"),
        (Q3F2E2 + " prec=128", "pi^200", "class = pi^2"),
        (Q3F2E2, "pi^-200", "class = pi"),
    ],
)
def test_a_literal_that_outgrows_the_precision_is_not_zero(capsys, field, elt, want):
    # the p-content of an element lives in its exponent of p, not in a
    # numerator held modulo p^coeff_prec, so a power or product of nonzero
    # factors keeps its value however large it grows; each answer is the
    # one a field with a larger prec= gives
    code, out, _ = run(capsys, "compute", "class", "--field", field, "--elt", elt)
    assert code == 0 and out.splitlines()[-1] == want
    for zero in ("1-1", "0*pi", "(1-1)^3"):
        assert run(capsys, "compute", "class", "--field", field, "--elt", zero)[0] == 2


@pytest.mark.parametrize(
    "field, elt, want",
    [
        (Q2, "p^100000000", "class = 1"),
        (Q2, "1+p^100000000000", "class = 1"),
        (Q2, "pi^-100000000", "class = 1"),
        (Q3F2E2, "pi^1000000001", "class = pi^2"),
        (Q3F2E2, "pi^-1000000001", "class = pi"),
    ],
)
def test_a_literal_with_a_huge_exponent_answers_promptly(field, elt, want):
    # a power of pi past the cached range is built by squaring, and a sum
    # scales its higher term by p^k modulo p^coeff_prec, so neither time nor
    # memory grows with the exponent; the child's address space is capped so
    # that a regression fails here instead of filling the machine's memory
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lfk.__file__)))
    limit = (1 << 30, 1 << 30)
    proc = subprocess.run(
        [sys.executable, "-m", "lfk.cli", "compute", "class", "--field", field, "--elt", elt],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == want, proc.stderr


@pytest.mark.parametrize(
    "elt, want",
    [("18446744073709551616", "class = 1"), ("5*2417851639229258349412352", "class = pi*u2_*")],
)
def test_an_integer_literal_divisible_by_p_reads_as_a_power_of_p(capsys, elt, want):
    # 2^64 and 5 * 2^81 written out in decimal read as p^64 and 5*p^81
    code, out, _ = run(capsys, "compute", "class", "--field", Q2, "--elt", elt)
    assert code == 0 and out.splitlines()[-1] == want


@pytest.mark.parametrize("field", [Q2, Q3Z, Q3F2E2, "Qp p=2 f=1 eis=-2,0,0,1"])
def test_an_integer_token_answers_as_its_u_times_p_power_literal(capsys, field):
    # an int token n = p^k * u is one constructor call at the precision of
    # the product u*p^k: the same t, b and P, the same value to precision,
    # and the same class as the literal written as that product
    ctx = parse_field(field)
    p = ctx.p
    for k in (1, 2, 5):
        for u in (1, p + 1, p**3 - 1):
            token, product = str(u * p**k), "%d*p^%d" % (u, k)
            x, y = parse_element(ctx, token), parse_element(ctx, product)
            assert (x.t, x.b, x.P) == (y.t, y.b, y.P) and x.eq_to_precision(y), (field, token)
            answers = [run(capsys, "compute", "class", "--field", field, "--elt", elt)
                       for elt in (token, product)]
            assert answers[0] == answers[1] and answers[0][0] == 0, (field, token)


def test_lfk_prec_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LFK_PREC", "4")
    code, _, _ = run(capsys, "verify", "--field", Q2, "S2.10")
    assert code == 3
    # an explicit flag wins over the environment
    code, _, _ = run(capsys, "verify", "--field", Q2, "S2.10", "--prec", "64")
    assert code == 0
    monkeypatch.setenv("LFK_PREC", "not-a-number")
    code, _, err = run(capsys, "verify", "--field", Q2, "S2.10")
    assert code == 2
    assert "LFK_PREC" in err


def test_verify_unknown_claim_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--field", Q2, "S9.99")
    assert code == 2
    assert "unknown claim" in err


def test_verify_inapplicable_claim_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--field", Q2, "S8.34")
    assert code == 2
    assert "does not apply" in err


def test_verify_internal_error_exits_4(capsys, monkeypatch):
    from lfk.errors import InternalError
    import lfk.cli as cli_mod

    def boom(*a, **kw):
        raise InternalError("synthetic invariant failure")

    monkeypatch.setattr(cli_mod, "verify_claim", boom)
    code, _, err = run(capsys, "verify", "--field", Q2, "S2.10")
    assert code == 4
    assert "internal" in err


def test_verify_json_byte_determinism(capsys):
    args = ("verify", "--field", Q2, "all", "--format", "json", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    reports = json.loads(out1)
    assert [r["claim_id"] for r in reports] == [
        "S2.10", "S4.22", "S5.27", "S6.29", "S7.31", "S8.33",
    ]
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["runtime_ms"] is None for r in reports)


def test_verify_out_dir_writes_reports(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, _, _ = run(
        capsys, "verify", "--field", Q2, "S2.10", "S4.22", "--out", str(out_dir)
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["S2.10.json", "S4.22.json"]
    doc = json.loads((out_dir / "S4.22.json").read_text())
    assert doc["claim_id"] == "S4.22" and doc["status"] == "pass"
    # a second run reproduces the files byte for byte
    first = (out_dir / "S2.10.json").read_bytes()
    run(capsys, "verify", "--field", Q2, "S2.10", "--out", str(out_dir))
    assert (out_dir / "S2.10.json").read_bytes() == first


@pytest.mark.parametrize("under", [False, True])  # the file itself, a path under it
def test_verify_unusable_out_is_bad_input_before_any_claim_runs(capsys, monkeypatch, tmp_path, under):
    import lfk.cli as cli_mod

    ran = []
    monkeypatch.setattr(cli_mod, "verify_claim", lambda ctx, cid, **kw: ran.append(cid))
    blocker = tmp_path / "reports"
    blocker.write_text("a file\n")
    out = blocker / "sub" if under else blocker
    code, stdout, err = run(capsys, "verify", "--field", Q2, "all", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and str(out) in err and "Traceback" not in err
    assert ran == [] and blocker.read_text() == "a file\n"


def test_verify_unwritable_report_is_bad_input(capsys, tmp_path):
    (tmp_path / "S2.10.json").mkdir()
    code, stdout, err = run(capsys, "verify", "--field", Q2, "S2.10", "--out", str(tmp_path))
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and str(tmp_path / "S2.10.json") in err and "Traceback" not in err


def test_bad_field_descriptor_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--field", "Zp p=2", "all")
    assert code == 2
    assert "Qp" in err


def test_argparse_errors_return_2(capsys):
    assert main(["compute", "frobnicate", "--field", Q2]) == 2
    assert main([]) == 2


def test_window_zero_is_rejected(capsys):
    code, _, err = run(capsys, "verify", "S3.16", "--field", F2T, "--window", "0")
    assert code == 2
    assert "window" in err
    code, _, err = run(
        capsys, "compute", "pair", "--field", F2T, "--mult", "1+t", "--add", "t^-1",
        "--window", "0",
    )
    assert code == 2
    assert "window" in err


def test_char0_pair_rejects_nonpositive_window(capsys):
    # char 0 has no use for the window, but a bad one is still bad input,
    # for every command in both characteristics
    commands = [
        ("describe",),
        ("compute", "class", "--elt", "5", "--mult", "1+t"),
        ("compute", "level", "--elt", "5", "--add", "t^-1"),
        ("compute", "break", "--line", "5"),
        ("compute", "pair", "--elt", "2", "--mult", "3", "--add", "t^-1"),
        ("compute", "norm-group", "--elt", "5", "--add", "t^-1"),
        ("verify", "all"),
    ]
    for field in (Q2, F2T):
        for argv in commands:
            for window in ("0", "-5"):
                code, _, err = run(capsys, *argv, "--field", field, "--window", window)
                assert code == 2, (field, argv, window)
                assert "window" in err


def test_flags_a_command_never_reads_are_rejected(capsys, tmp_path):
    # --seed and --out belong to verify alone, --window to compute and verify
    for argv, flag in (
        (("describe", "--field", Q2, "--seed", "1"), "--seed"),
        (("describe", "--field", Q2, "--out", str(tmp_path)), "--out"),
        (("compute", "class", "--field", Q2, "--elt", "5", "--seed", "1"), "--seed"),
        (("compute", "class", "--field", Q2, "--elt", "5", "--out", str(tmp_path)), "--out"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert flag in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("level", "--field", Q2, "--elt", "5", "--add", "t^-3"), "--add"),
        (("norm-group", "--field", Q2, "--elt", "5", "--add", "t"), "--add"),
        (("break", "--field", Q2, "--line", "5", "--add", "3"), "--add"),
        (("pair", "--field", Q2, "--elt", "5", "--mult", "2", "--line", "3"), "--line"),
        (("class", "--field", Q2, "--elt", "5", "--mult", "3"), "--mult"),
        (("level", "--field", F2T, "--add", "t^-3", "--elt", "5"), "--elt"),
        (("break", "--field", F2T, "--line", "t^-3", "--mult", "1+t"), "--mult"),
        (("norm-group", "--field", F2T, "--add", "t^-1", "--window", "3", "--mult", "1+t"), "--mult"),
        (("pair", "--field", F2T, "--add", "t^-1", "--mult", "1+t", "--elt", "5"), "--elt"),
        (("class", "--field", F2T, "--mult", "1+t", "--add", "t^-1", "--window", "3"), "--add"),
    ],
)
def test_element_flags_compute_does_not_read_are_rejected(capsys, argv, flag):
    # an element flag the kind and characteristic ignore is bad input, as
    # --seed is for describe; class in char p reads --mult when both are given
    code, out, err = run(capsys, "compute", *argv)
    assert code == 2 and out == "", err
    assert err.rstrip().endswith(", not " + flag), err


@pytest.mark.parametrize(
    "field,q", [("Fq((t)) p=2 f=12", 4096), ("Qp p=101 f=3", 101**3)]
)
def test_describe_large_residue_field(capsys, field, q):
    code, out, _ = run(capsys, "describe", "--field", field)
    assert code == 0
    assert "q = %d" % q in out


def test_bad_precision_in_descriptor_exits_2(capsys):
    code, _, err = run(capsys, "describe", "--field", "Qp p=2 prec=abc")
    assert code == 2
    assert "field descriptor" in err and "Traceback" not in err


def test_unexpected_exception_exits_4_with_one_line(capsys, monkeypatch):
    import lfk.cli as cli_mod

    def boom(*a, **kw):
        raise ValueError("synthetic bug")

    monkeypatch.setattr(cli_mod, "parse_field", boom)
    code, _, err = run(capsys, "describe", "--field", Q2)
    assert code == 4
    assert err.count("\n") == 1 and "synthetic bug" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("describe", "--field", Q2),
        ("compute", "class", "--field", Q2, "--elt", "5"),
        ("verify", "all", "--field", Q2),
    ],
)
def test_closed_stdout_keeps_the_exit_code(argv):
    # a reader that closes the pipe early (`lfk ... | head -1`) is no bug:
    # exit with the command's own code and nothing on stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lfk.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lfk.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b"", err


def test_boundary_crosscheck_samples_a_surviving_digit(capsys):
    # at f = 3 some boundary digits lie in the kill image and reduce away
    code, out, err = run(capsys, "verify", "S2.10", "--field", "Qp p=2 f=3")
    assert code == 0, err
    assert "S2.10   pass" in out


# ------------------------------------------------------------ field sweep

SWEEP_EIS = {
    2: ("2,2,1", "-2,0,1", "2,0,0,1", "2,2,0,1"),
    3: ("3,3,1", "3,0,1", "-3,0,1", "3,3,3,1"),
    5: ("5,5,1", "5,0,1"),
}
SWEEP = [
    ("Qp p=%d f=%d%s" % (p, f, " eis=" + eis if eis else ""), None)
    for p, lists in SWEEP_EIS.items()
    for f in (1, 2, 3)
    for eis in ("",) + lists
] + [("Fq((t)) p=%d f=%d" % (p, f), w) for p in (2, 3, 5) for f in (1, 2) for w in (3, 6)]
# mu_p shapes whose zeta comes out of a Newton lift: unless each iterate is in
# normal form, its p-content doubles at every step and a norm vanishes to
# working precision
SWEEP_MU_P = {
    "Qp p=3 f=1 eis=3,0,1",
    "Qp p=3 f=2 eis=3,0,1",
    "Qp p=3 f=3 eis=3,0,1",
    "Qp p=3 f=2 eis=-3,0,1",
    "Qp p=3 f=1 eis=3,0,0,0,1",
    "Qp p=3 f=1 eis=3,3,3,3,1",
    "Qp p=3 f=1 eis=3,0,0,0,0,0,1",
    "Qp p=3 f=1 eis=3,3,3,3,3,3,1",
    "Qp p=5 f=1 eis=5,0,0,0,1",
    "Qp p=5 f=1 eis=5,5,5,5,1",
}
# the deeper mu_p shapes above are swept at f = 1 only
SWEEP += [(field, None) for field in sorted(SWEEP_MU_P - {field for field, _ in SWEEP})]
# Q2 shapes with e >= 5.  All ten exited 4, "descent failed to advance past
# level m", while the char-0 pairing matrix was read off walked norm
# groups; it now solves the Steinberg relations.  The e = 9 shapes exited
# 3, a walk out of digits, while the norm walk took running powers of pi_E;
# it now builds each unit's valuation-m element afresh.  SWEEP_PREC_128 is
# verified at prec 128 too, with the same reports but for the field label
SWEEP_DEEP_Q2 = (
    ["Qp p=2 f=1 eis=2,%s1" % ("0," * (e - 1)) for e in range(5, 10)]
    + ["Qp p=2 f=1 eis=%s1" % ("2," * e) for e in range(6, 10)]
    + ["Qp p=2 f=2 eis=2,0,0,0,0,1"]
)
SWEEP_PREC_128 = "Qp p=2 f=1 eis=2,0,0,0,0,0,0,0,0,1"


@pytest.mark.slow
def test_q11_zeta11_orthogonality_verifies_at_prec_64(capsys, monkeypatch):
    # d = 12.  It exited 3 at prec 64 while E was held over the powers of
    # its generator: the norms of G's certificate walks on the lines of
    # levels 5 to 1 lost (p - 1) times the level in digits.  Over the
    # integral basis every walk norm keeps all but pc digits.  About 15 s
    # on a 2-vCPU machine
    digits, real = [], DegreePExtension.norm

    def norm(E, z):
        n = real(E, z)
        digits.append(n.P - n.valuation())
        return n

    monkeypatch.setattr(DegreePExtension, "norm", norm)
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", "S8.33", "--field", Q11Z)
    assert code == 0, err
    assert time.perf_counter() - start < 60
    ctx = parse_field(Q11Z)
    assert digits and min(digits) >= ctx.default_precision - ctx.pc


@pytest.mark.slow
@pytest.mark.parametrize("field,window", SWEEP)
def test_field_sweep_verify_all(capsys, field, window):
    argv = ("verify", "all", "--field", field) + (("--window", str(window)) if window else ())
    code, _, err = run(capsys, *argv)
    assert code == 0, err


@pytest.mark.slow
@pytest.mark.parametrize("field", SWEEP_DEEP_Q2)
def test_field_sweep_deep_q2_shapes_verify(capsys, field):
    runs = []
    for prec in ("64", "128") if field == SWEEP_PREC_128 else ("64",):
        code, out, err = run(capsys, "verify", "all", "--field", field, "--prec", prec, "--format", "json")
        assert code == 0, (prec, err)
        runs.append([{**rep, "field": None} for rep in json.loads(out)])
    assert all(reports == runs[0] for reports in runs)


# ------------------------------------------------------------ fuzz


@st.composite
def eisenstein_list(draw, p):
    """c0,...,c(e-1),1 with p | c_i and p^2 not dividing c0."""
    e = draw(st.integers(min_value=2, max_value=3))
    c0 = p * draw(st.sampled_from([u for u in range(-4, 5) if u % p]))
    middle = [p * draw(st.integers(min_value=-2, max_value=2)) for _ in range(e - 1)]
    return ",".join(str(c) for c in [c0] + middle + [1])


@st.composite
def field_descriptor(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        f = draw(st.integers(min_value=1, max_value=3))
        words = ["Qp", "p=%d" % p, "f=%d" % f]
        if draw(st.booleans()):
            words.append("eis=" + draw(eisenstein_list(p)))
    else:
        f = draw(st.integers(min_value=1, max_value=2))
        words = ["Fq((t))", "p=%d" % p, "f=%d" % f]
    if draw(st.booleans()):
        words.append("prec=%d" % draw(st.sampled_from([8, 24])))
    # malformed variants: a dropped word, a bad value, a stray or repeated key
    broken = draw(st.sampled_from([None, None, "drop", "value", "key", "repeat"]))
    if broken == "drop":
        del words[draw(st.integers(min_value=0, max_value=len(words) - 1))]
    elif broken == "value":
        i = draw(st.integers(min_value=1, max_value=len(words) - 1))
        key = words[i].partition("=")[0]
        words[i] = key + "=" + draw(st.sampled_from(["", "x", "-3", "0", "4", "1,2", "2,,1"]))
    elif broken == "key":
        words.append(draw(st.sampled_from(["q=2", "eis", "resf=1", "=", "p"])))
    elif broken == "repeat":
        words.append(words[1])
    return " ".join(words)


def element_literal():
    atom = st.one_of(
        st.integers(min_value=0, max_value=30).map(str),
        st.sampled_from(["pi", "p", "w", "t", "g"]),
    )
    power = st.builds(
        lambda a, k: "%s^%d" % (a, k) if k != 1 else a,
        atom,
        st.integers(min_value=-4, max_value=6),
    )
    term = st.lists(power, min_size=1, max_size=3).map("*".join)
    expr = st.builds(
        lambda sign, terms: sign + " + ".join(terms),
        st.sampled_from(["", "-"]),
        st.lists(term, min_size=1, max_size=3),
    )
    # no ASCII digits in free text: an exponent like (1+t)^99999 is a real
    # but slow computation, not a malformed literal
    garbage = st.text(
        alphabet=st.one_of(
            st.sampled_from("+-*^() pitgw²٣½"),
            st.characters(blacklist_characters="0123456789", blacklist_categories=("Cs",)),
        ),
        max_size=8,
    )
    wrapped = expr.map(lambda x: "(" + x + ")")
    return st.one_of(expr, expr, wrapped, garbage, expr.map(lambda x: x + " +"))


@settings(max_examples=120, deadline=timedelta(seconds=5), derandomize=True)
@given(
    field=field_descriptor(),
    command=st.sampled_from(["describe", "level", "break", "pair", "norm-group", "class"]),
    left=element_literal(),
    right=element_literal(),
    window=st.sampled_from([None, "-1", "0", "1", "3", "6"]),
    fmt=st.sampled_from(["table", "json"]),
)
def test_fuzz_describe_and_compute_never_break(field, command, left, right, window, fmt):
    argv = ["describe"] if command == "describe" else ["compute", command]
    argv += ["--field", field, "--format", fmt]
    if command != "describe":
        # the element flags the command reads, so the literals reach it: an
        # unread flag is exit 2 before any literal is parsed
        first = "--add" if field.startswith("Fq") else "--elt"
        flags = {
            "level": [first], "norm-group": [first], "pair": [first, "--mult"],
            "break": ["--line"], "class": ["--mult" if first == "--add" else "--elt"],
        }[command]
        for flag in flags:
            argv += [flag, right if flag == "--mult" else left]
    if window is not None:
        argv += ["--window", window]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if fmt == "json" and out.getvalue():
        json.loads(out.getvalue())


def _shift_eisenstein(eis, a):
    """The coefficient list of f(x + a), given that of f (both low first)."""
    c = [int(x) for x in eis.split(",")]
    return ",".join(
        str(sum(c[k] * math.comb(k, j) * a ** (k - j) for k in range(j, len(c))))
        for j in range(len(c))
    )


def _verify_invariants(field):
    """(exit code, {claim: status}, S2.10 dims, S5.27 multisets) of verify all.

    A field without mu_p checks S2.10 alone, so its multiset list is empty.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "all", "--field", field, "--format", "json"])
    assert code in (0, 3), (field, code, err.getvalue())
    if code:
        return (code,)
    reports = {r["claim_id"]: r for r in json.loads(out.getvalue())}
    dims = [(w["index"], w["dim"]) for w in reports["S2.10"]["witnesses"] if "dim" in w]
    breaks = reports.get("S5.27", {"witnesses": []})["witnesses"]
    multisets = [w["multiset"] for w in breaks if "multiset" in w]
    return code, {cid: r["status"] for cid, r in reports.items()}, dims, multisets


@pytest.mark.slow
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), f=st.integers(min_value=1, max_value=2))
def test_fuzz_shifted_eisenstein_presentations_agree(data, p, f):
    # f(x) and f(x + a), p | a, define one field (pi' = pi - a), so the two
    # presentations must give the same exit code, verdicts, S2.10 dims and
    # S5.27 break multiset; the paper's claims hold, so exit 1 is a bug
    eis = data.draw(eisenstein_list(p))
    a = data.draw(st.sampled_from([p, -p, 2 * p]))
    base = "Qp p=%d f=%d eis=%s" % (p, f, eis)
    shifted = "Qp p=%d f=%d eis=%s" % (p, f, _shift_eisenstein(eis, a))
    assert _verify_invariants(shifted) == _verify_invariants(base), (base, shifted)
