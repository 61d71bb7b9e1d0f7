"""CLI behaviour: output contracts, exit codes, precision plumbing.

main() returns the exit code instead of raising, so every test drives the
real argv path.  Table output is checked loosely (it carries no stability
promise); json output is checked for schema and byte determinism.
"""

import json

import pytest

from lfk.cli import main
from lfk.errors import MalformedInputError
from lfk.local_arith import INF, parse_element, parse_field, val


Q2 = "Qp p=2 f=1"
Q3Z = "Qp p=3 f=1 eis=3,3,1"
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


def test_compute_norm_group_char_p_needs_window(capsys):
    code, _, err = run(capsys, "compute", "norm-group", "--field", F2T, "--add", "t^-1")
    assert code == 2
    assert "window" in err


def test_compute_class_q2(capsys):
    code, out, _ = run(capsys, "compute", "class", "--field", Q2, "--elt", "-1", "--format", "json")
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
    # char 0 has no use for the window, but a bad one is still bad input
    for window in ("0", "-5"):
        code, _, err = run(
            capsys, "compute", "pair", "--field", Q2, "--elt", "2", "--mult", "3",
            "--window", window,
        )
        assert code == 2
        assert "window" in err


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


def test_boundary_crosscheck_samples_a_surviving_digit(capsys):
    # at f = 3 some boundary digits lie in the kill image and reduce away
    code, out, err = run(capsys, "verify", "S2.10", "--field", "Qp p=2 f=3")
    assert code == 0, err
    assert "S2.10   pass" in out
