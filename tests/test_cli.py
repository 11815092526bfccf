"""CLI behavior: JSON payloads, stderr chatter, exit codes."""

import json

import pytest

import cuboid_complex.cli as cli
from cuboid_complex import verify
from cuboid_complex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_unisolvence_single_family(capsys):
    code, out, err = run(capsys, "unisolvence", "--family", "q-red", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    rec = payload[0]
    assert rec["family"] == "q-red" and rec["nonsingular"]
    assert rec["local_dim"] == rec["num_dofs"] == rec["rank"] == 54
    assert "unisolvent" in err


def test_unisolvence_default_runs_two_orders(capsys):
    code, out, _ = run(capsys, "unisolvence", "--family", "z")
    assert code == 0
    ks = [rec["k"] for rec in json.loads(out)]
    assert ks == [2, 3]


def test_complex_json_payload(capsys):
    code, out, err = run(capsys, "complex", "--complex", "gradgrad",
                         "--k", "3", "--mesh", "2,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [96, 334, 338, 96]
    assert payload["ranks"] == [92, 242, 96]
    assert payload["exact"] and payload["cohomology_dim"] == 4
    assert payload["mesh"] == "2,1,1"
    assert payload["arithmetic_mode"] == "rational"
    assert "ok" in err


def test_complex_failure_exits_one(capsys, monkeypatch):
    real = cli.verify_complex

    def broken(*a, **kw):
        rep = real(*a, **kw)
        object.__setattr__(rep, "exact", False)
        return rep

    monkeypatch.setattr(cli, "verify_complex", broken)
    code, out, _ = run(capsys, "complex", "--complex", "elasticity", "--k", "2")
    assert code == 1
    assert json.loads(out)["exact"] is False


def test_dims_with_breakpoint_override(capsys):
    code, out, _ = run(capsys, "dims", "--family", "u", "--k", "3",
                       "--mesh", "2,1,1", "--breakpoints-x", "0,1/3,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] and payload["formula"] == 96


def test_export_round_trip(capsys, tmp_path):
    dest = tmp_path / "div.mtx"
    code, out, _ = run(capsys, "export", "--complex", "elasticity", "--k", "2",
                       "--edge", "div", "--out", str(dest))
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 36 and payload["cols"] == 102
    assert payload["field"] == "rational"
    text = dest.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate rational general")
    from cuboid_complex.assembly import read_matrix_market
    mat = read_matrix_market(str(dest))
    assert (mat.nrows, mat.ncols, mat.nnz) == (36, 102, payload["nnz"])


def test_export_reports_the_mesh_the_breakpoints_build(capsys, tmp_path):
    dest = tmp_path / "div.mtx"
    code, out, _ = run(capsys, "export", "--complex", "elasticity", "--k", "2",
                       "--edge", "div", "--breakpoints-x", "0,1/3,1",
                       "--breakpoints-y", "0,1/2,1", "--out", str(dest))
    assert code == 0
    payload = json.loads(out)
    assert (payload["rows"], payload["cols"]) == (128, 330)
    assert payload["mesh"] == "2,2,1"
    assert "mesh=2,2,1" in dest.read_text().splitlines()[1]


def test_identities_payload(capsys):
    code, out, _ = run(capsys, "identities", "--count", "4", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["checks"] == 4
    assert payload["seed"] == 7


@pytest.mark.parametrize("argv", [
    ("complex", "--complex", "gradgrad", "--k", "3", "--mesh", "0,1,1"),
    ("complex", "--complex", "gradgrad", "--k", "3", "--mesh", "2,2"),
    ("complex", "--complex", "nosuch", "--k", "3"),
    ("dims", "--family", "u", "--k", "3", "--breakpoints-x", "0,oops,1"),
    ("dims", "--family", "u", "--k", "1"),
    ("export", "--complex", "gradgrad", "--k", "3", "--edge", "symgrad",
     "--out", "/tmp/never.mtx"),
    ("export", "--complex", "gradgrad", "--k", "2", "--edge", "curl",
     "--out", "/tmp/never.mtx"),
    ("unisolvence", "--family", "u", "--k", "2"),
    ("identities", "--count", "-3"),
    ("identities", "--count", "0"),
])
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err


def test_export_to_unwritable_path_is_a_usage_error(capsys, monkeypatch,
                                                    tmp_path):
    import cuboid_complex.assembly as assembly

    def never(*a, **kw):
        raise AssertionError("the matrix was assembled")

    monkeypatch.setattr(assembly, "operator_matrix", never)
    for out in (tmp_path / "missing" / "x.mtx", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--complex", "elasticity", "--k", "2",
                  "--edge", "div", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err


def test_complex_low_order_exits_one(capsys):
    # k below the family floor is caught by the verification layer, not argparse
    code, _, err = run(capsys, "complex", "--complex", "gradgrad", "--k", "2")
    assert code == 1
    assert "verification failed" in err


def _never(*a, **kw):
    raise AssertionError("work started above the maximum order")


@pytest.mark.parametrize("argv, message", [
    (("unisolvence", "--family", "u", "--k", "100000000"),
     "family 'u' requires k <= 10, got 100000000"),
    (("unisolvence", "--family", "all", "--k", "11"),
     "family 'u' requires k <= 10, got 11"),
    (("dims", "--family", "xi", "--k", "11"),
     "family 'xi' requires k <= 10, got 11"),
    (("export", "--complex", "elasticity", "--k", "99999999999", "--edge",
      "div", "--out", "/tmp/never.mtx"),
     "complex 'elasticity' needs k <= 10"),
])
def test_order_above_the_maximum_exits_two(capsys, monkeypatch, argv,
                                           message):
    """Refused with the message a too-small k gets, before any work: each
    entry point's work is replaced by a failure."""
    for name in ("check_unisolvence", "verify_dimensions", "complex_spaces"):
        monkeypatch.setattr(cli, name, _never)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_complex_order_above_the_maximum_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(verify, "assemble_space", _never)
    code, out, err = run(capsys, "complex", "--complex", "gradgrad", "--k",
                         "99999999999")
    assert code == 1 and not out
    assert "verification failed: complex 'gradgrad' needs k <= 10" in err


def test_complex_ignores_former_thread_variable(capsys, monkeypatch):
    # The rank routine reads no environment variable: a value that is no
    # number must not turn into a failed verification.
    monkeypatch.setenv("CUBOID_COMPLEX_THREADS", "abc")
    code, out, _ = run(capsys, "complex", "--complex", "gradgrad", "--k", "3")
    assert code == 0
    assert json.loads(out)["exact"]


@pytest.mark.parametrize("arithmetic", ["float", "both"])
def test_complex_too_large_for_the_float_route_exits_one(capsys, monkeypatch,
                                                         arithmetic):
    # 1 KiB stands in for the real limit, which no quick mesh reaches
    monkeypatch.setattr(verify, "FLOAT_RANK_MAX_BYTES", 1024)
    code, out, err = run(capsys, "complex", "--complex", "gradgrad", "--k", "3",
                         "--arithmetic", arithmetic)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "MiB dense" in err
    assert "Traceback" not in err
