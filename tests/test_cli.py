import json
import os

import pytest

from factorsim import qsieve, spectral
from factorsim.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_primes_subcommands(capsys):
    code, out, _ = _run(capsys, "primes", "pi", "101")
    assert code == 0 and out.strip() == "26"
    code, out, _ = _run(capsys, "primes", "nth", "6")
    assert code == 0 and out.strip() == "13"
    code, out, _ = _run(capsys, "primes", "nearest", "9.0")
    assert code == 0 and out.strip() == "11"


def test_usage_error_exit_1(capsys):
    code, _, err = _run(capsys, "wat")
    assert code == 1
    assert "usage" in err


def test_domain_error_exit_2(capsys):
    code, _, err = _run(capsys, "trap", "plan", "--N", "1e26")
    assert code == 2
    assert "domain" in err
    for argv in (["trap", "plan", "--N", "1e10", "--zero-index", "-1"],
                 ["sieve", "invert", "--E", "1.0044", "--N", "10969262131", "--T", "-5"]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "") and json.loads(err)["error"] == "domain"


def test_ensemble_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "ens.csv"
    code, _, _ = _run(capsys, "ensemble", "enumerate", "--j", "3",
                      "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,N,j,pix,piy,E_decimal,q_decimal,p_decimal"
    assert len(lines) == 9
    assert lines[1].startswith("5,5,25,3,3,3,1,1,0")
    manifest = json.loads((tmp_path / "ens.csv.manifest.json").read_text())
    assert manifest["command"] == "ensemble enumerate"
    assert manifest["inputs"]["j"] == 3
    assert manifest["versions"]["factorsim"]
    assert manifest["tolerances"] == {
        "quantization_residual": spectral.RESIDUAL_TOL,
        "bisection_rel_tol": qsieve.INVERT_REL_TOL,
        "gram_tail": qsieve.GRAM_TAIL,
        "zero_bisection": spectral.ZERO_XTOL,
    }


def test_fig1_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _run(capsys, "fig1", "--j", "3", "--out", str(a), "--svg")
    _run(capsys, "fig1", "--j", "3", "--out", str(b), "--svg")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.svg").read_bytes() == (tmp_path / "b.csv.svg").read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "E,N"
    assert len(lines) == 9


def test_fig1_does_not_mutate_inputs(tmp_path, capsys):
    out = tmp_path / "c.csv"
    before = {}
    import factorsim

    pkg = os.path.dirname(factorsim.__file__)
    zpath = os.path.join(pkg, "data", "zeta_zeros.txt")
    before = open(zpath, "rb").read()
    _run(capsys, "fig1", "--j", "3", "--out", str(out))
    assert open(zpath, "rb").read() == before


def test_spectrum_solve_json(capsys):
    code, out, _ = _run(capsys, "spectrum", "solve", "--qm", "20", "--guess", "1.0")
    assert code == 0
    data = json.loads(out)
    assert abs(data["E"] - 1.144) < 1e-3
    assert data["residual"] <= 1e-8
    assert {"d_re", "d_im", "zeros"} <= set(data)
    # the eigenfunction vanishes at the outer wall: last zero ~ q_m
    assert abs(data["zeros"][-1] - 20.0) < 1e-6
    assert data["zeros"] == sorted(data["zeros"])


def test_spectrum_zeros_json(capsys):
    code, out, _ = _run(capsys, "spectrum", "zeros", "--E", "1", "--qmax", "3")
    data = json.loads(out)
    assert code == 0
    assert len(data["zeros"]) == 1
    assert abs(data["zeros"][0] - 2.82765) < 1e-3


def test_sieve_invert_json(capsys):
    code, out, _ = _run(capsys, "sieve", "invert", "--E", "1.05",
                        "--N", "10969262131", "--j", "10000", "--T", "50")
    data = json.loads(out)
    assert code == 0
    assert 2000 < data["x"] < 104734


def test_sieve_run_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = _run(capsys, "sieve", "run", "--N", "10969262131",
                          "--j", "10000", "--T", "50", "--samples", "4",
                          "--seed", "42", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 42


def test_sieve_compare_roundtrip(tmp_path, capsys):
    prefix = str(tmp_path / "f2")
    code, out, _ = _run(capsys, "fig2", "--j", "1000", "--N", "62773913",
                        "--T", "30", "--samples", "10", "--seed", "1",
                        "--bins", "12", "--out-prefix", prefix)
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics) == {"rank_correlation", "jensen_shannon", "overlap"}
    code, out, _ = _run(capsys, "sieve", "compare",
                        "--a", prefix + "_quantum.csv",
                        "--b", prefix + "_quantum.csv")
    self_metrics = json.loads(out)
    assert self_metrics["rank_correlation"] == pytest.approx(1.0)
    assert self_metrics["overlap"] == pytest.approx(1.0)


def test_trap_plan_json(capsys):
    code, out, _ = _run(capsys, "trap", "plan", "--N", "10969262131",
                        "--G", "0", "--rho-m", "3", "--particle", "electron")
    assert code == 0
    data = json.loads(out)
    assert abs(data["q_G"] - 2.82765) < 1e-3
    assert data["N_encodable"] == pytest.approx(10969262131, rel=1e-9)


def test_trap_zeromatch_csv(tmp_path, capsys):
    out = tmp_path / "zm.csv"
    code, _, _ = _run(capsys, "trap", "zeromatch", "--E", "1",
                      "--q-lo", "1", "--q-hi", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q_exact_zero,q_trap_zero,gap"
    assert len(lines) >= 3
    manifest = json.loads((tmp_path / "zm.csv.manifest.json").read_text())
    assert manifest["command"] == "trap zeromatch"
    assert manifest["inputs"] == {"E": 1.0, "N": 10969262131.0, "q_lo": 1.0, "q_hi": 5.0}


def test_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": 101}))
    code, out, _ = _run(capsys, "--config", str(cfg), "primes", "pi", "3")
    assert code == 0
    assert out.strip() == "26"  # config value wins over the flag


@pytest.mark.parametrize("cfg", [{"y": 101}, {"cmd": "fig1"}, {"sub": "nth"},
                                 {"config": "other.json"}, {"--qmax": 3}, [101]])
def test_config_rejects_keys_that_are_not_flags(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "--config", str(path), "primes", "pi", "3")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_config_values_go_through_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": "101"}))
    code, out, _ = _run(capsys, "--config", str(cfg), "primes", "pi", "3")
    assert code == 0 and out.strip() == "26"


@pytest.mark.parametrize("value", ["abc", 3.7])
def test_config_rejects_values_the_flag_type_rejects(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": value}))
    code, out, err = _run(capsys, "--config", str(cfg), "primes", "pi", "3")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_config_run_leaves_the_next_run_its_defaults(tmp_path, capsys):
    _, plain, _ = _run(capsys, "trap", "plan", "--N", "1e10")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"G": 0.2, "zero-index": 1}))
    code, configured, _ = _run(capsys, "--config", str(cfg), "trap", "plan", "--N", "1e10")
    assert code == 0 and configured != plain
    code, again, _ = _run(capsys, "trap", "plan", "--N", "1e10")
    assert code == 0 and again == plain


def test_fig3_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "f3.csv"
    code, _, _ = _run(capsys, "fig3", "--out", str(out), "--svg")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q_exact_zero,q_trap_zero,gap"
    assert len(lines) >= 9
    svg = (tmp_path / "f3.csv.svg").read_bytes()
    assert svg.startswith(b"<?xml") and b"</svg>" in svg


def test_empty_svg_is_minimal_valid():
    from factorsim.svgplot import scatter_svg

    a = scatter_svg([])
    b = scatter_svg([])
    assert a == b
    assert a.startswith(b"<?xml") and b"<rect" in a and b"</svg>" in a
    assert b"circle" not in a
