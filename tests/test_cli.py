import json
import os

import numpy as np
import pytest

from test_ensemble import Int64EdgeEngine

from factorsim import cli, qsieve, spectral, svgplot
from factorsim.cli import run
from factorsim.ensemble import EnsembleQuery, enumerate_ensemble, sqrt_index


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


def test_spectral_commands_build_no_prime_table(capsys, monkeypatch, tmp_path):
    """spectrum, trap, fig3, primes nearest and sieve compare count no
    primes, so they sieve no table."""
    from factorsim import primes

    def no_table(limit):
        raise AssertionError(f"PrimeTable({limit}) built")

    monkeypatch.setattr(primes, "PrimeTable", no_table)
    for argv in (["spectrum", "zeros", "--E", "1", "--qmax", "3"],
                 ["trap", "plan", "--N", "10969262131"],
                 ["fig3", "--out", str(tmp_path / "fig3.csv")],
                 ["primes", "nearest", "1000000.5"]):
        code, _, err = _run(capsys, *argv)
        assert code == 0, err
    density = tmp_path / "map.csv"
    density.write_text("bin_E_lo,bin_E_hi,bin_x_lo,bin_x_hi,mass\n1,2,3,4,0.25\n1,2,4,5,0.75\n")
    code, _, err = _run(capsys, "sieve", "compare", "--a", str(density), "--b", str(density))
    assert code == 0, err


def test_usage_error_exit_1(capsys, tmp_path):
    code, _, err = _run(capsys, "wat")
    assert code == 1
    assert "usage" in err
    # input files that cannot be read
    missing = str(tmp_path / "missing")
    for argv in (["--config", missing, "primes", "pi", "10"],
                 ["sieve", "invert", "--E", "1.0044", "--N", "10969262131", "--zeros", missing],
                 ["sieve", "compare", "--a", missing, "--b", missing]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "") and json.loads(err)["error"] == "usage"
        assert "missing" in json.loads(err)["message"]


def test_domain_error_exit_2(capsys, tmp_path):
    code, _, err = _run(capsys, "trap", "plan", "--N", "1e26")
    assert code == 2
    assert "domain" in err
    for argv in (["trap", "plan", "--N", "1e10", "--zero-index", "-1"],
                 ["sieve", "invert", "--E", "1.0044", "--N", "10969262131", "--T", "-5"],
                 ["sieve", "run", "--N", "10969262131", "--j", "10000", "--samples", "-2",
                  "--out", str(tmp_path / "s.csv")],
                 ["fig2", "--j", "10000", "--samples", "-2",
                  "--out-prefix", str(tmp_path / "fig2")]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "") and json.loads(err)["error"] == "domain"
    assert list(tmp_path.iterdir()) == []
    # j enters the inversion only as j^2, and 0 is a value, not "unset"
    for j in ("0", "-10000"):
        for argv in (["sieve", "invert", "--E", "1.05", "--N", "10969262131", "--j", j],
                     ["sieve", "run", "--N", "10969262131", "--j", j, "--samples", "2",
                      "--out", str(tmp_path / "s.csv")]):
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (2, "") and json.loads(err) == {
                "error": "domain", "message": f"j = {j} must be >= 1"}
    assert list(tmp_path.iterdir()) == []
    # the zero scans name the E <= 0 they cannot take
    for argv in (["spectrum", "zeros", "--E", "-1", "--qmax", "4"],
                 ["trap", "zeromatch", "--E", "-1", "--out", str(tmp_path / "zm.csv")],
                 ["fig3", "--E", "-1", "--out", str(tmp_path / "fig3.csv")]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "") and json.loads(err) == {
            "error": "domain", "message": "E must be positive"}
    assert list(tmp_path.iterdir()) == []
    # a map needs at least one bin per axis
    for n in ("0", "-2"):
        code, out, err = _run(capsys, "fig2", "--j", "10000", "--samples", "2", "--bins", n,
                              "--out-prefix", str(tmp_path / "fig2"))
        assert (code, out) == (2, "") and json.loads(err) == {
            "error": "domain", "message": f"bins = ({n}, {n}) must be >= 1"}
    assert list(tmp_path.iterdir()) == []
    # density CSVs with a short row, no rows, a field that is not a number,
    # a bin given twice, or masses that do not sum to 1
    header = "bin_E_lo,bin_E_hi,bin_x_lo,bin_x_hi,mass\n"
    (tmp_path / "short.csv").write_text(header + "1,2,3,4,0.5\n1,2,3\n")
    (tmp_path / "header.csv").write_text(header)
    (tmp_path / "text.csv").write_text(header + "1,2,3,4,0.5\n1,2,abc,5,0.5\n")
    (tmp_path / "twice.csv").write_text(header + "1,2,3,4,0.5\n1,2,4,5,0.25\n"
                                        "1,2,3,4,0.25\n")
    (tmp_path / "sum.csv").write_text(header + "1,2,3,4,0.5\n1,2,4,5,0.500000001\n")
    for bad, what in (("short.csv", "short.csv line 3: 3 fields, expected 5"),
                      ("header.csv", "header.csv holds no density rows"),
                      ("text.csv", "text.csv line 3: could not convert string to float: 'abc'"),
                      ("twice.csv", "twice.csv line 4: bin (E_lo, x_lo) = (1.0, 3.0) "
                                    "repeats line 2"),
                      ("sum.csv", "sum.csv lines 2-3: masses sum to 1.000000001, "
                                  "expected 1 within 1e-09")):
        code, out, err = _run(capsys, "sieve", "compare", "--a", str(tmp_path / bad),
                              "--b", str(tmp_path / "short.csv"))
        assert (code, out) == (2, "") and json.loads(err)["error"] == "domain"
        assert json.loads(err)["message"].endswith(what)
    # masses within 1e-9 of 1 are read
    (tmp_path / "near.csv").write_text(header + "1,2,3,4,0.5\n1,2,4,5,0.5000000009\n")
    code, _, err = _run(capsys, "sieve", "compare", "--a", str(tmp_path / "near.csv"),
                        "--b", str(tmp_path / "near.csv"))
    assert code == 0, err


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


@pytest.mark.parametrize("j, x_min, x_max", [(1, None, None), (3, None, None),
                                             (1000, None, None), (10000, 46000, 49000)])
def test_fig1_and_ensemble_rows_equal_entry_reference(tmp_path, capsys, engine, j, x_min, x_max):
    """Both commands print the sorted columns as the entries' float(Fraction)s."""
    window = [] if x_min is None else ["--x-min", str(x_min), "--x-max", str(x_max)]
    entries = enumerate_ensemble(EnsembleQuery(j=j, x_min=x_min, x_max=x_max), engine)
    fig1, ens = tmp_path / "fig1.csv", tmp_path / "ens.csv"
    assert _run(capsys, "fig1", "--j", str(j), *window, "--out", str(fig1), "--svg")[0] == 0
    assert _run(capsys, "ensemble", "enumerate", "--j", str(j), *window,
                "--out", str(ens))[0] == 0
    g = cli._g
    assert fig1.read_text().splitlines()[1:] == [f"{g(float(e.E))},{e.N}" for e in entries]
    assert (tmp_path / "fig1.csv.svg").read_bytes() == svgplot.scatter_svg(
        [(e.N, float(e.E)) for e in entries])
    assert ens.read_text().splitlines()[1:] == [
        ",".join([*map(str, (e.x, e.y, e.N, e.j, e.pix, e.piy)),
                  g(float(e.E)), g(float(e.q)), g(float(e.p))]) for e in entries]


def test_ensemble_commands_reject_N_beyond_int64(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "PrimeEngine", Int64EdgeEngine)
    j = str(Int64EdgeEngine.J)
    for argv in (["fig1", "--j", j, "--x-min", "3037000000", "--out", str(tmp_path / "f.csv")],
                 ["ensemble", "enumerate", "--j", j, "--x-min", "3037000000",
                  "--out", str(tmp_path / "e.csv")]):
        code, out, err = _run(capsys, *argv)
        assert (code, out, json.loads(err)["error"]) == (2, "", "domain")
        assert "2^63" in json.loads(err)["message"]
    assert list(tmp_path.iterdir()) == []


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


def test_fig2_csv_compared_with_itself(tmp_path, capsys):
    """Both maps of a fig2 run, each compared with itself: overlap 1, rank
    correlation 1, divergence 0."""
    prefix = str(tmp_path / "f2")
    code, _, err = _run(capsys, "fig2", "--j", "1000", "--N", "62773913", "--T", "30",
                        "--samples", "4", "--seed", "2", "--bins", "9", "--out-prefix", prefix)
    assert code == 0, err
    for tag in ("quantum", "classical"):
        path = f"{prefix}_{tag}.csv"
        code, out, err = _run(capsys, "sieve", "compare", "--a", path, "--b", path)
        assert code == 0, err
        metrics = json.loads(out)
        assert metrics["overlap"] == pytest.approx(1.0, rel=0.0, abs=1e-9), tag
        assert metrics["rank_correlation"] == pytest.approx(1.0), tag
        assert metrics["jensen_shannon"] == 0.0, tag


def ref_density_csv(dm) -> str:
    """cli._density_csv before it formatted each edge once: every field of
    every cell through _g of the NumPy scalar."""
    rows = []
    for i in range(dm.mass.shape[0]):
        for k in range(dm.mass.shape[1]):
            rows.append([
                cli._g(dm.e_edges[i]), cli._g(dm.e_edges[i + 1]),
                cli._g(dm.x_edges[k]), cli._g(dm.x_edges[k + 1]),
                cli._g(dm.mass[i, k]),
            ])
    return cli._csv(rows, ["bin_E_lo", "bin_E_hi", "bin_x_lo", "bin_x_hi", "mass"])


def test_density_csv_equals_per_cell_reference():
    """Seeded maps, with empty cells and edges of 12 and more digits."""
    rng = np.random.default_rng(4)
    for n_e, n_x in ((1, 1), (3, 7), (40, 40), (13, 2)):
        mass = rng.random((n_e, n_x)) * (rng.random((n_e, n_x)) < 0.7)
        mass[0, 0] += 1.0
        dm = qsieve.DensityMap(e_edges=np.linspace(1.0, rng.uniform(1.1, 9.0), n_e + 1),
                               x_edges=np.linspace(rng.uniform(2.0, 900.0), 104731.9, n_x + 1),
                               mass=mass / mass.sum(), mode="classical", points=n_e * n_x)
        assert cli._density_csv(dm) == ref_density_csv(dm), (n_e, n_x)


def test_trap_plan_json(capsys):
    code, out, _ = _run(capsys, "trap", "plan", "--N", "10969262131",
                        "--rho-m", "3", "--particle", "electron")
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


@pytest.mark.parametrize("argv, key, value", [
    pytest.param(["primes", "pi", "3"], "x", "abc", id="abc"),
    pytest.param(["primes", "pi", "3"], "x", 3.7, id="3.7"),
    # a flag without type= takes only a JSON string, a switch only a JSON boolean
    pytest.param(["ensemble", "enumerate", "--j", "50", "--out", "e.csv"], "out", 1, id="out-int"),
    pytest.param(["sieve", "invert", "--E", "1.0044", "--N", "10969262131"], "zeros", 3,
                 id="zeros-int"),
    pytest.param(["fig3", "--out", "f3.csv"], "svg", "false", id="svg-string"),
    pytest.param(["fig3", "--out", "f3.csv"], "svg", 1, id="svg-int"),
    pytest.param(["trap", "plan", "--N", "1e10"], "particle", 5, id="particle-int"),
    pytest.param(["trap", "plan", "--N", "1e10"], "particle", None, id="particle-null"),
])
def test_config_rejects_values_the_flag_type_rejects(tmp_path, capsys, monkeypatch,
                                                     argv, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = _run(capsys, "--config", str(cfg), *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "usage" and repr(key) in json.loads(err)["message"]
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_config_takes_strings_and_booleans_for_untyped_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "e.csv", "svg": True}))
    code, _, err = _run(capsys, "--config", str(cfg), "fig1", "--j", "3")
    assert code == 0, err
    assert (tmp_path / "e.csv").exists() and (tmp_path / "e.csv.svg").exists()


def test_config_run_leaves_the_next_run_its_defaults(tmp_path, capsys):
    _, plain, _ = _run(capsys, "trap", "plan", "--N", "1e10")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho-m": 2.5, "zero-index": 1}))
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


def test_trap_commands_name_a_bad_N(tmp_path, capsys):
    """The trap plan behind trap plan, trap zeromatch and fig3 names an N
    that is not positive and finite before it sizes anything."""
    for N in ("-1", "nan"):
        for argv in (["trap", "plan", "--N", N],
                     ["trap", "zeromatch", "--N", N, "--out", str(tmp_path / "zm.csv")],
                     ["fig3", "--N", N, "--out", str(tmp_path / "fig3.csv")]):
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (2, "") and json.loads(err) == {
                "error": "domain", "message": f"N = {float(N)} must be positive and finite"}
    assert list(tmp_path.iterdir()) == []


def test_sieve_invert_takes_j_from_sqrt_index(capsys, monkeypatch):
    """Without --j, sieve invert takes j = pi(isqrt(N)) from
    `ensemble.sqrt_index`, which names an N below 4."""
    seen = []

    def recording(N, engine):
        seen.append(N)
        return sqrt_index(N, engine)

    monkeypatch.setattr(cli, "sqrt_index", recording)
    code, out, _ = _run(capsys, "sieve", "invert", "--E", "1.00441815", "--N", "10969262131")
    assert code == 0 and json.loads(out)["j"] == 10000 and seen == [10969262131]
    code, out, err = _run(capsys, "sieve", "invert", "--E", "1.0", "--N", "3")
    assert (code, out) == (2, "") and json.loads(err) == {
        "error": "domain", "message": "sqrt_index requires N >= 4"}
