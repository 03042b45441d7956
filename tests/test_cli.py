import json

import numpy as np
import pytest

from specflow import SymbolFunction
from specflow.cli import main
from specflow.jsonio import curve_to_json, symbol_to_json
from specflow.models import constant_shift_potential


@pytest.fixture
def files(tmp_path):
    paths = {}
    crossing = curve_to_json([0.0, 1.0], [constant_shift_potential(-0.25),
                                          constant_shift_potential(0.25)])
    paths["crossing"] = tmp_path / "crossing.json"
    paths["crossing"].write_text(json.dumps(crossing))

    constant = curve_to_json([0.0, 1.0], [constant_shift_potential(0.3)] * 2)
    paths["constant"] = tmp_path / "constant.json"
    paths["constant"].write_text(json.dumps(constant))

    paths["e3x"] = tmp_path / "e3x.json"
    paths["e3x"].write_text(json.dumps(symbol_to_json(
        SymbolFunction.exponential(3))))

    flux1 = curve_to_json([0.0, 1.0], [constant_shift_potential(0.0),
                                       constant_shift_potential(-1.0)])
    paths["flux1"] = tmp_path / "flux1.json"
    paths["flux1"].write_text(json.dumps(flux1))
    paths["g1"] = tmp_path / "g1.json"
    paths["g1"].write_text(json.dumps(symbol_to_json(
        SymbolFunction.exponential(1))))

    paths["bott"] = tmp_path / "bott.json"
    paths["bott"].write_text(json.dumps({"base": "torus:8", "builtin": "bott"}))
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestSubcommands:
    def test_sf_constant(self, files, capsys):
        code, out = run(capsys, "sf", "--curve", str(files["constant"]),
                        "--k", "8")
        assert code == 0
        assert out["sf"] == 0

    def test_sf_crossing_with_cutoffs(self, files, capsys):
        code, out = run(capsys, "sf", "--curve", str(files["crossing"]),
                        "--k", "8", "--cutoff0", "0", "--cutoff1", "0")
        assert code == 0
        assert out["sf"] == 1
        assert isinstance(out["sf"], int)
        assert out["partitions"] >= 1

    def test_toeplitz_with_sf_check(self, files, capsys):
        code, out = run(capsys, "toeplitz", "--symbol", str(files["e3x"]),
                        "--k", "64", "--check-sf")
        assert code == 0
        assert out == {"index": -3, "winding": 3,
                       "raw_integral": out["raw_integral"], "sf": -3}
        assert abs(out["raw_integral"] - 3.0) < 1e-9

    def test_toeplitz_sampled_symbol_with_sf_check(self, files, capsys):
        # unitary at its 16 sample points only, so the gauge potential of
        # the sf check needs the adjoint checked at those points too
        xs = 2 * np.pi * np.arange(16) / 16
        g = np.exp(1j * (xs + 0.3 * np.sin(3 * xs)))
        path = files["tmp"] / "sampled.json"
        path.write_text(json.dumps({
            "rank": 1, "unitary": True,
            "samples": [{"re": v.real, "im": v.imag} for v in g]}))
        code = main(["toeplitz", "--symbol", str(path), "--k", "32",
                     "--check-sf", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["outputs"]["index"] == out["outputs"]["sf"] == -1
        assert out["stability"]["index_equals_sf"] is True

    def test_eta_both_methods(self, files, capsys):
        code, out = run(capsys, "eta", "--a", "0.25")
        assert code == 0
        assert out == {"eta": 0.5, "reduced": 0.25, "kernel_dim": 0}
        code, out = run(capsys, "eta", "--a", "0.25", "--method", "heat")
        assert code == 0
        assert abs(out["eta"] - 0.5) < 1e-6

    def test_eta_sf(self, files, capsys):
        code, out = run(capsys, "eta-sf", "--path", "-0.25", "0.25",
                        "--samples", "128")
        assert code == 0
        assert out["sf"] == 1

    def test_chern(self, files, capsys):
        code, out = run(capsys, "chern", "--base", "torus:8")
        assert code == 0
        assert out == {"chern": 1}

    def test_mapping_torus(self, files, capsys):
        code, out = run(capsys, "mapping-torus", "--path", str(files["flux1"]),
                        "--glue", str(files["g1"]), "--mu", "16", "--k", "10")
        assert code == 0
        assert out["index"] == out["sf"] == -1
        assert out["match"] is True

    def test_higher_sf(self, files, capsys):
        code, out = run(capsys, "higher-sf", "--family", str(files["bott"]),
                        "--k", "8")
        assert code == 0
        assert out["ch0"] == -1
        assert out["ch1"] == -1

    def test_plot_and_csv(self, files, capsys):
        svg = files["tmp"] / "spec.svg"
        csv = files["tmp"] / "spec.csv"
        code, out = run(capsys, "plot", "--curve", str(files["crossing"]),
                        "--k", "6", "--svg", str(svg), "--csv", str(csv))
        assert code == 0
        assert out["upward"] == 1 and out["downward"] == 0
        assert svg.read_text().startswith("<svg")
        header = csv.read_text().splitlines()[0]
        assert header.startswith("t,lambda_0")

    def test_plot_constant_has_no_markers(self, files, capsys, tmp_path):
        svg = tmp_path / "const.svg"
        code, out = run(capsys, "plot", "--curve", str(files["constant"]),
                        "--k", "6", "--svg", str(svg))
        assert code == 0
        assert out["crossings"] == 0

    def test_plot_three_downward(self, files, capsys, tmp_path):
        from specflow import gauge_transformed_potential
        pot = gauge_transformed_potential(SymbolFunction.exponential(3))
        payload = curve_to_json([0.0, 1.0], [pot.scale(0.0), pot])
        curve = tmp_path / "conj3.json"
        curve.write_text(json.dumps(payload))
        svg = tmp_path / "conj3.svg"
        code, out = run(capsys, "plot", "--curve", str(curve), "--k", "8",
                        "--svg", str(svg))
        assert code == 0
        assert out["downward"] == 3 and out["upward"] == 0


class TestContracts:
    def test_schema_violation_exits_2(self, files, capsys, tmp_path):
        # every curve subcommand checks the schema before it reads the
        # rank of the first sample: no samples, no sample, and a sample
        # without a symbol all exit 2, with no traceback
        sample = {"t": 0.0, "symbol": {"rank": 1, "modes": []}}
        payloads = {
            "unknown key": {"samples": [], "unknown": 1},
            "no samples": {},
            "empty samples": {"samples": []},
            "no symbol": {"samples": [{"t": 0.0}, sample]},
        }
        commands = {"sf": ["sf", "--curve"],
                    "plot": ["plot", "--svg", str(tmp_path / "p.svg"),
                             "--curve"],
                    "mapping-torus": ["mapping-torus", "--path"]}
        for name, payload in payloads.items():
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(
                dict({"interpolation": "linear-in-symbol"}, **payload)))
            for command, argv in commands.items():
                code = main(argv + [str(bad), "--k", "4"])
                err = capsys.readouterr().err
                assert (code, command, name) == (2, command, name)
                assert "invalid curve" in err
        assert not (tmp_path / "p.svg").exists()

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code = main(["sf", "--curve", str(tmp_path / "missing.json")])
        assert code == 2

    def test_instability_exits_3_with_partial_record(self, capsys, tmp_path):
        # winding 2 at K = 2 fails the two-truncation contract
        sym = tmp_path / "e2x.json"
        sym.write_text(json.dumps(symbol_to_json(SymbolFunction.exponential(2))))
        code = main(["toeplitz", "--symbol", str(sym), "--k", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "UnstableIndex" in captured.err

    def test_record_reproducible(self, files, capsys, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["sf", "--curve", str(files["crossing"]), "--k", "8",
                         "--out", str(out)]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2
        assert r1["config_hash"] == r2["config_hash"]
        assert isinstance(r1["outputs"]["sf"], int)

    def test_svg_byte_identical(self, files, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            assert main(["plot", "--curve", str(files["crossing"]),
                         "--k", "6", "--svg", str(target)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bott_on_loop_base_exits_2(self, files, capsys):
        loop = files["tmp"] / "bott_loop.json"
        loop.write_text(json.dumps({"base": "loop:8", "builtin": "bott"}))
        assert main(["higher-sf", "--family", str(loop), "--k", "4"]) == 2
        assert main(["higher-sf", "--family", str(files["bott"]), "--k", "4",
                     "--base", "loop:8"]) == 2
        assert "torus base" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1.5", "0"])
    def test_tol_outside_unit_interval_exits_2(self, files, capsys, tol):
        code = main(["higher-sf", "--family", str(files["bott"]), "--k", "4",
                     "--tol", tol])
        assert code == 2
        assert "rank tolerance" in capsys.readouterr().err

    def test_tol_is_recorded(self, files, capsys, tmp_path):
        records = {}
        for tol in ("1e-6", "1e-3", None):
            out = tmp_path / f"{tol}.json"
            argv = ["toeplitz", "--symbol", str(files["e3x"]), "--k", "16",
                    "--out", str(out)]
            if tol is not None:
                argv += ["--tol", tol]
            assert main(argv) == 0
            records[tol] = json.loads(out.read_text())
        capsys.readouterr()
        assert records["1e-6"]["config"]["tol"] == 1e-6
        assert "tol" not in records[None]["config"]
        assert len({r["config_hash"] for r in records.values()}) == 3
        assert all(r["outputs"]["index"] == -3 for r in records.values())

    def test_flags_only_where_a_check_backs_them(self, files, capsys):
        code = main(["sf", "--curve", str(files["crossing"]), "--k", "8",
                     "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["stability"] == {}
        code = main(["toeplitz", "--symbol", str(files["e3x"]), "--k", "16",
                     "--check-sf", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["stability"] == {"index_equals_sf": True}

    def test_full_record_flag(self, files, capsys):
        code = main(["sf", "--curve", str(files["constant"]), "--k", "6",
                     "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["version"]
        assert out["error"] is None
        assert out["config"]["command"] == "sf"
