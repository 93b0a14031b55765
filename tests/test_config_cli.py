"""Config parsing, snapshot round-trips, and CLI contract tests."""

import json
import re

import numpy as np
import pytest

from fput2d.cli import build_parser, main
from fput2d.config import SCHEMA, ConfigError, default_config, load_config, to_plan
from fput2d.io import read_snapshot, write_snapshot
from fput2d.lattice import LatticeState
from fput2d.nls import EnvelopeField

TINY = [
    "--set", "eps_list=0.4,0.32,0.25", "--set", "t0=0.2",
    "--set", "box_length=8", "--set", "grid_side=32",
    "--set", "sigma=1.5", "--set", "amplitude=0.8",
    "--set", "sample_count=5", "--set", "workers=1",
]


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.eps == 0.2
        assert cfg.carrier_k == pytest.approx(np.pi / 2)
        assert cfg.variant == "strain"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"epsilon_list": [0.2]}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_yaml_and_json(self, tmp_path):
        y = tmp_path / "c.yaml"
        y.write_text("eps: 0.25\nvariant: displacement\n")
        cfg = load_config(str(y))
        assert cfg.eps == 0.25 and cfg.variant == "displacement"
        j = tmp_path / "c.json"
        j.write_text('{"eps": 0.3}')
        assert load_config(str(j)).eps == 0.3

    def test_set_overrides(self):
        cfg = load_config(None, ["eps=0.11", "corrections=true", "eps_list=0.3,0.2,0.1"])
        assert cfg.eps == 0.11
        assert cfg.corrections is True
        assert cfg.eps_list == [0.3, 0.2, 0.1]

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            load_config(None, ["eps=abc"])
        with pytest.raises(ConfigError):
            load_config(None, ["nosuchkey=1"])

    def test_type_checks(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"grid_side": "many"}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_to_plan(self):
        plan = to_plan(load_config(None, ["variant=displacement", "eps_list=0.2,0.14,0.1"]))
        assert plan.variant == "displacement"
        assert plan.eps_list == (0.2, 0.14, 0.1)
        assert plan.carrier_k == pytest.approx(np.pi / 2)


class TestSnapshots:
    def test_displacement_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        s = LatticeState("displacement", 3.25, q=rng.normal(size=(16, 16)),
                         w=rng.normal(size=(16, 16)))
        path = tmp_path / "d.snap"
        write_snapshot(path, s)
        back = read_snapshot(path)
        assert back.form == "displacement"
        assert back.time == 3.25
        assert np.array_equal(back.q, s.q) and np.array_equal(back.w, s.w)

    def test_strain_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {k: rng.normal(size=(8, 8)) for k in ("u", "v", "ut", "vt")}
        s = LatticeState("strain", 1.5, **arrays)
        path = tmp_path / "s.snap"
        write_snapshot(path, s)
        back = read_snapshot(path)
        for k, a in arrays.items():
            assert np.array_equal(getattr(back, k), a)

    def test_envelope_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        env = EnvelopeField(12.0, a, 0.75)
        path = tmp_path / "e.snap"
        write_snapshot(path, env)
        back = read_snapshot(path)
        assert back.slow_time == 0.75
        assert np.array_equal(back.a, a)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAPFILE")
        with pytest.raises(ValueError):
            read_snapshot(path)


class TestHelpContract:
    def test_help_lists_every_config_key(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        text = capsys.readouterr().out
        listed = set(re.findall(r"^  (\w+)\s", text, flags=re.M))
        assert listed == set(SCHEMA)


class TestCoeffsCommand:
    def test_golden_center(self, capsys):
        code = main(["coeffs"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["omega0"] == pytest.approx(2.0, abs=1e-12)
        assert out["cx"] == pytest.approx(0.5, abs=1e-12)
        assert out["cy"] == pytest.approx(0.5, abs=1e-12)
        assert out["gamma_a_im"] == pytest.approx(-0.75, abs=1e-12)
        assert out["gamma_q_im"] == pytest.approx(-6.0, abs=1e-12)
        assert np.allclose(out["hess"], [[-0.125, -0.125], [-0.125, -0.125]], atol=1e-12)
        assert out["nonresonant"] is True

    def test_zero_carrier_exit_2(self, capsys):
        code = main(["coeffs", "--set", "carrier_k_pi=0", "--set", "carrier_l_pi=0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "ZeroFrequency" in out

    def test_axis_degenerate_flag(self, capsys):
        code = main(["coeffs", "--set", "carrier_l_pi=0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["axis_degenerate_l"] is True
        assert out["gamma_b_im"] is None
        assert out["gamma_a_im"] is not None

    def test_resonant_carrier_exit_2(self, capsys):
        code = main(["coeffs", "--set", "carrier_k_pi=0.666666666666666666",
                     "--set", "carrier_l_pi=0.666666666666666666"])
        capsys.readouterr()
        assert code == 2

    def test_config_error_exit_1(self, capsys):
        assert main(["coeffs", "--set", "bogus=1"]) == 1


class TestSimulateCommand:
    def test_zero_envelope_summary(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path)] + TINY
                    + ["--set", "amplitude=0", "--set", "eps=0.25"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_sup_error"] == 0.0
        snaps = list(tmp_path.glob("state_*.snap"))
        assert len(snaps) >= 3
        assert (tmp_path / "manifest.json").exists()
        # diagnostic streams follow the documented column schemas
        lat = (tmp_path / "lattice_diag.csv").read_text().splitlines()
        assert lat[0] == "t,energy,compat_defect,max_amp"
        env = (tmp_path / "envelope_diag.csv").read_text().splitlines()
        assert env[0] == "T,mass,h4proxy,max_amp"
        assert (tmp_path / "envelope_final.snap").exists()

    def test_snapshots_readable(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path)] + TINY + ["--set", "eps=0.25"])
        assert code == 0
        for snap in tmp_path.glob("state_*.snap"):
            st = read_snapshot(snap)
            assert st.form == "strain"

    def test_blowup_exit_3(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path)] + TINY
                    + ["--set", "amplitude=80", "--set", "eps=0.25"])
        err = capsys.readouterr().err
        assert code == 3
        assert "EnvelopeBlowup" in err


class TestSweepCommand:
    def test_synthetic_self_test_pass(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path),
                     "--set", "eps_list=0.2,0.14,0.1",
                     "--set", "synthetic_errors=0.04,0.0196,0.01"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["fitted_order"] == pytest.approx(2.0, abs=1e-9)
        assert (tmp_path / "order_fit.tsv").exists()

    def test_synthetic_failing_order_exit_4(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path),
                     "--set", "eps_list=0.2,0.14,0.1",
                     "--set", "synthetic_errors=0.04,0.028,0.02"])  # slope 1
        assert code == 4

    def test_short_eps_list_config_error(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), "--set", "eps_list=0.2,0.1"])
        assert code == 1

    def test_resonant_carrier_refused(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path),
                     "--set", "carrier_k_pi=0.666666666666666666",
                     "--set", "carrier_l_pi=0.666666666666666666"])
        assert code == 2
        assert not (tmp_path / "report.json").exists()

    def test_real_tiny_sweep_and_idempotence(self, tmp_path, capsys):
        def run(sub):
            out = tmp_path / sub
            code = main(["sweep", "--out", str(out)] + TINY)
            report = json.loads((out / "report.json").read_text())
            report["metadata"].pop("wall_time_s")
            for r in report["per_eps"]:
                r.pop("wall_time_s")
            return code, report

        code1, rep1 = run("a")
        code2, rep2 = run("b")
        assert code1 == code2
        assert rep1 == rep2
        assert rep1["fitted_order"] is not None

    def test_error_over_eps2_bound_enforced_exit_4(self, tmp_path, capsys):
        # the smoke grid fits order ~1.7; a lowered bar makes the order pass,
        # so only the error/eps^2 bound can fail the sweep
        order_ok = TINY + ["--set", "pass_threshold=1.0"]
        assert main(["sweep", "--out", str(tmp_path / "a")] + order_ok) == 0
        code = main(["sweep", "--out", str(tmp_path / "b")] + order_ok
                    + ["--set", "error_over_eps2_bound=1e-9"])
        assert code == 4
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["fitted_order"] >= 1.0 and report["pass"] is False


class TestResidualCommand:
    def test_writes_report(self, tmp_path, capsys):
        code = main(["residual", "--out", str(tmp_path)] + TINY)
        report = json.loads((tmp_path / "residual_report.json").read_text())
        assert code in (0, 4)  # the coarse smoke grid need not meet the bars
        assert len(report["per_eps"]) == 3
        for row in report["per_eps"]:
            assert row["with_corrections"] < row["without_corrections"]
