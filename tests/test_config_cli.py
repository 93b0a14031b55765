"""Config parsing, snapshot round-trips, and CLI contract tests."""

import json
import math
import platform
import re
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fput2d import __version__, harness
from fput2d.cli import build_parser, main
from fput2d.config import ConfigError, ExperimentPlan, carrier_period, load_plan
from fput2d.io import SnapshotTruncated, read_snapshot, write_snapshot
from fput2d.lattice import DT_MAX, LatticeState
from fput2d.nls import EnvelopeField

TINY = [
    "--set", "eps_list=0.4,0.32,0.25", "--set", "t0=0.2",
    "--set", "box_length=8", "--set", "grid_side=32",
    "--set", "sigma=1.5", "--set", "amplitude=0.8",
    "--set", "sample_count=5", "--set", "workers=1",
]


def check_manifest(out_dir, command, overrides, eps_values):
    """The manifest names the command, the four versions and, per eps run,
    the envelope box length eps*N and the envelope grid side."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["versions"] == {
        "fput2d": __version__, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__}
    plan = load_plan(None, overrides[1::2])
    assert manifest["envelope_boxes"] == [
        {"eps": eps, "box_length": eps * plan.n_side_for(eps),
         "grid_side": plan.resolved_grid_side()} for eps in eps_values]
    assert "manifest.json" in manifest["files"]
    return manifest


class TestConfig:
    def test_defaults(self):
        plan = load_plan()
        assert plan == ExperimentPlan()
        assert plan.eps == 0.2
        assert plan.carrier.k == np.pi / 2 and plan.carrier.l == np.pi / 2
        assert plan.variant == "strain"

    def test_grid_side_rule(self):
        # grid_side 0 is the rule: the smallest power of two with eps*N/M <=
        # 0.5 at every eps; the default boxes, 40 at eps 0.2 and 0.1 and 40.32
        # at 0.14, take 128, and an explicit side is kept
        plan = load_plan()
        assert plan.grid_side == 0
        assert [eps * plan.n_side_for(eps) for eps in plan.eps_list] == pytest.approx(
            [40.0, 40.32, 40.0], rel=1e-12)
        assert plan.resolved_grid_side() == 128
        assert load_plan(None, ["grid_side=256"]).resolved_grid_side() == 256
        assert load_plan(None, ["grid_side=128"]).resolved_grid_side() == 128
        # a box past 64 needs 256 at the same spacing bound
        assert load_plan(None, ["box_length=64.5"]).resolved_grid_side() == 256

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"epsilon_list": [0.2]}))
        with pytest.raises(ConfigError):
            load_plan(str(p))

    def test_yaml_and_json(self, tmp_path):
        y = tmp_path / "c.yaml"
        y.write_text("eps: 0.25\nvariant: displacement\n")
        plan = load_plan(str(y))
        assert plan.eps == 0.25 and plan.variant == "displacement"
        j = tmp_path / "c.json"
        j.write_text('{"eps": 0.3}')
        assert load_plan(str(j)).eps == 0.3

    def test_set_overrides(self):
        plan = load_plan(None, ["eps=0.11", "corrections=true", "eps_list=0.3,0.2,0.1"])
        assert plan.eps == 0.11
        assert plan.corrections is True
        assert plan.eps_list == (0.3, 0.2, 0.1)

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            load_plan(None, ["eps=abc"])
        with pytest.raises(ConfigError):
            load_plan(None, ["nosuchkey=1"])

    def test_type_checks(self, tmp_path):
        for bad in ({"grid_side": "many"}, {"grid_side": 2.5}, {"corrections": 1},
                    {"variant": 3}, {"eps": True}, {"eps_list": 0.2}):
            p = tmp_path / "c.json"
            p.write_text(json.dumps(bad))
            with pytest.raises(ConfigError):
                load_plan(str(p))

    def test_keys_are_plan_fields(self):
        plan = load_plan(None, ["variant=displacement", "eps_list=0.2,0.14,0.1",
                                "carrier_k_pi=0.25", "dt=0.01"])
        assert plan.variant == "displacement"
        assert plan.eps_list == (0.2, 0.14, 0.1)
        assert plan.carrier.k == 0.25 * np.pi and plan.carrier.l == 0.5 * np.pi
        assert plan.dt_for(0.2) == 0.01

    def test_residual_fractions_ascending_in_unit_interval(self):
        assert load_plan(None, ["residual_fractions=0,0.25,1"]).residual_fractions == (
            0.0, 0.25, 1.0)
        for bad in ("1.0,0.5", "0,1.5", "-0.1,0.5", ""):
            with pytest.raises(ConfigError):
                load_plan(None, [f"residual_fractions={bad}"])


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# carrier components k_pi = 2p/q in [-1, 1] with a lattice period q <= 64
_PERIODIC_CARRIER = st.integers(1, 64).flatmap(
    lambda q: st.integers(-(q // 2), q // 2).map(lambda p: 2 * p / q))

# one strategy per key; each draws only values the key's rule accepts
VALID_VALUES = {
    "carrier_k_pi": _PERIODIC_CARRIER,
    "carrier_l_pi": _PERIODIC_CARRIER,
    "variant": st.sampled_from(["strain", "displacement"]),
    "eps": _finite(1e-3, 0.499),
    "eps_list": st.lists(_finite(1e-3, 0.499), min_size=1, max_size=5, unique=True).map(
        lambda xs: tuple(sorted(xs, reverse=True))),
    "t0": _finite(1e-3, 10),
    "grid_side": st.sampled_from([0, 8, 32, 256]),
    "n_side": st.integers(0, 1000),
    "dt": _finite(0, DT_MAX),
    "corrections": st.booleans(),
    "force_kind": st.sampled_from(["cubic_baseline", "perturbed"]),
    "seed": st.integers(0, 2**40),
    "amplitude": _finite(-1e6, 1e6),
    "residual_fractions": st.lists(_finite(0, 1), min_size=1, max_size=4).map(
        lambda xs: tuple(sorted(xs))),
    "delta_res": _finite(0, 1),
    "error_over_eps2_bound": st.floats(allow_nan=False, allow_infinity=False),
    "snapshots": st.integers(0, 50),
}


class TestConfigProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({}, optional=VALID_VALUES))
    def test_json_and_yaml_round_trip(self, tmp_path_factory, values):
        plan = ExperimentPlan(**values)
        data = json.loads(json.dumps(asdict(plan)))  # tuples become lists
        tmp = tmp_path_factory.mktemp("rt")
        (tmp / "p.json").write_text(json.dumps(data))
        (tmp / "p.yaml").write_text(yaml.safe_dump(data))
        # the rules across keys: an explicit n_side closes the carrier on the
        # torus, and an explicit grid side keeps the envelope grid spacing at
        # every eps (grid_side 0 takes the smallest power of two that does)
        period = math.lcm(carrier_period(plan.carrier_k_pi), carrier_period(plan.carrier_l_pi))
        side_ok = plan.n_side == 0 or (plan.n_side >= 8 and plan.n_side % period == 0)
        fine = side_ok and all(e * plan.n_side_for(e) / plan.resolved_grid_side() <= 0.5
                               for e in (plan.eps, *plan.eps_list))
        for name in ("p.json", "p.yaml"):
            if not fine:
                with pytest.raises(ConfigError, match="grid_side" if side_ok else "n_side"):
                    load_plan(str(tmp / name))
                continue
            back = load_plan(str(tmp / name))
            assert back == plan
            assert back.hash() == plan.hash()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([f.name for f in fields(ExperimentPlan)]), st.text())
    def test_random_strings_load_or_raise_config_error(self, key, text):
        # every key is typed: a stray '#' never reads as a number, a bool, a
        # list of numbers or an allowed choice
        with pytest.raises(ConfigError):
            load_plan(None, [f"{key}={text}#"])
        try:
            load_plan(None, [f"{key}={text}"])
        except ConfigError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([f for f in fields(ExperimentPlan)
                            if isinstance(f.default, (float, tuple))]),
           st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
    def test_non_finite_float_rejected_naming_the_key(self, tmp_path_factory, key, value,
                                                      from_file):
        # NaN would pass every rule's comparison and infinity overflows later
        # work, so a float key, or an element of a float list, takes neither
        if from_file:
            path = tmp_path_factory.mktemp("nf") / "p.yaml"
            item = [value] if isinstance(key.default, tuple) else value
            path.write_text(yaml.safe_dump({key.name: item}))
            args = (str(path),)
        else:
            args = (None, [f"{key.name}={value}"])
        with pytest.raises(ConfigError, match=f"config key '{key.name}'"):
            load_plan(*args)


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
        assert path.stat().st_size == 32 + a.size * 16  # the header has no variant byte
        back = read_snapshot(path)
        assert back.slow_time == 0.75
        assert back.box_length == 12.0
        assert np.array_equal(back.a, a)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAPFILE")
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.snap"
        write_snapshot(path, EnvelopeField(4.0, np.ones((8, 8))))
        data = bytearray(path.read_bytes())
        data[7:11] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unsupported snapshot version 1"):
            read_snapshot(path)

    @pytest.mark.parametrize("offset, fmt, value", [
        (12, "<I", 0),  # grid side N
        (24, "<d", 0.0),  # box length L
        (24, "<d", -1.0),
        (24, "<d", float("nan")),
    ], ids=["N=0", "box=0", "box=-1", "box=nan"])
    def test_degenerate_envelope_header_rejected(self, tmp_path, offset, fmt, value):
        path = tmp_path / "e.snap"
        write_snapshot(path, EnvelopeField(4.0, np.ones((8, 8))))
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="^grid (side|spacing)"):
            read_snapshot(path)

    def test_version_2_rejected(self, tmp_path):
        # a version 2 envelope ends its header with a variant byte, and in the
        # strain form it holds the strain envelope (e^{ik0} - 1) Q, not Q
        path = tmp_path / "v2.snap"
        header = struct.pack("<IBIddB", 2, 2, 8, 0.0, 4.0, 0)  # version, form, N, t, L, variant
        path.write_bytes(b"FPUT2D\0" + header + np.ones((8, 8), dtype="<c16").tobytes())
        with pytest.raises(ValueError, match="unsupported snapshot version 2"):
            read_snapshot(path)

    # cuts inside the 7-byte magic (0, 3), the 25 header bytes after it (7, 12,
    # 30) and the payload from byte 32 on (37, 100)
    @pytest.mark.parametrize("keep", [0, 3, 7, 12, 30, 37, 100])
    def test_truncated_file_named(self, tmp_path, keep):
        path = tmp_path / "t.snap"
        write_snapshot(path, EnvelopeField(4.0, np.ones((8, 8))))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(SnapshotTruncated):
            read_snapshot(path)


def _grid(n):
    return st.lists(st.floats(width=64), min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs).reshape(n, n))


@st.composite
def snapshot_objects(draw):
    t = draw(st.floats(allow_nan=False))
    kind = draw(st.sampled_from(["displacement", "strain", "envelope"]))
    if kind == "envelope":
        m = draw(st.sampled_from([2, 4, 8]))
        box = draw(st.floats(min_value=1e-300, max_value=0.5 * m))
        a = np.empty((m, m), dtype=complex)
        a.real, a.imag = draw(_grid(m)), draw(_grid(m))
        return EnvelopeField(box, a, t)
    n = draw(st.integers(8, 10))
    names = ("q", "w") if kind == "displacement" else ("u", "v", "ut", "vt")
    return LatticeState(kind, t, **{name: draw(_grid(n)) for name in names})


class TestSnapshotProperties:
    @settings(max_examples=60, deadline=None)
    @given(snapshot_objects(), st.data())
    def test_round_trip_and_truncation(self, tmp_path_factory, obj, data):
        path = tmp_path_factory.mktemp("snap") / "x.snap"
        write_snapshot(path, obj)
        back = read_snapshot(path)
        assert type(back) is type(obj)
        if isinstance(obj, EnvelopeField):
            assert (back.box_length, back.slow_time) == (obj.box_length, obj.slow_time)
            assert back.a.tobytes() == obj.a.tobytes()
        else:
            assert (back.form, back.time) == (obj.form, obj.time)
            assert [a.tobytes() for a in back.arrays()] == [
                a.tobytes() for a in obj.arrays()]
        full = path.read_bytes()
        path.write_bytes(full[:data.draw(st.integers(0, len(full) - 1))])
        with pytest.raises(SnapshotTruncated):
            read_snapshot(path)


class TestHelpContract:
    def test_help_lists_every_config_key(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        text = capsys.readouterr().out
        listed = re.findall(r"^  (\w+)\s", text, flags=re.M)
        assert listed == [f.name for f in fields(ExperimentPlan)]


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
        manifest = check_manifest(tmp_path, "simulate",
                                  TINY + ["--set", "amplitude=0", "--set", "eps=0.25"], [0.25])
        assert manifest["envelope_boxes"][0]["box_length"] == 8.0  # N = 32
        # diagnostic streams follow the documented column schemas
        lat = (tmp_path / "lattice_diag.csv").read_text().splitlines()
        assert lat[0] == "t,energy,compat_defect,max_amp"
        env = (tmp_path / "envelope_diag.csv").read_text().splitlines()
        assert env[0] == "T,mass,h4proxy,max_amp,spectral_tail"
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


def _synthetic_runs(errors):
    """Stand-in for the sweep's group runner that returns the given max errors per eps."""
    def fake(plan, groups, width, keep_state_indices=()):
        records = []
        for eps in (eps for group in groups for eps in group):
            err = errors[plan.eps_list.index(eps)]
            records.append({"eps": eps, "times": [0.0], "sup_errors": [err],
                            "max_sup_error": err, "error_over_eps2": err / eps**2,
                            "wall_time_s": 0.0})
        return records
    return fake


class TestSweepCommand:
    def test_non_finite_report_exit_3(self, tmp_path, capsys, monkeypatch):
        from fput2d import cli

        report = {"per_eps": [{"eps": 0.2, "max_sup_error": float("nan")}], "pass": True}
        monkeypatch.setattr(cli, "run_sweep", lambda plan: report)
        code = main(["sweep", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "NonFiniteReport" in err and "$.per_eps[0].max_sup_error" in err
        assert not (tmp_path / "report.json").exists()


    def test_synthetic_self_test_pass(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_run_groups",
                            _synthetic_runs([0.04, 0.0196, 0.01]))
        code = main(["sweep", "--out", str(tmp_path), "--set", "workers=1",
                     "--set", "eps_list=0.2,0.14,0.1"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["fitted_order"] == pytest.approx(2.0, abs=1e-9)
        assert (tmp_path / "order_fit.tsv").exists()

    def test_synthetic_failing_order_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_run_groups",
                            _synthetic_runs([0.04, 0.028, 0.02]))  # slope 1
        code = main(["sweep", "--out", str(tmp_path), "--set", "workers=1",
                     "--set", "eps_list=0.2,0.14,0.1"])
        assert code == 4

    def test_short_eps_list_config_error(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), "--set", "eps_list=0.2,0.1"])
        assert code == 1

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
        assert (tmp_path / "a" / "order_fit.tsv").exists()
        manifest = check_manifest(tmp_path / "a", "sweep", TINY, [0.4, 0.32, 0.25])
        assert manifest["config_hash"] == rep1["metadata"]["config_hash"]

    def test_sweep_writes_one_errors_file_per_eps_and_a_float_fit_table(self, tmp_path, capsys):
        # 0.4 and 0.3999999 print alike with 6 significant digits; each eps
        # still gets its own errors file, and order_fit.tsv holds plain floats
        eps_values = [0.4, 0.3999999, 0.32]
        overrides = TINY + ["--set", "eps_list=" + ",".join(map(repr, eps_values))]
        main(["sweep", "--out", str(tmp_path)] + overrides)
        report = json.loads((tmp_path / "report.json").read_text())
        manifest = check_manifest(tmp_path, "sweep", overrides, eps_values)
        assert len(manifest["files"]) == len(set(manifest["files"]))
        names = [f"errors_eps_{eps!r}.csv" for eps in eps_values]
        assert sorted(f for f in manifest["files"] if f.startswith("errors_eps_")) == sorted(names)
        for name, rec in zip(names, report["per_eps"]):
            rows = (tmp_path / name).read_text().splitlines()
            assert rows[0] == "t,sup_error"
            assert [float(row.split(",")[1]) for row in rows[1:]] == rec["sup_errors"]
        lines = (tmp_path / "order_fit.tsv").read_text().splitlines()
        assert lines[0] == "log_eps\tlog_maxerr"
        assert [tuple(float(v) for v in line.split("\t")) for line in lines[1:]] == [
            (float(np.log(rec["eps"])), float(np.log(rec["max_sup_error"])))
            for rec in report["per_eps"]]

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


BAD_INPUTS = [
    ("sweep", ["variant=foo"], {}),
    ("sweep", ["eps_list=0.1,0.14,0.2"], {}),
    ("sweep", ["grid_side=100"], {}),
    ("sweep", ["envelope_kind=foo"], {}),
    ("sweep", ["force_kind=foo"], {}),
    ("simulate", ["eps=0.7"], {}),
    ("simulate", ["eps=0"], {}),
    ("simulate", ["eps=0.5"], {}),
    ("simulate", [f"dt={DT_MAX * 1.01}"], {}),
    ("residual", ["eps_list=0.4,0.25"], {}),
    ("residual", ["residual_fractions=1.0,0.5"], {}),
    ("sweep", [], {"FPUT2D_THREADS": "abc"}),
    ("sweep", [], {"FPUT2D_THREADS": "0"}),
    ("simulate", ["grid_side=8"], {}),  # spacing eps*N/M = 5 at the default eps
    # an explicit grid side too coarse at 0.4 only (the rule would take 512)
    ("sweep", ["n_side=400", "eps_list=0.4,0.3,0.2", "grid_side=256"], {}),
    ("sweep", ["force_kind=linear"], {}),
    ("sweep", ["projection=oblique"], {}),
    ("sweep", ["eps_list=0.2,0.2,0.1"], {}),
    ("simulate", ["carrier_k_pi=0.37"], {}),  # no lattice period q <= 64
    # no lattice period comes first: the strain form would refuse k0 = 0 with exit 2
    ("sweep", ["carrier_k_pi=0", "carrier_l_pi=0.333333333"], {}),
    ("simulate", ["n_side=5"], {}),  # below 8
    ("simulate", ["n_side=250"], {}),  # k0 N = 125 pi at (pi/2, pi/2): a sign seam
    ("simulate", ["t0=inf"], {}),
    ("simulate", ["box_length=inf"], {}),
    ("simulate", ["amplitude=nan"], {}),
    ("sweep", ["pass_threshold=nan"], {}),
    ("simulate", ["seed=-1", "force_kind=perturbed"], {}),
]


@pytest.mark.parametrize("command, sets, env", BAD_INPUTS)
def test_bad_input_rejected_before_work(tmp_path, capsys, monkeypatch, command, sets, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


INADMISSIBLE_CARRIERS = {
    "resonant": ["carrier_k_pi=0.666666666666666666", "carrier_l_pi=0.666666666666666666"],
    "strain_k0": ["carrier_k_pi=0"],  # the strain form's u field vanishes
}


@pytest.mark.parametrize("carrier", INADMISSIBLE_CARRIERS)
@pytest.mark.parametrize("command", ["simulate", "sweep", "residual"])
def test_inadmissible_carrier_refused_before_work(tmp_path, capsys, command, carrier):
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    for item in INADMISSIBLE_CARRIERS[carrier]:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("carrier error:")
    assert "Traceback" not in err
    assert not out.exists()


class TestResidualCommand:
    def test_manifest_records_the_resolved_grid_side(self, tmp_path, capsys):
        # TINY at box 16 and sigma 2 without its grid_side: the rule takes 64
        # at its largest box, 16.64 at eps 0.32, the envelope's tail stays
        # near 1e-15 there, and the manifest records 64, not the 0 of the plan
        overrides = [a for pair in zip(TINY[::2], TINY[1::2]) if pair[1] != "grid_side=32"
                     for a in pair] + ["--set", "box_length=16", "--set", "sigma=2.0"]
        assert main(["residual", "--out", str(tmp_path)] + overrides) in (0, 4)
        manifest = check_manifest(tmp_path, "residual", overrides, [0.4, 0.32, 0.25])
        assert load_plan(None, overrides[1::2]).grid_side == 0
        assert {box["grid_side"] for box in manifest["envelope_boxes"]} == {64}

    def test_rule_grid_that_misses_the_envelope_exits_3(self, tmp_path, capsys):
        # TINY without its grid_side: the rule's 32 points hold 1e-8 of the
        # sigma-1.5 envelope's power in the outer band at T = 0, over
        # harness.RULE_TAIL; the grid TINY names runs (test_writes_report)
        overrides = [a for pair in zip(TINY[::2], TINY[1::2]) if pair[1] != "grid_side=32"
                     for a in pair]
        assert main(["residual", "--out", str(tmp_path)] + overrides) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "EnvelopeUnresolved"
        assert "exceeded 1e-10 at T = 0.000000: the 32-point grid" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_writes_report(self, tmp_path, capsys):
        code = main(["residual", "--out", str(tmp_path)] + TINY)
        report = json.loads((tmp_path / "residual_report.json").read_text())
        assert code in (0, 4)  # the coarse smoke grid need not meet the bars
        assert len(report["per_eps"]) == 3
        for row in report["per_eps"]:
            assert row["with_corrections"] < row["without_corrections"]
