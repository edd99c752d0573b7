"""CLI contract: subcommands, config precedence, CSV determinism, exits."""

import itertools

import numpy as np
import pytest

import lsl.cli
import lsl.representation
from lsl.cli import (
    SWEEP_MAX,
    _KEYS,
    RunConfig,
    _build_parser,
    _resolve_config,
    main,
)
from lsl.lattices import make_cubic_pair, sample_dither
from lsl.rates import very_strong_interference


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRates:
    def test_default_report(self, capsys):
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        assert "2.459432" in out
        assert "3.459432" in out
        assert "1.000000" in out

    def test_text_shows_inputs_and_threshold(self, capsys):
        assert main(["rates"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for label, cell in (("powers P", "10,10,10"), ("cross gains a", "12,12"),
                            ("very-strong threshold", "11.550000"),
                            ("upper bound, bits/use", "3.459432")):
            assert f"  {label:<26} {cell}" in lines

    def test_csv_output(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].startswith("K,j_star,")
        cells = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert cells["achievable_sum"] == "2.459432"
        assert cells["upper_sum"] == "3.459432"
        assert cells["gap"] == "1.000000"

    def test_upper_bound_absent_below_unit_gain(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--a", "0.5,2", "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        cells = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert cells["upper_sum"] == ""
        assert cells["gap"] == ""


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["rates", "--bogus"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_malformed_list(self, capsys):
        assert main(["rates", "--P", "10,x,10"]) == 1

    def test_wrong_power_count(self, capsys):
        assert main(["rates", "--P", "10,10"]) == 1

    def test_infeasible_simulation(self, capsys):
        assert main(["simulate", "--P", "2,2,10", "--a", "1,1",
                     "--trials", "10"]) == 2
        assert capsys.readouterr().err == (
            "infeasible configuration: aligned interference power must "
            "exceed P_K + 1 (mu = 0.181818)\n")

    def test_sweep_needs_var(self, capsys):
        assert main(["sweep"]) == 1

    def test_sweep_bad_var(self, capsys):
        assert main(["sweep", "--var", "bogus", "--from", "1",
                     "--to", "2"]) == 1


class TestConfigPrecedence:
    def test_file_overrides_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LSL_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5  # campaign seed\ntrials=25\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        row = read(out).decode().splitlines()[2].split(",")
        assert row[1] == "25" and row[2] == "5"

    def test_flag_overrides_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LSL_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "3",
                     "--trials", "10", "--out", str(out)]) == 0
        assert read(out).decode().splitlines()[2].split(",")[2] == "3"

    def test_env_seed_lowest_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LSL_SEED", "9")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--trials", "10", "--out", str(out)]) == 0
        assert read(out).decode().splitlines()[2].split(",")[2] == "9"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n")
        assert main(["simulate", "--config", str(cfg), "--trials", "10",
                     "--out", str(out)]) == 0
        assert read(out).decode().splitlines()[2].split(",")[2] == "5"

    def test_invalid_env_seed(self, monkeypatch):
        monkeypatch.setenv("LSL_SEED", "not-a-number")
        assert main(["rates"]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("surprise=1\n")
        assert main(["rates", "--config", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["rates", "--config", str(tmp_path / "absent.cfg")]) == 1

    @pytest.mark.parametrize("line", ["family=bogus", "from=abc"])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\n{line}\n")
        assert main(["rates", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"run.cfg:2: cannot parse {line.split('=')[0]}=" in err


def resolve(argv):
    return _resolve_config(_build_parser().parse_args(argv))


class TestConfigKeys:
    # one value per key, each different from its default
    VALUES = {
        "K": "4", "P": "1,2,3.5,4", "a": "5,6,7", "family": "construction-a",
        "q": "3", "N": "4", "generator": "1,0,1,1;0,1,1,2", "trials": "50",
        "seed": "9", "out": "x.csv", "jobs": "2", "var": "Pmin",
        "from": "2", "to": "5", "step": "0.5",
    }

    def test_flag_and_file_give_the_same_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LSL_SEED", raising=False)
        assert set(self.VALUES) == set(_KEYS)
        default = RunConfig()
        for key, text in self.VALUES.items():
            cfg_file = tmp_path / f"{key}.cfg"
            cfg_file.write_text(f"{key} = {text}\n")
            by_flag = resolve(["sweep", f"--{key}", text])
            by_file = resolve(["sweep", "--config", str(cfg_file)])
            assert by_flag == by_file, key
            field = _KEYS[key].field
            assert getattr(by_flag, field) != getattr(default, field), key

    @pytest.mark.parametrize("cfg", [
        RunConfig(),
        RunConfig(P=(10.0, 10.0, 10.0000004), a=(12.0, 12.0000003)),
        RunConfig(P=(0.1, 1 / 3, 123456789.0), a=(1e-7, 2.5e300)),
        RunConfig(family="construction-a", generator=((1, 0, 1), (0, 1, 2))),
    ])
    def test_echo_is_lossless(self, cfg):
        for key, spec in _KEYS.items():
            if spec.show:
                value = getattr(cfg, spec.field)
                assert spec.parse(spec.show(value)) == value, key

    def test_close_configs_hash_apart(self, tmp_path):
        paths = [tmp_path / "exact.csv", tmp_path / "close.csv"]
        base = ["simulate", "--trials", "5"]
        assert main(base + ["--out", str(paths[0])]) == 0
        assert main(base + ["--P", "10,10,10.0000004", "--a", "12,12.0000003",
                            "--out", str(paths[1])]) == 0
        exact, close = (read(p).decode().splitlines() for p in paths)
        assert exact[0] != close[0]
        assert exact[2].split(",")[0] != close[2].split(",")[0]
        assert exact[2].split(",")[0] == RunConfig(trials=5).hash()

    def test_jobs_flag_is_accepted(self):
        assert resolve(["simulate", "--jobs", "3"]).jobs == 3
        assert main(["simulate", "--jobs", "0"]) == 1


class TestSweep:
    def test_gains_are_the_rates_threshold_with_margin(self):
        # bit-equal, so the sweep and the rate report share one formula
        for k, p_min, p_k in itertools.product((3, 4, 50), (0.1, 1.0, 7.5),
                                               (0.5, 10.0)):
            sym = lsl.cli._symmetric_config(k, p_min, p_k)
            threshold = very_strong_interference(sym).threshold
            assert sym.a == (lsl.cli.SWEEP_GAIN_MARGIN * threshold,) * (k - 1)

    def test_cost_curve_endpoints(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--var", "K", "--from", "3", "--to", "100",
                     "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        assert lines[1].startswith("var,value,")
        first = lines[2].split(",")
        last = lines[-1].split(",")
        header = lines[1].split(",")
        cost_col = header.index("per_user_cost")
        assert first[cost_col] == "1.364858"
        assert last[cost_col] == "0.084435"
        assert len(lines) == 2 + 98

    def test_pmin_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--var", "Pmin", "--from", "5", "--to", "10",
                     "--step", "2.5", "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        assert len(lines) == 2 + 3

    @pytest.mark.parametrize("var", ["K", "Pmin"])
    @pytest.mark.parametrize("bounds", [["10", "5"], ["3", "5", "-2"],
                                        ["3", "5", "0"]])
    def test_empty_or_backward_grid_is_a_usage_error(self, tmp_path, var,
                                                     bounds):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--var", var, "--from", bounds[0], "--to", bounds[1]]
        if len(bounds) == 3:
            argv += ["--step", bounds[2]]
        assert main(argv + ["--out", str(out)]) == 1
        assert not out.exists()

    def test_k_sweep_needs_integers(self):
        assert main(["sweep", "--var", "K", "--from", "3.5", "--to", "5"]) == 1

    def test_pmin_sweep_over_cap(self, tmp_path, capsys):
        # 10,001 points at K=3: cheap even when the grid is built
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--var", "Pmin", "--from", "1",
                     "--to", str(SWEEP_MAX + 1), "--out", str(out)]) == 2
        assert "10000" in capsys.readouterr().err
        assert not out.exists()

    def test_k_sweep_over_cap(self, tmp_path):
        out = tmp_path / "sweep.csv"
        big = str(SWEEP_MAX + 1)
        assert main(["sweep", "--var", "K", "--from", big, "--to", big,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["sweep", "--var", "K", "--from", "3", "--to", "1e300",
                     "--out", str(out)]) == 2

    def test_k_sweep_at_cap(self, tmp_path):
        out = tmp_path / "sweep.csv"
        top = str(SWEEP_MAX)
        assert main(["sweep", "--var", "K", "--from", top, "--to", top,
                     "--out", str(out)]) == 0
        assert len(read(out).decode().splitlines()) == 3


class TestSimulateCsv:
    def test_byte_identical_across_runs_and_jobs(self, tmp_path):
        args = ["simulate", "--trials", "400", "--seed", "11"]
        paths = [tmp_path / f"sim{i}.csv" for i in range(3)]
        assert main(args + ["--out", str(paths[0])]) == 0
        assert main(args + ["--out", str(paths[1])]) == 0
        assert main(args + ["--jobs", "4", "--out", str(paths[2])]) == 0
        blobs = [read(p) for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_header_and_echo(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--trials", "50", "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        assert lines[0].startswith("# config: K=3 P=10,10,10")
        assert lines[1].split(",")[0] == "config_hash"
        assert len(lines) == 3


class TestLeakageCommand:
    def test_identity_columns(self, tmp_path):
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert row["identity_ok"] == "1"
        assert row["passed"] == "1"

    def test_construction_a(self, tmp_path):
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--family", "construction-a",
                     "--generator", "1,1", "--N", "2", "--q", "2",
                     "--out", str(out)]) == 0
        row = dict(zip(*[l.split(",") for l in
                         read(out).decode().splitlines()[1:3]]))
        assert row["M"] == "2"
        assert row["identity_ok"] == "1"


class TestReprCheck:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "repr.csv"
        assert main(["repr-check", "--trials", "300", "--out",
                     str(out)]) == 0
        row = read(out).decode().splitlines()[2].split(",")
        header = read(out).decode().splitlines()[1].split(",")
        cells = dict(zip(header, row))
        assert cells["failures"] == "0"
        assert cells["passed"] == "1"
        assert int(cells["max_index"]) <= int(cells["index_bound"])

    def test_chunked_draws_equal_sequential_dithers(self, monkeypatch):
        # repr-check draws (rows, K, N) uniforms per chunk; row-major, that
        # is K sample_dither calls per trial in turn, across chunks too
        seen = []
        certify = lsl.cli.certify_batch

        def recording_certify(points, lat):
            seen.append(points.copy())
            return certify(points, lat)

        # K=4, N=2: eight draws a trial, three trials a chunk
        monkeypatch.setattr(lsl.cli, "CERT_CHUNK_DRAWS", 24)
        monkeypatch.setattr(lsl.cli, "certify_batch", recording_certify)
        assert main(["repr-check", "--K", "4", "--q", "3", "--trials", "20",
                     "--seed", "5"]) == 0
        assert [len(c) for c in seen] == [3] * 6 + [2]
        lat = make_cubic_pair(3, 2).coarse
        rng = np.random.default_rng(5)
        sequential = [[sample_dither(lat, rng) for _ in range(4)]
                      for _ in range(20)]
        assert np.array_equal(np.concatenate(seen), np.array(sequential))

    @pytest.mark.parametrize("draws,rows", [(7, 1), (42, 7), (100, 16)])
    def test_report_is_independent_of_chunk_size(self, draws, rows,
                                                 tmp_path, monkeypatch):
        argv = ["repr-check", "--trials", "50", "--seed", "4", "--out"]
        assert main(argv + [str(tmp_path / "whole.csv")]) == 0
        sizes = []
        certify = lsl.cli.certify_batch

        def recording_certify(points, lat):
            sizes.append(len(points))
            return certify(points, lat)

        # K=3, N=2: six draws a trial
        monkeypatch.setattr(lsl.cli, "CERT_CHUNK_DRAWS", draws)
        monkeypatch.setattr(lsl.cli, "certify_batch", recording_certify)
        assert main(argv + [str(tmp_path / "chunked.csv")]) == 0
        assert sum(sizes) == 50 and max(sizes) == rows
        assert read(tmp_path / "chunked.csv") == read(tmp_path / "whole.csv")

    def test_window_miss_exits_3_and_names_the_row(self, monkeypatch,
                                                   capsys):
        window_lows = lsl.representation._window_lows

        def shifted(u, num_points):
            lows = window_lows(u, num_points)
            lows[5, 1] += num_points
            return lows

        monkeypatch.setattr(lsl.representation, "_window_lows", shifted)
        assert main(["repr-check", "--trials", "20"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal invariant violation")
        assert "in row 5" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_needs_a_point_per_trial(self, k, capsys):
        assert main(["repr-check", "--K", k, "--trials", "5"]) == 1
        assert capsys.readouterr().err == "error: need at least one point\n"

    def test_rejects_coded_family(self, tmp_path, capsys):
        # certificates live on the coarse lattice, which is cubic for
        # every family, so a coded run would silently repeat a cubic one
        out = tmp_path / "repr.csv"
        assert main(["repr-check", "--family", "construction-a",
                     "--generator", "1,1", "--trials", "5",
                     "--out", str(out)]) == 1
        assert "--family cubic" in capsys.readouterr().err
        assert not out.exists()


class TestOutputFile:
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "sim.csv"
        assert main(["simulate", "--trials", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err

    def test_missing_directory_fails_before_the_campaign(
            self, tmp_path, capsys, monkeypatch):
        import lsl.cli

        def no_campaign(*args, **kwargs):
            raise AssertionError("campaign ran before the --out check")

        monkeypatch.setattr(lsl.cli, "run_campaign", no_campaign)
        out = tmp_path / "missing" / "sim.csv"
        assert main(["simulate", "--trials", "100000",
                     "--out", str(out)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_directory_as_out_is_a_usage_error(self, tmp_path, capsys):
        # the directory exists, so the write itself fails in _emit
        assert main(["leakage", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err


class TestLatticeInfo:
    def test_prints_diagnostics(self, capsys):
        assert main(["lattice-info"]) == 0
        out = capsys.readouterr().out
        assert "covering radius" in out
        assert "epsilon" in out
