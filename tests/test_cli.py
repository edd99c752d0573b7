"""CLI contract: subcommands, config precedence, CSV determinism, exits."""

import itertools
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsl.cli
import lsl.leakage
import lsl.representation
import lsl.simulate
from lsl.cli import (
    SWEEP_MAX,
    _KEYS,
    RunConfig,
    _build_parser,
    _pmin_grid,
    _resolve_config,
    main,
)
from lsl.lattices import make_cubic_pair, mod_lattice
from lsl.rates import SystemConfig, very_strong_interference


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

    def test_cap_exceeded(self, tmp_path, capsys):
        # a size cap has its own prefix, not "infeasible configuration";
        # at q=2 a direct window sum over a cubic row's K-1 steps would
        # do (K-2)(K+1) additions
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--q", "2", "--K", "3163",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "cap exceeded: cubic tally of 10001404 sum rows exceeds cap "
            "10000000\n")
        assert not out.exists()

    def test_state_cap_at_huge_k_exits_at_once(self, capsys):
        # 3(K-2)(2 + 2(K-1))/2 rows at K = 10^8, counted, never built
        start = time.perf_counter()
        assert main(["leakage", "--q", "3", "--N", "1",
                     "--K", "100000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "cap exceeded: cubic tally of 29999999400000000 sum rows "
            "exceeds cap 10000000\n")

    def test_codebook_bits_checked_before_any_tally(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_tally(*args, **kwargs):
            raise AssertionError("a tally step ran")

        out = tmp_path / "leak.csv"
        bits = lsl.leakage.MAX_CODEBOOK_BITS
        monkeypatch.setattr(lsl.leakage, "_residue_step", no_tally)
        assert main(["leakage", "--q", "2", "--N", str(bits + 1),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"cap exceeded: codebook size 2^{bits + 1} exceeds 2^{bits}\n")
        assert not out.exists()
        monkeypatch.undo()
        assert main(["leakage", "--q", "2", "--N", str(bits),
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2].split(",")[3] == str(
            2 ** bits)

    @pytest.mark.parametrize("argv, over, message", [
        # M = q^N and the index bound K^N hold N*log2(base) <= 4096 bits
        (["lattice-info", "--N", "4096"], ["lattice-info", "--N", "4097"],
         "codebook size 2^4097 exceeds 2^4096"),
        (["lattice-info", "--q", "4", "--N", "2048"],
         ["lattice-info", "--q", "4", "--N", "2049"],
         "codebook size 4^2049 exceeds 2^4096"),
        (["repr-check", "--K", "4", "--N", "2048", "--trials", "3"],
         ["repr-check", "--K", "4", "--N", "2049", "--trials", "3"],
         "index bound 4^2049 exceeds 2^4096"),
        # one repr-check trial holds at most CHUNK_DRAWS = 2^15 draws
        (["repr-check", "--K", "32768", "--N", "1", "--trials", "1"],
         ["repr-check", "--K", "32769", "--N", "1", "--trials", "1"],
         "K*N = 32769 draws exceed 32768"),
        # so does a campaign trial (K=3), whose 32-bit digit rule needs
        # q <= 2^32
        (["simulate", "--N", "10922", "--trials", "1"],
         ["simulate", "--N", "16385", "--trials", "1"],
         "K*N = 49155 draws exceed 32768"),
        (["simulate", "--q", "4294967296", "--N", "1", "--trials", "1"],
         ["simulate", "--q", "4294967297", "--N", "1", "--trials", "1"],
         "q = 4294967297 exceeds 2^32"),
    ])
    def test_printed_powers_and_trial_draws_are_capped(self, argv, over,
                                                      message, capsys):
        assert main(argv) == 0
        capsys.readouterr()
        start = time.perf_counter()
        assert main(over) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"cap exceeded: {message}\n")

    def test_over_wide_code_exits_before_enumeration(self, capsys):
        # 2^16 codewords of 65 coordinates: over the 2^22 entries cap
        gen = ";".join(",".join(str(int(i == r)) for i in range(16))
                       + ",1" * 49 for r in range(16))
        start = time.perf_counter()
        assert main(["lattice-info", "--family", "construction-a", "--q",
                     "2", "--N", "65", "--generator", gen]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", (
            "cap exceeded: codeword enumeration of 65536x65 entries "
            "exceeds cap 4194304\n"))

    def test_repr_check_at_huge_k_exits_before_any_draw(self, capsys,
                                                        monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(lsl.cli, "chunk_bounds", no_draws)
        assert main(["repr-check", "--K", "1000000000", "--N", "1"]) == 2
        assert capsys.readouterr().err == (
            "cap exceeded: K*N = 1000000000 draws exceed 32768\n")

    def test_coded_lattice_info_prints_its_codeword_count(self, capsys):
        # a Construction-A M is q^k for k generator rows, whatever N
        n = 5000
        assert main(["lattice-info", "--family", "construction-a",
                     "--N", str(n), "--generator", ",".join(["1"] * n),
                     "--out", os.devnull]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"  {'codebook size':<26} 2" in lines

    @pytest.mark.parametrize("argv, message", [
        *(pytest.param(
            # --flag=value, since argparse reads a leading "-inf" as a flag
            command + [f"{flag}={template.format(bad)}"],
            "powers and cross gains must be finite",
            id=f"command{i}-values{i}-{bad}")
          for i, (command, (flag, template)) in enumerate([
              (["rates"], ["--P", "{},10,10"]),
              (["rates"], ["--a", "12,{}"]),
              (["sweep", "--var", "K", "--from", "3", "--to", "5"],
               ["--P", "{},10,10"]),
              (["sweep", "--var", "Pmin", "--from", "1", "--to", "2"],
               ["--a", "{},12"]),
              (["simulate", "--trials", "10"], ["--P", "10,10,{}"]),
              (["simulate", "--trials", "10"], ["--a", "12,{}"]),
          ])
          for bad in ["nan", "inf", "-inf"]),
        pytest.param(["rates", "--P", "1e308,1e308,1e308",
                      "--a", "1e308,1e308"],
                     "received power sum a_i*P_i must be finite",
                     id="received-overflow"),
    ])
    def test_non_finite_power_or_gain(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["leakage", "lattice-info",
                                         "simulate", "repr-check"])
    def test_q_whose_square_overflows_is_an_error(self, command, tmp_path,
                                                  capsys):
        q = str(10 ** 200)
        out = tmp_path / "out.csv"
        assert main([command, "--q", q, "--N", "1", "--trials", "10",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: q={q} is too large: q^2 overflows a float\n")
        assert not out.exists()

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


class TestParserCache:
    def test_parser_is_built_once_and_not_at_import(self, monkeypatch,
                                                    capsys):
        built = []

        def spy():
            built.append(1)
            return _build_parser()

        monkeypatch.setattr(lsl.cli, "_parser", None)
        monkeypatch.setattr(lsl.cli, "_build_parser", spy)
        assert main(["rates"]) == 0
        assert main(["rates"]) == 0
        assert len(built) == 1
        src = os.path.dirname(os.path.dirname(lsl.cli.__file__))
        result = subprocess.run(
            [sys.executable, "-c", "import lsl.cli; print(lsl.cli._parser)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True)
        assert result.stdout == "None\n"

    def test_command_patched_after_first_call_runs(self, monkeypatch,
                                                   capsys):
        assert main(["rates"]) == 0
        seen = []
        monkeypatch.setattr(lsl.cli, "cmd_rates",
                            lambda cfg: seen.append(cfg.K) or 7)
        assert main(["rates", "--K", "4", "--P", "1,2,3,4",
                     "--a", "5,6,7"]) == 7
        assert seen == [4]

    @pytest.mark.parametrize("failing", [["simulate", "--trials", "0"],
                                         ["rates", "--bogus"],
                                         ["frobnicate"]])
    def test_failed_call_leaves_the_next_unchanged(self, failing, tmp_path,
                                                   monkeypatch, capsys):
        # the next call prints what a fresh process printed into the golden
        monkeypatch.delenv("LSL_SEED", raising=False)
        golden = os.path.join(os.path.dirname(__file__), "golden")
        assert main(failing) == 1
        capsys.readouterr()
        out = tmp_path / "rates.csv"
        assert main(["rates", "--K", "4", "--P", "8,9,10,6",
                     "--a", "11,12,13", "--out", str(out)]) == 0
        assert capsys.readouterr().out == read(
            os.path.join(golden, "rates.txt")).decode()
        assert read(out) == read(os.path.join(golden, "rates.csv"))


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


def sweep_row(tmp_path, *argv):
    """The one row of a one-point sweep, keyed by the header."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    _, header, row = read(out).decode().splitlines()
    return dict(zip(header.split(","), row.split(",")))


class TestSweep:
    def test_gains_are_the_rates_threshold_with_margin(self, tmp_path):
        # the rate report's threshold for the equal symmetric channel
        for k, p_min, p_k in itertools.product((3, 4, 50), (0.1, 1.0, 7.5),
                                               (0.5, 10.0)):
            sym = SystemConfig(K=k, P=(p_min,) * (k - 1) + (p_k,),
                               a=(1.0,) * (k - 1))
            gain = (lsl.cli.SWEEP_GAIN_MARGIN
                    * very_strong_interference(sym).threshold)
            cells = sweep_row(tmp_path, "--var", "K", "--from", str(k),
                              "--to", str(k), "--P", f"{p_min},{p_min},{p_k}")
            assert cells["a_auto"] == f"{gain:.6f}"
            assert cells["very_strong"] == "1"
            assert very_strong_interference(
                replace(sym, a=(gain,) * (k - 1))).satisfied

    @pytest.mark.parametrize("k, column, cell", [
        # exact values 6626.5412654997... and 13.2610664999994...
        (3832, "upper_sum", "6626.541265"),
        (9818, "gap", "13.261066"),
    ])
    def test_closed_form_cells_are_correctly_rounded(self, tmp_path, k,
                                                     column, cell):
        cells = sweep_row(tmp_path, "--var", "K", "--from", str(k),
                          "--to", str(k))
        assert cells[column] == cell

    def test_overflowing_auto_gain_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--var", "K", "--from", "3", "--to", "4",
                     "--P", "1e-300,1e-300,1e300", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: auto cross gain overflows the received power at K=3\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["10000", "16384", "100000"])
    def test_one_point_pmin_sweep(self, tmp_path, value):
        # from 2^14 up, to + 1e-12 rounds back to to, and to stays a point
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--var", "Pmin", "--from", value, "--to", value,
                     "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        assert len(lines) == 2 + 1
        assert lines[2].startswith(f"Pmin,{float(value):.6f},3,")

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

    def test_pmin_sweep_keeps_to_from_2_to_the_14(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--var", "Pmin", "--from", "16384",
                     "--to", "16386", "--out", str(out)]) == 0
        values = [line.split(",")[1]
                  for line in read(out).decode().splitlines()[2:]]
        assert values == ["16384.000000", "16385.000000", "16386.000000"]

    @settings(max_examples=500, deadline=None)
    @given(st.floats(2.0 ** -20, 2.0 ** 14, exclude_max=True),
           st.floats(0.0, 2.0 ** 14), st.floats(2.0 ** -10, 2.0 ** 14))
    @example(5.0, 10.0, 2.5)
    @example(0.1, 0.7, 0.1)
    @example(1.0, 1.0, 1.0)
    @example(8192.0, 8194.0, 1.0)
    def test_pmin_grid_is_np_arange_below_2_to_the_14(self, lo, hi, step):
        # the grid np.arange(lo, hi + 1e-12, step) made before, whenever
        # it holds a point and stays under the cap
        hi = min(max(lo, hi), np.nextafter(2.0 ** 14, 0))
        if (hi + 1e-12 - lo) / step > SWEEP_MAX:
            return
        want = np.arange(lo, hi + 1e-12, step).tolist()
        assert want and _pmin_grid(lo, hi, step) == want

    def test_pmin_sweep_over_cap(self, tmp_path, capsys):
        # 10,001 points at K=3: cheap even when the grid is built
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--var", "Pmin", "--from", "1",
                     "--to", str(SWEEP_MAX + 1), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "cap exceeded: Pmin sweep has more than 10000 points\n")
        assert not out.exists()

    def test_k_sweep_over_cap(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        big = str(SWEEP_MAX + 1)
        assert main(["sweep", "--var", "K", "--from", big, "--to", big,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "cap exceeded: K sweep goes above K=10000\n")
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


# A direct child of this process would inherit the test runner's peak RSS
# through fork, so a small interpreter starts the CLI and prints its exit
# code and ru_maxrss (kilobytes on Linux) from wait4.
LAUNCH = ("import os, subprocess, sys\n"
          "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
          "_, status, usage = os.wait4(child.pid, 0)\n"
          "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")

linux_rss = pytest.mark.skipif(not sys.platform.startswith("linux"),
                               reason="ru_maxrss is in kilobytes on Linux")


def child_usage(*args):
    """Exit code and peak RSS in kilobytes of ``lsl *args`` in a child."""
    src = os.path.dirname(os.path.dirname(lsl.cli.__file__))
    argv = [sys.executable, "-c", LAUNCH,
            sys.executable, "-m", "lsl.cli", *args]
    result = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    return tuple(map(int, result.stdout.split()))


class TestSimulateMemory:
    @linux_rss
    def test_wide_campaign_stays_small(self):
        # A chunk is a fixed number of draws, so 199 interferers take no
        # more memory than two: the peak stays near start-up.
        code, max_rss_kb = child_usage(
            "simulate", "--K", "200", "--P", ",".join(["10"] * 200),
            "--a", ",".join(["12"] * 199), "--trials", "4096")
        assert code == 0
        assert max_rss_kb < 80 * 1024

    @linux_rss
    def test_coded_campaign_over_4096_codewords(self):
        # q=2, N=16, k=12: every decoded row scores 4,096 codewords from
        # one distance table (about 10 s at 2,000 trials as a loop over
        # the codeword cosets, under 2 s as a table scan)
        gen = ";".join(",".join(str(int(i == r)) for i in range(12)) + ","
                       + ",".join(str((r + 1) >> b & 1) for b in range(4))
                       for r in range(12))
        start = time.perf_counter()
        code, max_rss_kb = child_usage(
            "simulate", "--family", "construction-a", "--q", "2", "--N",
            "16", "--generator", gen, "--trials", "2000")
        assert code == 0
        assert time.perf_counter() - start < 5.0
        assert max_rss_kb < 60 * 1024


class TestLeakageCommand:
    @linux_rss
    def test_cubic_row_tallies_one_coordinate(self):
        # 3^14 joint states if enumerated, 3^2 per coordinate
        code, max_rss_kb = child_usage("leakage", "--q", "3", "--N", "7")
        assert code == 0
        assert max_rss_kb < 80 * 1024

    @linux_rss
    def test_cubic_row_at_its_cap_is_small_and_fast(self):
        # K = 3162 at q=2: 2^3161 joint states, 3,161 steps of a count
        # vector of at most 3,162 sums (9,995,080 additions as a direct
        # window sum, the work the cap counts)
        start = time.perf_counter()
        code, max_rss_kb = child_usage("leakage", "--q", "2", "--K", "3162")
        assert code == 0
        assert time.perf_counter() - start < 5.0
        assert max_rss_kb < 100 * 1024

    @linux_rss
    def test_cubic_row_at_its_large_q_cap_stays_at_start_up(self):
        # q = 3162 at K=3: two steps to 6,323 sums, where expanding every
        # support row by every residue built q^2 = 10^7 rows (414 MB)
        start = time.perf_counter()
        code, max_rss_kb = child_usage("leakage", "--q", "3162", "--K", "3")
        assert code == 0
        assert time.perf_counter() - start < 2.0
        assert max_rss_kb < 60 * 1024

    @pytest.mark.parametrize("k", ["2", "0", "-5"])
    def test_needs_three_users(self, k, tmp_path, capsys):
        out = tmp_path / "leak.csv"
        assert main(["leakage", "--K", k, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need at least 3 users\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["leakage", "repr-check",
                                         "lattice-info"])
    def test_echo_names_no_channel(self, command, tmp_path):
        # these subcommands never read P or a, so a K the default
        # channel does not fit still echoes a config that reads back
        out = tmp_path / "out.csv"
        assert main([command, "--K", "5", "--trials", "10",
                     "--out", str(out)]) == 0
        assert read(out).decode().splitlines()[0] == (
            "# config: K=5 family=cubic q=2 N=2 generator=- trials=10 "
            "seed=1")

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
        # is K dither draws per trial in turn, across chunks too
        seen = []
        certify = lsl.cli.certify_batch

        def recording_certify(points, lat):
            seen.append(points.copy())
            return certify(points, lat)

        # K=4, N=2: eight draws a trial, at most three trials a chunk,
        # balanced over seven chunks
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", 24)
        monkeypatch.setattr(lsl.cli, "certify_batch", recording_certify)
        assert main(["repr-check", "--K", "4", "--q", "3", "--trials", "20",
                     "--seed", "5"]) == 0
        assert [len(c) for c in seen] == [2] + [3] * 6
        lat = make_cubic_pair(3, 2).coarse
        rng = np.random.default_rng(5)
        sequential = [[mod_lattice(lat, lat.scale * rng.random(2))
                       for _ in range(4)] for _ in range(20)]
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
        monkeypatch.setattr(lsl.simulate, "CHUNK_DRAWS", draws)
        monkeypatch.setattr(lsl.cli, "certify_batch", recording_certify)
        assert main(argv + [str(tmp_path / "chunked.csv")]) == 0
        # at most ``rows`` trials a chunk, in as few chunks as that
        # allows, balanced to within one trial
        assert sum(sizes) == 50 and len(sizes) == -(-50 // rows)
        assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1
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

    @pytest.mark.parametrize("n", ["977", "978", "1000"])
    def test_amplification_past_the_float_range_is_inf(self, tmp_path, n):
        # exp(N * eps) of a cubic cell passes the largest float at N = 978
        out = tmp_path / "info.csv"
        assert main(["lattice-info", "--N", n, "--out", str(out)]) == 0
        lines = read(out).decode().splitlines()
        cells = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert (cells["amplification"] == "inf") == (n != "977")
