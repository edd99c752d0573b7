"""CLI contract: subcommands, config precedence, CSV determinism, exits."""

from lsl.cli import main


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


class TestSweep:
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

    def test_rejects_coded_family(self, tmp_path, capsys):
        # certificates live on the coarse lattice, which is cubic for
        # every family, so a coded run would silently repeat a cubic one
        out = tmp_path / "repr.csv"
        assert main(["repr-check", "--family", "construction-a",
                     "--generator", "1,1", "--trials", "5",
                     "--out", str(out)]) == 1
        assert "--family cubic" in capsys.readouterr().err
        assert not out.exists()


class TestLatticeInfo:
    def test_prints_diagnostics(self, capsys):
        assert main(["lattice-info"]) == 0
        out = capsys.readouterr().out
        assert "covering radius" in out
        assert "epsilon" in out
