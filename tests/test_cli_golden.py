"""Golden CLI output: the full CSV text of every subcommand, pinned.

The files under ``tests/golden`` were written by the CLI and are the
byte-level output contract: a refactor of the CLI must reproduce each of
them exactly.  ``rates`` and ``lattice-info`` also pin their
human-readable blocks.
"""

from pathlib import Path

import pytest

from lsl.cli import main

GOLDEN = Path(__file__).parent / "golden"

CODE = ["--family", "construction-a", "--q", "3", "--N", "4",
        "--generator", "1,0,1,1;0,1,1,2"]

ASYM = ["simulate", "--K", "6", "--P", "9,8,7,6,5,3", "--a",
        "1.5,2,2.5,3,3.5", "--trials", "3000", "--seed", "11"]

CASES = {
    "rates": ["rates", "--K", "4", "--P", "8,9,10,6", "--a", "11,12,13"],
    "rates-no-upper": ["rates", "--a", "0.5,2"],
    "rates-clamp": ["rates", "--P", "0.2,0.2,5", "--a", "1,1"],
    "sweep-K": ["sweep", "--var", "K", "--from", "3", "--to", "8",
                "--step", "2"],
    "sweep-K-clamp": ["sweep", "--var", "K", "--from", "3", "--to", "9",
                      "--step", "3", "--P", "0.2,0.2,5"],
    "sweep-Pmin": ["sweep", "--var", "Pmin", "--from", "5", "--to", "10",
                   "--step", "2.5"],
    "simulate": ["simulate", "--trials", "300", "--seed", "7"],
    "simulate-coded": ["simulate", "--trials", "60", "--seed", "2"] + CODE,
    # unequal powers and gains, over more than one campaign chunk
    "simulate-asym": ASYM,
    "simulate-asym-coded": ASYM + CODE,
    "leakage": ["leakage"],
    "leakage-coded": ["leakage", "--family", "construction-a",
                      "--generator", "1,1", "--N", "2", "--q", "2"],
    "repr-check": ["repr-check", "--trials", "40", "--seed", "3"],
    "lattice-info": ["lattice-info"],
    "lattice-info-coded": ["lattice-info"] + CODE,
}

#: Cases whose human-readable block is pinned too, as ``<name>.txt``.
TEXT = {"rates", "rates-no-upper", "rates-clamp", "lattice-info",
        "lattice-info-coded"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LSL_SEED", raising=False)
    out = tmp_path / f"{name}.csv"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    if name in TEXT:
        text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == text
