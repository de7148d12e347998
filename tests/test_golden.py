"""Byte-for-byte checks of ``select``, ``rank`` and ``verify`` output against
stored files.

``tests/data/golden`` holds two input fronts (``gen --family table1`` and
``gen --family sphere3d --samples 200``) and, for each, the output of
``select --method mmd|ws``, ``select --method dnc --seed 7`` and ``rank`` in
text, csv and json; for ``table1`` also the text of ``verify --self-test
100``.  A change to parsing, partitioning or serialization that alters a
single byte of any of them fails here."""

from pathlib import Path

import pytest

from knee_mcdm import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
FRONTS = ["table1", "sphere3d-200"]
COMMANDS = {
    "select-mmd": ["select", "--method", "mmd"],
    "select-ws": ["select", "--method", "ws"],
    "select-dnc": ["select", "--method", "dnc", "--seed", "7"],
    "rank": ["rank"],
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("front", FRONTS)
def test_output_matches_golden(front, command, fmt, capsys):
    args = COMMANDS[command] + [
        "--input", str(GOLDEN / f"{front}.csv"), "--output-format", fmt,
    ]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{front}.{command}.{fmt}").read_bytes()



def test_verify_self_test_matches_golden(capsys):
    args = ["verify", "--input", str(GOLDEN / "table1.csv"), "--self-test", "100"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "table1.verify-self-test-100.text").read_bytes()
