"""Every command-line example of the README runs as written: exit 0 and
output that parses (JSON, or the selftest's report lines)."""

import json
import re
import shlex
from pathlib import Path

import pytest

from freenoise.cli import run
from freenoise.spectral import DENSITY_SETTINGS

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("freenoise ")]


def test_the_readme_has_examples():
    assert len(_examples()) >= 12


@pytest.mark.parametrize("line", _examples())
def test_readme_example_runs(line, capsys):
    argv = shlex.split(line)[1:]
    assert run(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "selftest":
        *reports, summary = out.splitlines()
        assert reports and all(re.match(r"\[PASS\] \w+ .*: ", r) for r in reports)
        assert summary == f"passed {len(reports)} of {len(reports)}"
    else:
        doc = json.loads(out)
        assert doc["config"]["subcommand"] == argv[0]


def test_the_density_table_names_every_setting_and_no_other():
    section = README.read_text().split("### Density configuration", 1)[1]
    table = section.split("| flag | config key | meaning |", 1)[1].split("\n\n", 1)[0]
    flags, keys = set(), set()
    for line in table.splitlines()[2:]:
        flag_cell, key_cell = line.split(" | ")[:2]
        flags.update(re.findall(r"`(--[\w-]+)`", flag_cell))
        keys.update(re.findall(r"`(\w+)", key_cell))
    assert flags == {"--" + name.replace("_", "-") for name in DENSITY_SETTINGS}
    # cutoffs sets the two cutoff keys at once
    assert keys == {row.key for row in DENSITY_SETTINGS.values()} | {"cutoffs"}
