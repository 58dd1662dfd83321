"""Every ``ddiqkd`` line of the README's command block runs and exits 0.

Output files named by ``--out`` or ``--trials-out`` are written under the
test's temporary directory; config paths are read from the repository root.
"""

import re
import shlex
from pathlib import Path

import pytest

from ddiqkd import cli

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.search(r"## Command line.*?```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
COMMANDS = [line for line in BLOCK.group(1).splitlines() if line.startswith("ddiqkd ")]


def test_the_block_lists_every_subcommand():
    used = {shlex.split(line, comments=True)[1] for line in COMMANDS}
    assert used == {"table1", "verify", "sweep", "session", "opsearch", "breakeven"}


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split("#")[0].strip())
def test_readme_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line, comments=True)[1:]
    for i, arg in enumerate(argv[:-1]):
        if arg in ("--out", "--trials-out"):
            argv[i + 1] = str(tmp_path / Path(argv[i + 1]).name)
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
