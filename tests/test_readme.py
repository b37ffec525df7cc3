"""The examples in README.md run and print what they promise."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from conftest import STUCK_TEXT

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_readme_library_example_runs():
    assert len(blocks("python")) == 1
    proc = subprocess.run([sys.executable, "-c", blocks("python")[0]],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Verdict.COVERABLE ['grab', 'work', 'work']\n"


def test_readme_cli_transcripts(tmp_path):
    """Each ``$ command`` of the console blocks prints the lines under it,
    with ``demo.cover`` the README's problem file and ``stuck.cover`` the
    one-transition net that never fires; bench timings are masked."""
    (tmp_path / "nets").mkdir()
    for where in (tmp_path, tmp_path / "nets"):
        (where / "demo.cover").write_text(blocks("text")[0])
        (where / "stuck.cover").write_text(STUCK_TEXT)
    commands = []
    for block in blocks("console"):
        for entry in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, expected = entry.partition("\n")
            if command == "echo $?":
                actual = f"{proc.returncode}\n"
            else:
                argv, _, pipe = command.partition(" | head -")
                proc = subprocess.run(
                    [sys.executable, "-m", "coverlib", *shlex.split(argv)[1:]],
                    cwd=tmp_path, capture_output=True, text=True, env=ENV)
                actual = proc.stdout
                if pipe:
                    actual = "".join(actual.splitlines(True)[:int(pipe)])
                if argv.startswith("coverlib bench"):
                    actual, expected = (re.sub(r",[0-9.]+$", ",<ms>", text, flags=re.M)
                                        for text in (actual, expected))
            assert actual == expected, command
            commands.append(command.split(" --")[0])
    assert commands == ["coverlib solve", "echo $?", "coverlib solve",
                        "coverlib preprocess", "coverlib bench"]
