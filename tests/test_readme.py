"""The README's library quick start runs verbatim and prints what it says."""

import os
import re
import subprocess
import sys

from test_cli import src_env

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def quick_start_block() -> str:
    text = open(README, encoding="utf-8").read()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs_verbatim(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", quick_start_block()], capture_output=True, text=True, cwd=tmp_path, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "(0, 1)"
