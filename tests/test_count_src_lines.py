"""tools/count_src_lines.py: what counts as a code line, and a closed reader."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "count_src_lines.py"
_spec = importlib.util.spec_from_file_location("count_src_lines", TOOL)
count_src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_src_lines)


def test_comments_blanks_and_docstrings_do_not_count():
    source = '"""Module."""\n\n# note\ndef f():\n    """Doc."""\n    return (1,\n            2)\n'
    assert count_src_lines.count_code_lines(source) == 3


def test_closed_reader_ends_quietly():
    # the read end is closed before the tool writes, as `| head` closes it early
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, str(TOOL), str(ROOT / "src" / "chaoskit")],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1
