"""README's library example runs as printed and prints the values its comments
state, its flag table lists exactly the parser's flags and defaults, and its
CSV headers are the ones the commands print."""

import argparse
import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from thermwit.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_prints_its_stated_thresholds(tmp_path):
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    stated = [float(value) for value in re.findall(r"#\s*([0-9.]+)", code)]
    assert stated == [3.6410, 1.5666]  # T_star_eq2 (4/ln 3) and T_star_eq4
    assert round(4 / math.log(3), 4) == stated[0]
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    printed = [float(line) for line in done.stdout.split()]
    assert [round(value, 4) for value in printed] == stated


#: A backticked flag with an optional metavar, then an optional "(default)".
FLAG = re.compile(r"`(--[a-z-]+)( [^`]*)?`(?: \((?:default )?([^)]*)\))?")


def _shown(cell: str) -> dict:
    """{flag: (metavar, shown default)} of one README flag list."""
    return {flag: (metavar.strip(), default) for flag, metavar, default
            in FLAG.findall(" ".join(cell.split()))}


def test_readme_flag_table_matches_the_parser():
    text = (ROOT / "README.md").read_text()
    table = {name: _shown(cell)
             for name, cell in re.findall(r"^\| `([a-z-]+)` \| (`--.*) \|$", text, re.M)}
    common_for, common = re.search(
        r"Flags of every data subcommand \((.*?)\):(.*?)\. Per subcommand", text, re.S).groups()
    common_for = re.findall(r"`([a-z-]+)`", common_for)
    common = _shown(common)
    (commands,) = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert set(table) == set(commands.choices)
    for name, sub in commands.choices.items():
        actions = {a.option_strings[-1]: a for a in sub._actions if a.dest != "help"}
        shown = {**table[name], **(common if name in common_for else {})}
        assert set(shown) == set(actions), name
        for flag, (metavar, default) in shown.items():
            if default:
                value = None if default == "stdout" else ast.literal_eval(default)
                assert actions[flag].default == value, (name, flag)
            if "|" in metavar:
                assert tuple(metavar.split("|")) == actions[flag].choices, (name, flag)


def test_readme_output_headers_match_the_goldens():
    text = (ROOT / "README.md").read_text()
    schemas = text[text.index("### Output schemas"):]
    (sweep_header,) = re.findall(r"```\n(T,S,.*)\n```", schemas)
    (gas_header,) = re.findall(r"`gas-scan` rows are `([^`]*)`", schemas)
    golden = ROOT / "tests" / "golden"
    for shown, name in ((sweep_header, "spin_sweep_heis4_ring.csv"),
                        (gas_header, "gas_scan_gen.csv")):
        assert shown == (golden / name).read_text().split("\n", 1)[0], name
