"""The command-line surface, frozen: every parser's ``--help`` text.

``tests/vectors/cli_help.txt`` holds the help of the top-level parser
and of each subcommand, rendered at 80 columns, one section per parser
under a ``$ repro.cli ... --help`` header.  A subcommand, flag, default,
metavar or help phrase that changes shows up here as a diff.  A change
made on purpose re-records the file: write the concatenated headers and
texts of :func:`render_help` with ``COLUMNS=80`` set.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "vectors" / "cli_help.txt"
HEADER = "$ repro.cli%s --help\n"


def _parsers(parser, path=""):
    """``(path, parser)`` for a parser and, depth first, its subcommands."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, "%s %s" % (path, name))


def render_help() -> dict:
    """Each parser's help text, keyed by its ``$ repro.cli ...`` header."""
    return {
        HEADER % path: parser.format_help()
        for path, parser in _parsers(build_parser())
    }


def _golden() -> dict:
    sections = {}
    header = None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ repro.cli"):
            header = line
            sections[header] = ""
        else:
            sections[header] += line
    return sections


def test_every_parsers_help_matches_the_golden_text(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rendered = render_help()
    golden = _golden()
    assert len(rendered) == 20  # the top level plus 19 subcommands
    assert list(rendered) == list(golden)
    for header, text in rendered.items():
        assert text == golden[header], header
