"""Structured logger contract: human output byte-identical to print()."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.obs.logging import configure_logging, get_logger


@pytest.fixture(autouse=True)
def restore_logging():
    yield
    configure_logging()  # leave the process in the default human mode


def test_human_mode_matches_print_bytes(capsys):
    configure_logging()
    log = get_logger("test")
    log.info("total gas: %dk" % 42, gas=42000)
    captured = capsys.readouterr()
    assert captured.out == "total gas: 42k\n"  # fields stay out of the text
    assert captured.err == ""


def test_errors_route_to_stderr_with_error_prefix(capsys):
    configure_logging()
    log = get_logger("test")
    log.error("something broke")
    log.error("error: already prefixed")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: something broke\n" "error: already prefixed\n"
    )


def test_json_mode_emits_one_object_per_line(capsys):
    configure_logging(json_mode=True)
    log = get_logger("test")
    log.info("block mined", height=3, root=b"\x01\x02")
    log.warning("slow scrape")
    captured = capsys.readouterr()
    lines = captured.out.splitlines() + captured.err.splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 2
    mined = next(r for r in records if r["event"] == "block mined")
    assert mined["level"] == "info"
    assert mined["logger"] == "repro.test"
    assert mined["fields"] == {"height": 3, "root": "0102"}  # bytes -> hex
    assert "ts" in mined
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_log_level_filters(capsys):
    configure_logging(level="warning")
    log = get_logger("test")
    log.info("invisible")
    log.warning("visible")
    captured = capsys.readouterr()
    assert "invisible" not in captured.out + captured.err
    assert "visible" in captured.err


def test_multiline_tables_survive_verbatim(capsys):
    configure_logging()
    table = "+---+\n| x |\n+---+"
    get_logger("test").info(table)
    assert capsys.readouterr().out == table + "\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_records_after_the_reader_left_are_dropped_quietly(unbuffered):
    """``serve --log-json | head -1`` with ``head`` already gone: every
    record meets a closed pipe and is dropped, stderr stays empty, and
    the run still exits 0.  Block-buffered stdout (a pipe's default)
    still holds the failed flush's bytes at interpreter exit; they must
    not fail a second time there."""
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--tasks", "2",
         "--log-json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader leaves before the first record
    try:
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert stderr == b""
    assert proc.returncode == 0
