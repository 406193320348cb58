"""The structured logger behind the CLI (and any long-running node).

Built on stdlib :mod:`logging` with two output shapes:

* **human** (the default) — the message alone, byte-identical to the
  ``print()`` output it replaced, so seeded CLI invocations keep
  printing the same bytes and the pinned CLI tests hold;
* **json** (``--log-json``) — one JSON object per line
  (``{"level": ..., "logger": ..., "event": ..., "fields": {...}}``),
  the shape a log shipper ingests.  JSON records carry a wall-clock
  ``ts``; like trace files, logs are observations about a run, never
  inputs to it, so they sit outside the determinism contract.

Routing matches the CLI's historical behaviour: records below WARNING
go to stdout, WARNING and above to stderr.  Handlers resolve
``sys.stdout``/``sys.stderr`` *at emit time*, so pytest's ``capsys``
(and any other stream swap) keeps working.

Use :func:`get_logger` for a :class:`StructuredLogger`, whose methods
accept keyword fields::

    log = get_logger("cli")
    log.info("node state saved", state_dir=path, height=chain.height)

In human mode the fields are dropped (the message is the rendering); in
JSON mode they ride the ``fields`` member with JSON-safe coercion.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from typing import Any, Dict, Optional

__all__ = [
    "configure_logging",
    "get_logger",
    "StructuredLogger",
    "add_logging_flags",
]

_ROOT_NAME = "repro"


class _DynamicStreamHandler(logging.StreamHandler):
    """A StreamHandler bound to a *name* (stdout/stderr), not an object.

    A record the stream's reader is no longer there for (``... | head
    -1`` has exited) is dropped quietly; any other failure to emit is
    reported the stdlib way.  The first such record also points the
    stream's descriptor at the null device: a block-buffered stream
    keeps the bytes its failed flush could not write, and would fail on
    them again at interpreter exit (an ``Exception ignored`` line on
    stderr and exit status 120).
    """

    def __init__(self, use_stderr: bool) -> None:
        super().__init__()
        self._use_stderr = use_stderr

    @property
    def stream(self):  # type: ignore[override]
        return sys.stderr if self._use_stderr else sys.stdout

    @stream.setter
    def stream(self, value):  # logging.StreamHandler.__init__ assigns it
        pass

    def handleError(self, record: logging.LogRecord) -> None:
        if not isinstance(sys.exc_info()[1], BrokenPipeError):
            super().handleError(record)
            return
        try:
            fd = self.stream.fileno()
        except (AttributeError, OSError, ValueError):
            return  # not backed by a descriptor: nothing is left to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fd)
        finally:
            os.close(devnull)


class _MaxLevelFilter(logging.Filter):
    def __init__(self, below: int) -> None:
        super().__init__()
        self._below = below

    def filter(self, record: logging.LogRecord) -> bool:
        return record.levelno < self._below


class _HumanFormatter(logging.Formatter):
    """The message, nothing else — what ``print()`` produced."""

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        if record.levelno >= logging.ERROR and not message.startswith("error"):
            return "error: %s" % message
        return message


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


class _JsonFormatter(logging.Formatter):
    """One JSON object per record, keys sorted, fields coerced."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload["fields"] = _json_safe(fields)
        return json.dumps(payload, sort_keys=True)


def configure_logging(
    level: str = "info", json_mode: bool = False
) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree; idempotent per process.

    ``level`` is a stdlib level name (``debug``/``info``/``warning``/
    ``error``); ``json_mode`` switches the one-object-per-line shape on.
    """
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError("unknown log level %r" % level)
    root = logging.getLogger(_ROOT_NAME)
    root.setLevel(numeric)
    root.propagate = False
    for handler in list(root.handlers):
        root.removeHandler(handler)
    formatter: logging.Formatter = (
        _JsonFormatter() if json_mode else _HumanFormatter()
    )
    out_handler = _DynamicStreamHandler(use_stderr=False)
    out_handler.addFilter(_MaxLevelFilter(logging.WARNING))
    out_handler.setFormatter(formatter)
    err_handler = _DynamicStreamHandler(use_stderr=True)
    err_handler.setLevel(logging.WARNING)
    err_handler.setFormatter(formatter)
    root.addHandler(out_handler)
    root.addHandler(err_handler)
    return root


def _ensure_configured() -> None:
    if not logging.getLogger(_ROOT_NAME).handlers:
        configure_logging()


class StructuredLogger:
    """A thin facade: level methods with keyword fields.

    Fields are structured context (``height=4``, ``state_dir=path``):
    rendered in JSON mode, dropped in human mode where the message
    already is the rendering.
    """

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    def _log(self, level: int, message: str, fields: Dict[str, Any]) -> None:
        _ensure_configured()
        if self._logger.isEnabledFor(level):
            self._logger.log(level, message, extra={"fields": fields})

    def debug(self, message: str, **fields: Any) -> None:
        self._log(logging.DEBUG, message, fields)

    def info(self, message: str, **fields: Any) -> None:
        self._log(logging.INFO, message, fields)

    def warning(self, message: str, **fields: Any) -> None:
        self._log(logging.WARNING, message, fields)

    def error(self, message: str, **fields: Any) -> None:
        self._log(logging.ERROR, message, fields)


def get_logger(name: str) -> StructuredLogger:
    """The structured logger for ``repro.<name>``."""
    return StructuredLogger(logging.getLogger("%s.%s" % (_ROOT_NAME, name)))


def add_logging_flags(parser) -> None:
    """Attach the shared observability flags to one (sub)parser."""
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON object per log line instead of human text",
    )
    parser.add_argument(
        "--log-level", default="info", metavar="LEVEL",
        help="log threshold: debug, info, warning, error (default info)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a JSONL span trace of the run to FILE "
        "(block mining, session phases, RPC dispatch)",
    )
