"""`node rpc-serve`: a real out-of-process node, driven over a socket.

The one test in the suite where client and server are *different
processes* — the deployment story the whole subsystem exists for.  The
CLI binds an ephemeral port, serves requests from this process's
:class:`~repro.rpc.client.HttpTransport`, persists its state on SIGINT,
and `node status` agrees with what the client did to it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.rpc import HttpTransport, PushSubscription, RpcChain

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def test_parser_wires_rpc_serve():
    args = build_parser().parse_args(
        ["node", "rpc-serve", "--state-dir", "./x", "--port", "0"]
    )
    assert args.func.__name__ == "_cmd_node_rpc_serve"
    assert args.host == "127.0.0.1" and args.port == 0
    assert args.admin_token == [] and args.submit_token == []


def test_parser_wires_auth_flags():
    args = build_parser().parse_args(
        ["node", "rpc-serve", "--state-dir", "./x",
         "--admin-token", "root", "--submit-token", "s1",
         "--submit-token", "s2"]
    )
    assert args.admin_token == ["root"]
    assert args.submit_token == ["s1", "s2"]


def _cli_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def _spawn_rpc_serve(state_dir, *extra_args, env=None):
    """Start ``node rpc-serve`` and return ``(proc, port)`` once bound."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "node", "rpc-serve",
         "--state-dir", state_dir, "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env or _cli_env(),
    )
    port = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            port = int(line.split("listening on http://")[1]
                       .split("/")[0].split(":")[1])
            break
    assert port, "rpc-serve never announced its port"
    return proc, port


def _assert_cold_status_height(state_dir, env, height: int) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "node", "status",
         "--state-dir", state_dir],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "| height               | %d" % height in result.stdout
    return result.stdout


def test_rpc_serve_round_trip_out_of_process(tmp_path):
    state_dir = str(tmp_path / "node")
    env = _cli_env()
    proc, port = _spawn_rpc_serve(state_dir, env=env)
    try:
        transport = HttpTransport("http://127.0.0.1:%d/rpc" % port)
        chain = RpcChain(transport)
        chain.rpc.version()
        alice = chain.register_account("alice", 123)
        assert chain.ledger.balance_of(alice) == 123
        block = chain.mine_block()
        assert block.number == 0 and chain.height == 1
        status = chain.rpc.call("node_status")
        assert status["state_dir"] == state_dir
        served_root = chain.state_root()
        transport.close()
    finally:
        # SIGTERM, not SIGINT: the CI lane stops a shell-backgrounded
        # server this way (backgrounded processes ignore SIGINT), so
        # the graceful-shutdown path under test is the deployed one.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        proc.stdout.close()

    # The shutdown handler snapshotted the served state; a cold `node
    # status` load reaches the same root the live node reported.
    stdout = _assert_cold_status_height(state_dir, env, 1)
    assert served_root.hex()[:32] in stdout


def test_rpc_serve_sigint_exits_cleanly_with_loadable_snapshot(tmp_path):
    """Ctrl-C is the documented stop; it must snapshot, not crash.

    The server must stop accepting and release its socket before the
    shutdown snapshot is written, so SIGINT never races the teardown.
    """
    state_dir = str(tmp_path / "node")
    env = _cli_env()
    proc, port = _spawn_rpc_serve(state_dir, env=env)
    try:
        transport = HttpTransport("http://127.0.0.1:%d/rpc" % port)
        chain = RpcChain(transport)
        chain.register_account("alice", 7)
        chain.mine_block()
        transport.close()
    finally:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
    with proc.stdout:
        remaining = proc.stdout.read()
    assert "node state saved to %s" % state_dir in remaining
    _assert_cold_status_height(state_dir, env, 1)


def test_rpc_serve_async_out_of_process(tmp_path):
    """The asyncio front-end behind the CLI: requests, push, snapshot."""
    state_dir = str(tmp_path / "node")
    env = _cli_env()
    proc, port = _spawn_rpc_serve(state_dir, env=env)
    try:
        url = "http://127.0.0.1:%d/rpc" % port
        transport = HttpTransport(url)
        chain = RpcChain(transport)
        chain.rpc.version()
        alice = chain.register_account("alice", 123)
        assert chain.ledger.balance_of(alice) == 123
        # A push stream across process boundaries: subscribe, mine,
        # and the pushed head cursor must land at the node's head.
        subscription = PushSubscription(url, from_start=True)
        assert chain.mine_block().number == 0
        batch = chain.rpc.call_batch(
            [("chain_head", {}), ("chain_state_root", {})]
        )
        assert batch[0]["height"] == 1
        served_root = batch[1]["state_root"]
        subscription.close()
        transport.close()
    finally:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
    with proc.stdout:
        remaining = proc.stdout.read()
    assert "node state saved to %s" % state_dir in remaining
    stdout = _assert_cold_status_height(state_dir, env, 1)
    assert served_root[:32] in stdout


def test_rpc_serve_async_auth_gates_out_of_process(tmp_path):
    """``--admin-token`` over the wire: refused without, admitted with."""
    state_dir = str(tmp_path / "node")
    env = _cli_env()
    proc, port = _spawn_rpc_serve(
        state_dir, "--admin-token", "hunter2", env=env
    )
    try:
        transport = HttpTransport("http://127.0.0.1:%d/rpc" % port)
        open_chain = RpcChain(transport)
        assert open_chain.height == 0  # reads stay open
        with pytest.raises(Exception) as err:
            open_chain.register_account("eve", 1)
        assert "authorized token" in str(err.value)
        authed = RpcChain(transport, auth="hunter2")
        authed.register_account("alice", 1)
        authed.mine_block()
        assert open_chain.height == 1
        transport.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        proc.stdout.close()
