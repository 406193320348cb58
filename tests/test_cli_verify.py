"""The CLI's three verifying commands, driven in-process.

``node proof`` proves a key from a state directory, ``light-verify``
checks a live node's facts from headers and proofs alone, and ``report
render`` rebuilds (or ``--check``s) the committed ``reports/`` tree.
Each test checks the printed result against an independent source: the
trie's own verifier, the contract's own storage, the committed bytes.
"""

from __future__ import annotations

import os
import shutil
import socket
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReportError
from repro.ledger.accounts import Address
from repro.rpc import AsyncRpcServer, LoopbackTransport, RpcNode, wire
from repro.store import codec, trie
from tests.rpc.conftest import run_one_hit

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rows(text: str) -> dict:
    """The ``field | value`` rows of a rendered two-column table."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("| ") and line.count("|") == 3:
            field, value = (cell.strip() for cell in line.strip("|").split("|"))
            rows[field] = value
    return rows


def _closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# -- node proof --------------------------------------------------------------


@pytest.fixture
def funded_node(tmp_path, capsys):
    state_dir = str(tmp_path / "node")
    assert main(["node", "init", "--state-dir", state_dir,
                 "--fund", "alice=500"]) == 0
    capsys.readouterr()
    return state_dir


def _proof(state_dir, capsys, *selector):
    assert main(["node", "proof", "--state-dir", state_dir, *selector]) == 0
    rows = _rows(capsys.readouterr().out)
    root = bytes.fromhex(rows["state root"])
    header = trie.header_from_data(wire.unpack(rows["header (packed)"]))
    assert header.state_root == root
    assert header.header_hash().hex() == rows["header hash"]
    key = bytes.fromhex(rows["key"])
    return rows, trie.verify_proof(root, key, wire.unpack(rows["proof (packed)"]))


def test_node_proof_of_a_funded_account_verifies(funded_node, capsys):
    rows, (present, value) = _proof(funded_node, capsys, "--account", "alice")
    assert rows["key"] == trie.account_key(Address.from_label("alice")).hex()
    assert rows["present"] == "yes" and present
    assert rows["value"] == repr(codec.decode(value))


def test_node_proof_of_an_absent_account_proves_non_membership(
    funded_node, capsys
):
    rows, (present, value) = _proof(funded_node, capsys, "--account", "nobody")
    assert rows["present"] == "no (non-membership proven)"
    assert (present, value) == (False, None)


@pytest.mark.parametrize(
    "selector",
    [["--account", "alice", "--entry", "0"], ["--task", "hit:alice"]],
)
def test_node_proof_needs_exactly_one_complete_selector(
    funded_node, capsys, selector
):
    assert main(["node", "proof", "--state-dir", funded_node, *selector]) == 2
    assert "error:" in capsys.readouterr().err


# -- light-verify ------------------------------------------------------------


@pytest.fixture(scope="module")
def settled_server():
    """A node that settled one seeded task (``hit:alice``), served."""
    node = RpcNode()
    run_one_hit(LoopbackTransport(node))
    with AsyncRpcServer(node) as server:
        yield node, server


def test_light_verify_checks_facts_against_a_pinned_anchor(
    settled_server, capsys
):
    node, server = settled_server
    assert main(["light-verify", "--url", server.url]) == 0
    anchor, note = _rows(capsys.readouterr().out)["trust anchor"].split("  ")
    assert note == "(adopted; pin with --trust)"

    worker_label = "hit:alice/worker-0"
    worker = Address.from_label(worker_label)
    assert main(["light-verify", "--url", server.url, "--trust", anchor,
                 "--balance", "alice", "--task", "hit:alice",
                 "--worker", worker_label]) == 0
    rows = _rows(capsys.readouterr().out)
    contract = node.chain.contract("hit:alice")
    assert rows["trust anchor"] == anchor
    assert int(rows["balance 'alice'"]) == node.chain.ledger.balance_of(
        Address.from_label("alice")
    )
    assert int(rows["task 'hit:alice' phase"]) == contract._effective_phase(
        node.chain.clock.period
    )
    assert rows["worker %r verdict" % worker_label] == contract.verdict_of(
        worker
    )
    assert int(rows["worker %r payout" % worker_label]) == sum(
        entry.amount for entry in node.chain.ledger.payments_to(worker)
        if entry.source == contract.address
    )


def test_light_verify_refuses_a_wrong_anchor(settled_server, capsys):
    _, server = settled_server
    assert main(["light-verify", "--url", server.url,
                 "--trust", "de" * 32]) == 1
    assert "VERIFICATION FAILED" in capsys.readouterr().err


def test_light_verify_worker_without_task_is_a_usage_error(capsys):
    """The flags are checked before any connection is tried."""
    url = "http://127.0.0.1:%d" % _closed_port()
    assert main(["light-verify", "--url", url, "--worker", "bob"]) == 2
    assert "--task" in capsys.readouterr().err


# -- report render -----------------------------------------------------------


def _tree(root: str) -> dict:
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def test_report_render_rebuilds_the_committed_reports(tmp_path, capsys):
    committed = str(REPO_ROOT / "reports")
    copy = str(tmp_path / "reports")
    shutil.copytree(committed, copy)
    for rendered in ("tables", "plots", "manifest.json"):
        path = os.path.join(copy, rendered)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)

    assert main(["report", "render", "--dir", copy]) == 0
    assert "re-rendered 12 artifacts" in capsys.readouterr().out
    assert _tree(copy) == _tree(committed)

    assert main(["report", "render", "--dir", copy, "--check"]) == 0
    with open(os.path.join(copy, "tables", "summary.md"), "ab") as handle:
        handle.write(b"\n")
    with pytest.raises(ReportError):
        main(["report", "render", "--dir", copy, "--check"])
