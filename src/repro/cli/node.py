"""The persistent node: ``node init/status/resume/proof/rpc-serve``, and
``light-verify``, its light client."""

from __future__ import annotations

import argparse

from repro.analysis.tables import render_table
from repro.cli.common import add_report_flags, emit_report, log, resume_node, save_node
from repro.dragoon import Dragoon
from repro.ledger.accounts import Address
from repro.obs.logging import add_logging_flags


def _cmd_node_init(args: argparse.Namespace) -> int:
    """Create a fresh node state directory (genesis snapshot)."""
    from repro.store import NodeStore

    dragoon = Dragoon()
    for grant in args.fund or []:
        label, _, coins = grant.partition("=")
        if not coins.isdigit():
            log.error("error: --fund takes label=coins, got %r" % grant)
            return 2
        dragoon.fund(label, int(coins))
    store = NodeStore.init(
        args.state_dir, chain=dragoon.chain, extra=dragoon.node_state()
    )
    manifest = store.manifest()
    log.info("initialized node state at %s" % args.state_dir,
             state_dir=args.state_dir)
    log.info("  height     : %d" % manifest["height"])
    log.info("  state_root : %s" % manifest["state_root"])
    return 0


def _cmd_node_status(args: argparse.Namespace) -> int:
    """Load (snapshot + WAL replay) and report the node's state."""
    from repro.store import NodeStore

    status = NodeStore.open(args.state_dir).status()
    rows = [
        ["height", status["height"]],
        ["snapshot height", status["snapshot_height"]],
        ["WAL records replayed", status["wal_records"]],
        ["state root", status["state_root"][:32] + "..."],
        ["accounts", status["accounts"]],
        ["contracts", status["contracts"]],
        ["events (total)", status["events"]],
        ["events pruned", status["events_pruned"]],
        ["total gas", "%dk" % (status["total_gas"] // 1000)],
        ["checkpoints", ", ".join(map(str, status["checkpoints"])) or "-"],
    ]
    log.info(render_table(["field", "value"], rows,
                          title="Node %s" % args.state_dir))
    return 0


def _cmd_node_resume(args: argparse.Namespace) -> int:
    """Resume an interrupted simulation checkpoint to completion."""
    from repro.sim.runner import resume_scenario

    report = resume_scenario(args.state_dir, step=args.step)
    report.check_invariants()
    log.info(render_table(
        ["metric", "value"],
        [
            ["tasks published", report.tasks_published],
            ["tasks settled", report.tasks_settled],
            ["tasks cancelled", report.tasks_cancelled],
            ["blocks", report.blocks],
            ["total gas", "%dk" % (report.total_gas // 1000)],
        ],
        title="Resumed scenario %r (seed %d)" % (report.scenario, report.seed),
    ))
    emit_report(report, args)
    return 0


def _proof_key(args: argparse.Namespace):
    """Resolve the selector flags to one trie key (or None + error)."""
    from repro.store import trie

    selectors = [
        args.account is not None,
        args.task is not None,
        args.entry is not None,
        args.meta is not None,
        args.key is not None,
    ]
    if sum(selectors) != 1:
        log.error(
            "error: pick exactly one of --account / --task --slot / "
            "--entry / --meta / --key"
        )
        return None
    if args.account is not None:
        return trie.account_key(Address.from_label(args.account))
    if args.task is not None:
        if args.slot is None:
            log.error("error: --task needs --slot")
            return None
        return trie.storage_key(args.task, args.slot)
    if args.entry is not None:
        return trie.entry_key(args.entry)
    if args.meta is not None:
        return trie.meta_key(args.meta)
    try:
        return bytes.fromhex(args.key)
    except ValueError:
        log.error("error: --key must be hex")
        return None


def _cmd_node_proof(args: argparse.Namespace) -> int:
    """Produce (and locally check) a state proof from a state directory.

    The offline twin of the ``get_proof`` RPC method: load the node,
    mint the current commitment header, prove the selected key, verify
    the proof against the header's root, and print both in portable
    form — everything a light client needs to check the same fact.
    """
    from repro.rpc import wire
    from repro.store import NodeStore, codec, trie

    key = _proof_key(args)
    if key is None:
        return 2
    chain, _ = NodeStore.open(args.state_dir).load(apply_runtime=False)
    tracker = trie.chain_state_trie(chain)
    tracker.track_headers = True
    _, header, proof = tracker.anchored_proof(chain, key)
    present, value = trie.verify_proof(header.state_root, key, proof)
    rows = [
        ["key", key.hex()],
        ["present", "yes" if present else "no (non-membership proven)"],
        ["value", repr(codec.decode(value)) if present else "-"],
        ["state root", header.state_root.hex()],
        ["header height", header.height],
        ["header hash", header.header_hash().hex()],
        ["proof steps", len(proof["steps"])],
        ["proof (packed)", wire.pack(proof)],
        ["header (packed)", wire.pack(trie.header_to_data(header))],
    ]
    log.info(render_table(["field", "value"], rows,
                          title="State proof from %s" % args.state_dir))
    return 0


def _cmd_light_verify(args: argparse.Namespace) -> int:
    """Verify chain facts from an untrusted node: headers + proofs only.

    Connects a :class:`repro.lightclient.LightClient` to ``--url``,
    syncs and hash-checks the header chain against ``--trust`` (or
    adopts the anchor trust-on-first-use, printing it so the next
    invocation can pin it), then proves whatever was asked: an account
    balance (``--balance``), a task's phase (``--task``), and a
    settlement receipt (``--task`` + ``--worker``).
    """
    from repro.lightclient import LightClient
    from repro.rpc import HttpTransport, RpcChain
    from repro.store.trie import ProofError

    if args.worker and not args.task:
        log.error("error: --worker needs --task")
        return 2
    trust = bytes.fromhex(args.trust) if args.trust else None
    transport = HttpTransport(args.url)
    try:
        client = LightClient(RpcChain(transport), trust=trust)
        tip = client.sync()
        rows = [
            ["node", args.url],
            ["verified headers", len(client.headers)],
            ["tip height", tip.height],
            ["tip state root", tip.state_root.hex()],
            ["trust anchor", client.headers[0].header_hash().hex()
             + ("" if args.trust else "  (adopted; pin with --trust)")],
        ]
        if args.balance:
            address = Address.from_label(args.balance)
            rows.append(
                ["balance %r" % args.balance, client.balance_of(address)]
            )
        if args.task:
            rows.append(["task %r phase" % args.task,
                         client.task_phase(args.task)])
        if args.worker:
            receipt = client.verify_settlement(
                args.task, Address.from_label(args.worker)
            )
            rows.append(["worker %r verdict" % args.worker,
                         receipt["verdict"]])
            rows.append(["worker %r payout" % args.worker,
                         receipt["amount"]])
        log.info(render_table(["field", "value"], rows,
                              title="Light-client verification"))
        return 0
    except ProofError as exc:
        log.error("VERIFICATION FAILED: %s" % exc)
        return 1
    finally:
        transport.close()


def _cmd_node_rpc_serve(args: argparse.Namespace) -> int:
    """Serve a node's JSON-RPC front-end over HTTP until interrupted.

    An existing ``--state-dir`` is resumed (snapshot + WAL replay); a
    fresh one is initialized at genesis.  Every block mined through the
    RPC surface is journalled to the WAL, and the final state is
    snapshotted on shutdown, so the served marketplace lives across
    invocations exactly like ``serve --state-dir``.

    The front-end is :class:`~repro.rpc.aserver.AsyncRpcServer`
    (persistent connections, batches, ``chain_subscribe`` server-push
    streams); ``--admin-token``/``--submit-token`` lock the mutating
    method families behind envelope auth tokens.  SIGINT and SIGTERM
    both stop it cleanly: the server's loop handles both signals while
    it runs.
    """
    from repro.rpc.aserver import AsyncRpcServer
    from repro.rpc.server import RpcAuth, RpcNode
    from repro.rpc.wire import PROTOCOL_VERSION
    from repro.store import NodeStore

    if NodeStore.exists(args.state_dir):
        store, chain, _ = resume_node(args.state_dir)
    else:
        store = NodeStore.init(args.state_dir)
        chain, _ = store.load(apply_runtime=True)
        log.info("initialized fresh node state in %s" % args.state_dir,
                 state_dir=args.state_dir)
    chain.attach_store(store)
    auth = None
    if args.admin_token or args.submit_token:
        auth = RpcAuth(
            admin_tokens=tuple(args.admin_token),
            submit_tokens=tuple(args.submit_token),
        )
    node = RpcNode(chain=chain, store=store, auth=auth)

    def _announce(server) -> None:
        log.info(
            "rpc node listening on http://%s:%d/rpc (%d methods, "
            "protocol v%d%s) — Ctrl-C to stop"
            % (server.host, server.port, len(node._methods),
               PROTOCOL_VERSION, ", auth" if auth is not None else ""),
            host=server.host,
            port=server.port,
        )

    server = AsyncRpcServer(
        node, host=args.host, port=args.port, ready_callback=_announce
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # a signal that landed before the loop took over
    finally:
        # The server stops accepting and releases the socket here — the
        # snapshot below must be the last word on this state dir.
        server.shutdown()
        save_node(store, chain)
    return 0


def add_parsers(sub) -> None:
    node = sub.add_parser(
        "node",
        help="manage a persistent node state directory "
        "(init / status / resume / proof / rpc-serve)",
    )
    node_sub = node.add_subparsers(dest="node_command", required=True)
    node_init = node_sub.add_parser(
        "init", help="create a fresh state directory (genesis snapshot)"
    )
    node_init.add_argument("--state-dir", required=True)
    node_init.add_argument("--fund", action="append", metavar="LABEL=COINS",
                           help="open a funded account (repeatable)")
    node_init.set_defaults(func=_cmd_node_init)
    node_status = node_sub.add_parser(
        "status", help="load (snapshot + WAL replay) and report the state"
    )
    node_status.add_argument("--state-dir", required=True)
    node_status.set_defaults(func=_cmd_node_status)
    node_resume = node_sub.add_parser(
        "resume",
        help="resume an interrupted simulation checkpoint to completion",
    )
    node_resume.add_argument("--state-dir", required=True)
    node_resume.add_argument("--step", type=int, default=None,
                             help="resume from this checkpoint step "
                             "(default: the latest)")
    add_report_flags(node_resume)
    node_resume.set_defaults(func=_cmd_node_resume)
    node_proof = node_sub.add_parser(
        "proof",
        help="produce a Merkle state proof (and its commitment header) "
        "from a state directory",
    )
    node_proof.add_argument("--state-dir", required=True)
    node_proof.add_argument("--account", default=None, metavar="LABEL",
                            help="prove LABEL's ledger account")
    node_proof.add_argument("--task", default=None, metavar="NAME",
                            help="prove a storage slot of task contract "
                            "NAME (with --slot)")
    node_proof.add_argument("--slot", default=None, metavar="SLOT",
                            help="the storage slot for --task")
    node_proof.add_argument("--entry", type=int, default=None,
                            metavar="INDEX",
                            help="prove ledger journal entry INDEX")
    node_proof.add_argument("--meta", default=None, metavar="NAME",
                            help="prove a chain metadata key "
                            "(schema/period/scheduler/fees/event_base)")
    node_proof.add_argument("--key", default=None, metavar="HEX",
                            help="prove a raw trie key (hex)")
    node_proof.set_defaults(func=_cmd_node_proof)
    node_rpc = node_sub.add_parser(
        "rpc-serve",
        help="serve this node's JSON-RPC front-end over HTTP "
        "(out-of-process clients; see repro.rpc)",
    )
    node_rpc.add_argument("--state-dir", required=True)
    node_rpc.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1)")
    node_rpc.add_argument("--port", type=int, default=8545,
                          help="TCP port; 0 binds an ephemeral port and "
                          "prints it (default 8545)")
    node_rpc.add_argument("--admin-token", action="append", default=[],
                          metavar="TOKEN",
                          help="auth token for admin methods (chain_mine, "
                          "node_checkpoint, node_prune); admin tokens also "
                          "cover submissions; repeatable")
    node_rpc.add_argument("--submit-token", action="append", default=[],
                          metavar="TOKEN",
                          help="auth token for submission methods (tx_*, "
                          "swarm_put); repeatable")
    add_logging_flags(node_rpc)
    node_rpc.set_defaults(func=_cmd_node_rpc_serve)

    light = sub.add_parser(
        "light-verify",
        help="verify balances / task phases / settlement receipts from "
        "an untrusted node via headers + Merkle proofs",
    )
    light.add_argument("--url", required=True,
                       help="the node's RPC endpoint (http://host:port)")
    light.add_argument("--trust", default=None, metavar="HEXHASH",
                       help="pinned hash of the node's anchor header "
                       "(default: adopt trust-on-first-use and print it)")
    light.add_argument("--balance", default=None, metavar="LABEL",
                       help="verify LABEL's balance")
    light.add_argument("--task", default=None, metavar="NAME",
                       help="verify task contract NAME's phase")
    light.add_argument("--worker", default=None, metavar="LABEL",
                       help="with --task: verify LABEL's settlement "
                       "receipt (verdict + payout)")
    light.set_defaults(func=_cmd_light_verify)
