"""Fixtures for the RPC boundary suite.

``rpc_setup`` is parametrized over every client transport, so each test
that uses it runs over the in-memory loopback (full wire encoding, no
socket), a real localhost socket through the blocking
:class:`HttpTransport`, and the same socket through the asyncio
:class:`AsyncHttpTransport` — the two socket cases against the node's
one HTTP front-end, :class:`AsyncRpcServer`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chain.transactions import scoped_tx_nonces
from repro.crypto.rng import deterministic_entropy
from repro.rpc import (
    AsyncHttpTransport,
    AsyncRpcServer,
    HitSpec,
    HttpTransport,
    LoopbackTransport,
    RpcChain,
    RpcNode,
    RpcRequesterClient,
    RpcSwarm,
    RpcWorkerClient,
    run_hits,
)
from tests.helpers import small_task


class BlockingAsyncTransport:
    """An :class:`AsyncHttpTransport` driven from synchronous code.

    The RPC client classes call ``transport.request`` synchronously;
    this runs each request to completion on a private event loop.
    """

    def __init__(self, url: str) -> None:
        self._loop = asyncio.new_event_loop()
        self._transport = AsyncHttpTransport(url)

    def request(self, raw: bytes, idempotent: bool = False) -> bytes:
        return self._loop.run_until_complete(
            self._transport.request(raw, idempotent)
        )

    def close(self) -> None:
        self._loop.run_until_complete(self._transport.close())
        self._loop.close()


def socket_transport(kind: str, url: str):
    """The blocking (``"http"``) or asyncio (``"async"``) client transport."""
    if kind == "http":
        return HttpTransport(url)
    return BlockingAsyncTransport(url)


@pytest.fixture(params=["loopback", "http", "async"])
def rpc_setup(request):
    """A fresh node plus a transport to it: ``(node, transport)``."""
    node = RpcNode()
    if request.param == "loopback":
        yield node, LoopbackTransport(node)
        return
    with AsyncRpcServer(node) as server:
        transport = socket_transport(request.param, server.url)
        yield node, transport
        transport.close()


@pytest.fixture
def loopback_node():
    """A fresh node behind loopback only (fuzz and paging tests)."""
    node = RpcNode()
    return node, LoopbackTransport(node)


@pytest.fixture
def async_server():
    """A fresh node served by the asyncio front-end: ``(node, server)``."""
    node = RpcNode()
    with AsyncRpcServer(node) as server:
        yield node, server


def rpc_client_factories(transport):
    """The ``run_hits`` factories for the RPC front-end."""
    return (
        lambda label, task: RpcRequesterClient(label, task, transport),
        lambda label, answers: RpcWorkerClient(
            label, transport, answers=answers
        ),
    )


def run_one_hit(transport, seed: int = 7, label: str = "alice"):
    """One seeded two-worker HIT through RPC clients; returns outcomes."""
    requester_factory, worker_factory = rpc_client_factories(transport)
    specs = [HitSpec(0, label, small_task(), [[0] * 10, [1] * 10])]
    with scoped_tx_nonces(), deterministic_entropy(seed):
        return run_hits(
            RpcChain(transport),
            RpcSwarm(transport),
            specs,
            requester_factory,
            worker_factory,
        )
