"""The JSON-RPC node boundary: out-of-process clients, one wire format.

Layers (each importable on its own):

* :mod:`repro.rpc.wire` — envelopes, value packing over the canonical
  codec, and the error taxonomy mapped from :mod:`repro.errors`.
* :mod:`repro.rpc.server` — :class:`RpcNode`, the transport-agnostic
  method registry around one chain (reader-writer locked, batch-aware,
  with optional :class:`RpcAuth` token gating).
* :mod:`repro.rpc.aserver` — :class:`AsyncRpcServer`, the node's HTTP
  front-end (the CLI's ``node rpc-serve``): persistent connections,
  batches, and ``chain_subscribe`` server-push event streams.
* :mod:`repro.rpc.client` — :class:`RpcChain`/:class:`RpcSwarm` proxies
  plus :class:`RpcRequesterClient`/:class:`RpcWorkerClient`, the
  in-process client classes re-based onto a transport (sync or async),
  and the push-stream consumers.
* :mod:`repro.rpc.harness` — drive one scenario against any front-end
  (the equivalence-contract and benchmark workhorse).
"""

from repro.rpc.aserver import AsyncRpcServer
from repro.rpc.client import (
    AsyncHttpTransport,
    AsyncRpcSession,
    AsyncSubscription,
    HttpTransport,
    LoopbackTransport,
    PushSubscription,
    RpcChain,
    RpcRequesterClient,
    RpcSession,
    RpcSwarm,
    RpcWorkerClient,
)
from repro.rpc.harness import HitSpec, run_hits
from repro.rpc.server import RpcAuth, RpcNode
from repro.rpc.wire import PROTOCOL_VERSION

__all__ = [
    "AsyncHttpTransport",
    "AsyncRpcServer",
    "AsyncRpcSession",
    "AsyncSubscription",
    "HitSpec",
    "HttpTransport",
    "LoopbackTransport",
    "PROTOCOL_VERSION",
    "PushSubscription",
    "RpcAuth",
    "RpcChain",
    "RpcNode",
    "RpcRequesterClient",
    "RpcSession",
    "RpcSwarm",
    "RpcWorkerClient",
    "run_hits",
]
