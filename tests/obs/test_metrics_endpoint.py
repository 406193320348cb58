"""The scrape surface: ``GET /metrics`` from blocking and asyncio clients,
plus ``node_metrics``."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import urllib.request

import pytest

import repro
from repro.obs.registry import REGISTRY
from repro.rpc import (
    AsyncRpcServer,
    LoopbackTransport,
    RpcAuth,
    RpcNode,
    RpcSession,
)
from repro.rpc.aserver import METRICS_CONTENT_TYPE
from repro.rpc.server import READ_METHODS


def scrape(server):
    """GET /metrics next to the server's /rpc endpoint."""
    base = server.url[: -len("/rpc")]
    with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
        return (
            response.status,
            response.headers["Content-Type"],
            response.read().decode("utf-8"),
        )


async def scrape_stream(server):
    """GET /metrics from an asyncio stream client on its own loop."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(
            b"GET /metrics HTTP/1.1\r\nHost: %s\r\n\r\n"
            % server.host.encode("ascii")
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers["content-length"]))
        return status, headers["content-type"], body.decode("utf-8")
    finally:
        writer.close()
        await writer.wait_closed()


@pytest.fixture(params=["threaded", "async"])
def scraper(request):
    """A /metrics scraper: urllib's blocking client, which parks the
    calling thread on the socket, or an asyncio stream client."""
    if request.param == "threaded":
        return scrape
    return lambda server: asyncio.run(scrape_stream(server))


def families_of(body: str):
    return {
        line.split()[2]
        for line in body.splitlines()
        if line.startswith("# TYPE ")
    }


def test_metrics_endpoint_serves_prometheus_text(scraper):
    node = RpcNode()
    with AsyncRpcServer(node) as server:
        status, content_type, body = scraper(server)
    assert status == 200
    assert content_type == METRICS_CONTENT_TYPE
    families = families_of(body)
    # The acceptance bar: ≥20 distinct families spanning every layer.
    assert len(families) >= 20
    for prefix in ("chain_", "session_", "rpc_", "msm_"):
        assert any(name.startswith(prefix) for name in families), prefix


#: A fresh interpreter that builds a node and imports the service stack
#: above it: whether ``multiprocessing`` got loaded on the way.
FRESH_SERVICE_STACK = """
import json, sys
from repro.rpc import RpcNode
RpcNode()
import repro.dragoon, repro.sim.runner
print(json.dumps({"mp": "multiprocessing" in sys.modules}))
"""


def test_fresh_node_scrape_does_not_depend_on_import_order():
    """Building a node and importing the facade and the simulation
    runner above it never loads multiprocessing: proving and
    verification run in the calling process."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    result = subprocess.run(
        [sys.executable, "-c", FRESH_SERVICE_STACK],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert not json.loads(result.stdout)["mp"]


def test_metrics_endpoint_is_auth_exempt(scraper):
    node = RpcNode(
        auth=RpcAuth(
            admin_tokens=("root-token",), submit_tokens=("sub-token",)
        )
    )
    with AsyncRpcServer(node) as server:
        status, _content_type, body = scraper(server)  # no token sent
    assert status == 200
    assert "rpc_requests_total" in body


def test_rpc_traffic_moves_the_request_counters():
    node = RpcNode()
    with AsyncRpcServer(node) as server:
        session = RpcSession(LoopbackTransport(node))
        labels = {"method": "chain_head"}
        before = REGISTRY.read("rpc_requests_total", labels) or 0
        session.call("chain_head")
        after = REGISTRY.read("rpc_requests_total", labels)
        _status, _ctype, body = scrape(server)
    assert after == before + 1
    assert 'rpc_requests_total{method="chain_head"}' in body


def test_node_metrics_is_a_locked_read_method():
    assert "node_metrics" in READ_METHODS
    node = RpcNode(auth=RpcAuth(admin_tokens=("root-token",)))
    session = RpcSession(LoopbackTransport(node))  # read path needs no token
    snapshot = session.call("node_metrics")
    families = {entry["name"]: entry for entry in snapshot["families"]}
    assert len(families) >= 20
    assert families["rpc_requests_total"]["type"] == "counter"
    histogram = families["rpc_request_seconds"]
    assert histogram["type"] == "histogram"
    for series in histogram["samples"]:
        assert series["buckets"][-1]["le"] == "+Inf"
        assert series["buckets"][-1]["count"] == series["count"]


def test_node_status_reads_cache_stats_from_the_registry():
    node = RpcNode()
    session = RpcSession(LoopbackTransport(node))
    status = session.call("node_status")
    cache = status["fixed_base_cache"]
    assert set(cache) >= {"population", "limit", "hits", "misses"}
    assert cache["population"] == int(
        REGISTRY.read("fixed_base_cache_population")
    )
    assert cache["limit"] == int(REGISTRY.read("fixed_base_cache_limit"))
