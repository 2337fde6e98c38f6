"""One route table, three front ends: every cell answers alike.

The threaded shell, the asyncio shell and the cluster router (the
threaded shell over the router backend, here in front of a scripted
replica) all resolve requests through ``repro.serving.routes``.  This
walks the table each front end actually carries — every (verb in GET,
POST, PUT, DELETE) x (path, path + "?x=1", an unknown path) cell — and
checks the answer the table predicts: status, ``error.code``, JSON
content type and ``X-Request-Id`` echo.  The expectation depends only on
the table, so equal tables mean equal answers on every shell; the router
differs exactly where its table does (``/v1/cluster``, no ``/v1/usage``).
"""

import http.client
import json

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.serving import (ERROR_CODES, AsyncFrontend, ClusterRouter,
                           HttpClient, HttpFrontend, InferenceServer,
                           ModelRegistry, ReplicaDirectory)
from repro.serving.routes import INFER, INFER_BATCH

IMAGE = [0.0, 1.0, 2.0, 3.0]
VERBS = ("GET", "POST", "PUT", "DELETE")
UNKNOWN = "/v2/nope"
POST_BODIES = {INFER: {"input": IMAGE}, INFER_BATCH: {"inputs": [IMAGE]}}


class ScriptedReplica:
    """A replica that answers every proxied request from a script (the
    router's ``client_factory`` hook)."""

    def __init__(self, host, port, timeout):
        pass

    def request(self, method, path, body=None, headers=None):
        served = {"output": IMAGE, "stats": {}}
        if path == INFER:
            return 200, served
        if path == INFER_BATCH:
            items = [served] * len(body["inputs"])
            return 200, {"results": items, "completed": len(items), "shed": 0}
        return 200, {"models": {"toy": {}}}


@pytest.fixture(scope="module", params=["threaded", "asyncio", "router"])
def shell(request):
    if request.param == "router":
        directory = ReplicaDirectory({"r0": ("127.0.0.1", 1)})
        with ClusterRouter(directory, own_directory=False,
                           client_factory=ScriptedReplica) as router:
            yield router
        return
    registry = ModelRegistry(workers=1)
    registry.register_network(
        "toy", lambda t: Tensor(t.data.reshape(t.data.shape[0], -1)))
    frontend_cls = HttpFrontend if request.param == "threaded" \
        else AsyncFrontend
    with registry, InferenceServer(registry=registry) as server:
        with frontend_cls(server) as frontend:
            yield frontend


def round_trip(shell, verb, target, trace_id):
    body = POST_BODIES.get(target.partition("?")[0], {}) \
        if verb == "POST" else None
    connection = http.client.HTTPConnection(shell.host, shell.port,
                                            timeout=10.0)
    try:
        connection.request(
            verb, target,
            body=None if body is None else json.dumps(body).encode(),
            headers={"X-Request-Id": trace_id, "Connection": "close"})
        response = connection.getresponse()
        return (response.status, response.getheader("Content-Type"),
                response.getheader("X-Request-Id"), response.read())
    finally:
        connection.close()


def expected(table, verb, path):
    """``(status, error code or None)`` the table predicts."""
    if verb not in ("GET", "POST"):
        return 405, "method_not_allowed"
    route = next((p for _, p in table
                  if p == path or (p.endswith("/") and path.startswith(p))),
                 None)
    if route is None:
        return 404, "not_found"
    if (verb, route) not in table:
        return 405, "method_not_allowed"
    if route.endswith("/"):
        return 404, "not_found"    # a trace id nobody stored
    return 200, None


def test_every_cell_of_the_route_table(shell):
    paths = sorted({path + "never-stored" if path.endswith("/") else path
                    for _, path in shell.table})
    assert {INFER, INFER_BATCH} <= set(paths)
    cells = 0
    for path in paths + [UNKNOWN]:
        for target in (path, path + "?x=1"):
            for verb in VERBS:
                cells += 1
                trace_id = f"cell-{cells}"
                want_status, want_code = expected(shell.table, verb, path)
                status, content_type, echoed, raw = round_trip(
                    shell, verb, target, trace_id)
                where = f"{verb} {target}"
                assert status == want_status, where
                assert echoed == trace_id, where
                if path == "/metrics" and status == 200:
                    assert content_type == PROMETHEUS_CONTENT_TYPE, where
                    continue
                assert content_type == "application/json", where
                error = json.loads(raw).get("error")
                if want_code is None:
                    assert error is None, where
                else:
                    assert error["code"] == want_code, where
                    assert error["code"] in ERROR_CODES
                    assert error["trace_id"] == trace_id, where
    assert cells == (len(paths) + 1) * 2 * len(VERBS)


def test_tables_differ_only_where_documented(shell):
    paths = {path for _, path in shell.table}
    shared = {"/healthz", "/v1/stats", "/v1/models", "/metrics",
              "/v1/trace/", INFER, INFER_BATCH}
    extra = {"/v1/cluster"} if isinstance(shell, ClusterRouter) \
        else {"/v1/usage"}
    assert paths == shared | extra


def test_stream_flag_reaches_the_batch_route(shell):
    """``?stream=1`` is a flag, not part of the path: the shell that can
    stream does, the others refuse it as 400 ``invalid_request``."""
    connection = http.client.HTTPConnection(shell.host, shell.port,
                                            timeout=10.0)
    try:
        connection.request("POST", INFER_BATCH + "?stream=1",
                           body=json.dumps(POST_BODIES[INFER_BATCH]).encode(),
                           headers={"Connection": "close"})
        response = connection.getresponse()
        content_type, raw = response.getheader("Content-Type"), response.read()
    finally:
        connection.close()
    if isinstance(shell, AsyncFrontend):
        assert response.status == 200
        assert content_type == "text/event-stream"
        assert b"event: done" in raw
    else:
        assert response.status == 400
        assert json.loads(raw)["error"]["code"] == "invalid_request"


def test_get_surface_after_one_request(shell):
    """The operational GETs through the client, on every front end."""
    client = HttpClient.for_frontend(shell)
    assert client.healthz()["status"] == "ok"
    assert "toy" in client.models()["models"]
    result = client.infer(np.asarray(IMAGE), model="toy")
    np.testing.assert_array_equal(result.output, IMAGE)
    if isinstance(shell, ClusterRouter):
        assert client.stats()["router"]["requests"] >= 1
    else:
        assert client.stats()["requests_completed"] >= 1
        assert client.usage()["totals"]["requests"] >= 1
    assert client.metrics()
