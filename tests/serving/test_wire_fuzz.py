"""Property fuzz of the wire codecs: random payloads survive byte-exact.

Pinned-seed random arrays — every numeric dtype the ``.npy`` codec
carries, 1–3 random dims, NaN / ±inf / −0.0 injected into the float
cases — must round-trip **byte-exactly** (``tobytes()`` equality, dtype
and shape included) through:

* the codec pair itself (``encode_array`` / ``decode_array_b64``, and
  the JSON list path for the wire's canonical float64), and
* the full wire: ``POST /v1/infer`` against an echo network behind
  *both* front ends — threaded and asyncio — via one shared
  parametrized fixture, so the two transports are proven on the same
  payloads and cannot drift apart.

JSON is the wire's canonical-float64 encoding, so only float64 cases
ride it end to end (that *is* the documented contract); base64 ``.npy``
carries every dtype, exotic NaN payload bits included.
"""

import ast
import io
import json
import threading
import time

import numpy as np
import pytest

from repro.serving import AsyncFrontend, HttpClient, HttpFrontend, \
    InferenceServer, ModelRegistry
from repro.serving.wire import (decode_array_b64, decode_array_json,
                                encode_array, iter_sse_events)
from repro.nn.tensor import Tensor

#: the pinned fuzz seed: every run fuzzes the same payloads, so a
#: failure is reproducible by case index alone
FUZZ_SEED = 20210614

#: dtypes the .npy codec must carry byte-exactly over the wire
B64_DTYPES = (np.float16, np.float32, np.float64,
              np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint64, np.bool_)


def _fuzz_array(rng: np.random.Generator, dtype) -> np.ndarray:
    shape = tuple(int(rng.integers(1, 6))
                  for _ in range(int(rng.integers(1, 4))))
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        array = rng.normal(scale=10.0 ** rng.integers(-3, 4),
                           size=shape).astype(dtype)
        # salt the float cases with the special values JSON and .npy
        # must both carry: NaN, both infinities, negative zero
        flat = array.reshape(-1)
        for value in (np.nan, np.inf, -np.inf, -0.0):
            flat[rng.integers(0, flat.size)] = value
        return array
    if dtype.kind == "b":
        return rng.integers(0, 2, size=shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape,
                        dtype=dtype, endpoint=True)


def build_cases():
    rng = np.random.default_rng(FUZZ_SEED)
    cases = []
    for dtype in B64_DTYPES:
        for _ in range(3):
            cases.append(_fuzz_array(rng, dtype))
    # plus non-contiguous and Fortran-order views: the codec promises
    # byte-exactness of the *values*, independent of memory layout
    base = rng.normal(size=(6, 8))
    cases.append(np.asfortranarray(base))
    cases.append(base[::2, ::3])
    cases.append(rng.normal(size=4) + 1j * rng.normal(size=4))   # complex
    return cases


CASES = build_cases()
CASE_IDS = [f"case{i}_{np.dtype(a.dtype).name}{list(a.shape)}"
            for i, a in enumerate(CASES)]


def assert_byte_exact(decoded: np.ndarray, original: np.ndarray):
    assert decoded.dtype == original.dtype
    assert decoded.shape == original.shape
    assert (np.ascontiguousarray(decoded).tobytes()
            == np.ascontiguousarray(original).tobytes())


class TestCodecRoundTrip:
    @pytest.mark.parametrize("array", CASES, ids=CASE_IDS)
    def test_b64_npy_round_trip_byte_exact(self, array):
        assert_byte_exact(decode_array_b64(encode_array(array)), array)

    @pytest.mark.parametrize(
        "array", [a for a in CASES if a.dtype == np.float64
                  and a.dtype.kind == "f"],
        ids=[i for a, i in zip(CASES, CASE_IDS)
             if a.dtype == np.float64 and a.dtype.kind == "f"])
    def test_json_round_trip_float64_byte_exact(self, array):
        """float64 repr round-trips exactly through JSON — NaN, ±inf and
        −0.0 included (Python's json emits and parses the tokens)."""
        wire = json.loads(json.dumps(array.tolist()))
        assert_byte_exact(decode_array_json(wire), array)

    def test_sse_events_share_key_strings(self):
        """Decoded events equal plain ``json.loads`` and share one copy
        of each key across events, so held receipts do not repeat them."""
        payload = {"stats": {"engine_stats": {"conversions": 3},
                             "queue_wait_s": 0.5}, "index": 1}
        frame = f"event: result\ndata: {json.dumps(payload)}\n\n".encode()
        events = list(iter_sse_events(io.BytesIO(frame * 2)))
        assert events == [("result", payload)] * 2
        (_, first), (_, second) = events
        for a, b in zip(first["stats"], second["stats"]):
            assert a is b

    def test_b64_rejects_garbage(self):
        from repro.serving.wire import WireFormatError
        with pytest.raises(WireFormatError):
            decode_array_b64("not-base64!!")
        with pytest.raises(WireFormatError):
            decode_array_b64("aGVsbG8=")   # valid base64, not a .npy

    def test_concurrent_decodes_parse_headers_one_at_a_time(self,
                                                            monkeypatch):
        """``np.load`` parses the header with ``ast.literal_eval``, which
        is not thread-safe: concurrent decodes must never overlap in it."""
        lock = threading.Lock()
        inside, peak = [0], [0]
        literal_eval = ast.literal_eval

        def spy(node_or_string):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            time.sleep(0.005)
            try:
                return literal_eval(node_or_string)
            finally:
                with lock:
                    inside[0] -= 1

        monkeypatch.setattr(ast, "literal_eval", spy)
        payload = encode_array(np.arange(12, dtype=np.float32).reshape(3, 4))
        barrier = threading.Barrier(4)
        results = [None] * 4

        def decode(i):
            barrier.wait()
            results[i] = decode_array_b64(payload)

        threads = [threading.Thread(target=decode, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert peak[0] == 1
        for result in results:
            assert_byte_exact(result, np.arange(12, dtype=np.float32
                                                ).reshape(3, 4))


# ---------------------------------------------------------------------------
# end to end: the same payloads through both front ends.  One echo model
# per case (request shapes are pinned per model), one shared fixture
# parametrized over the frontend class — the satellite's anti-drift rule.
E2E_CASES = [(i, a) for i, a in enumerate(CASES)
             if a.dtype in (np.float16, np.float32, np.float64,
                            np.int32, np.uint8, np.bool_)]


def _echo(tensor):
    return Tensor(tensor.data)


@pytest.fixture(scope="module", params=[HttpFrontend, AsyncFrontend],
                ids=["threaded", "asyncio"])
def fuzz_frontend(request):
    registry = ModelRegistry(workers=2)
    for index, _ in E2E_CASES:
        registry.register_network(f"echo{index}", _echo)
    server = InferenceServer(registry=registry, max_batch=4,
                             max_wait_s=0.001)
    frontend = request.param(server).start()
    try:
        yield frontend
    finally:
        frontend.shutdown()
        server.shutdown()
        registry.close()


class TestWireFuzzEndToEnd:
    @pytest.mark.parametrize("index,array",
                             E2E_CASES,
                             ids=[f"case{i}" for i, _ in E2E_CASES])
    def test_b64_echo_byte_exact(self, fuzz_frontend, index, array):
        client = HttpClient.for_frontend(fuzz_frontend)
        result = client.infer(array, model=f"echo{index}", binary=True)
        assert_byte_exact(result.output, array)

    @pytest.mark.parametrize(
        "index,array",
        [(i, a) for i, a in E2E_CASES if a.dtype == np.float64],
        ids=[f"case{i}" for i, a in E2E_CASES if a.dtype == np.float64])
    def test_json_echo_float64_value_exact(self, fuzz_frontend, index,
                                           array):
        """The canonical-float64 JSON path: bytes survive end to end,
        NaN/±inf/−0.0 salt included."""
        client = HttpClient.for_frontend(fuzz_frontend)
        result = client.infer(array, model=f"echo{index}", binary=False)
        assert_byte_exact(result.output, array)
