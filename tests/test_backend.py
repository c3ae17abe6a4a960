import gc
import json
import random
import threading
import time
import warnings
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from sqleq.backend import (
    Completion, GenConfig, HttpBackend, MockBackend, MockRule,
)
from sqleq.errors import (
    AuthError, MalformedResponse, ThrottledExhausted, TransportError,
)
from sqleq.prompts import PromptBundle


def bundle(body="prompt body", strategy="basic", pair_id="p1"):
    return PromptBundle(strategy=strategy, body=body,
                        meta={"pair_id": pair_id})


class _ServerState:
    def __init__(self, script):
        self.script = list(script)   # per-request: status code or "ok"
        self.lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.requests = []
        self.auth_headers = []
        self.handler_delay = 0.0

    def next_action(self):
        with self.lock:
            if self.script:
                return self.script.pop(0)
            return "ok"


class _Handler(BaseHTTPRequestHandler):
    state = None

    def do_POST(self):
        state = self.state
        with state.lock:
            state.active += 1
            state.max_active = max(state.max_active, state.active)
        try:
            if state.handler_delay:
                time.sleep(state.handler_delay)
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            with state.lock:
                state.requests.append(payload)
                state.auth_headers.append(self.headers.get("Authorization"))
            action = state.next_action()
        finally:
            # lowered before the response goes out, so that the server's
            # window nests inside the client's: a client that has read the
            # response may start its next request at once
            with state.lock:
                state.active -= 1
        if action == "ok":
            body = json.dumps({
                "choices": [{"message": {"content": "Equivalent"}}],
                "usage": {"total_tokens": 7},
            }).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif isinstance(action, tuple):   # (status, Retry-After value)
            status, retry_after = action
            self.send_response(status)
            self.send_header("Retry-After", retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif action == "garbage":
            body = b"not json at all"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(int(action))

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_server():
    servers = []

    def start(script=(), handler_delay=0.0):
        state = _ServerState(script)
        state.handler_delay = handler_delay
        handler = type("Handler", (_Handler,), {"state": state})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        # shutdown() waits for the loop to wake up: poll often enough
        # that teardown does not wait out the default half second
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        servers.append(server)
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
        return url, state

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def no_sleep(_seconds):
    pass


class TestHttpBackend:
    def test_success_first_attempt(self, fake_server):
        url, state = fake_server()
        backend = HttpBackend(url, api_key="k", sleeper=no_sleep)
        completion = backend.complete(bundle(), GenConfig(model="m"))
        assert completion.text == "Equivalent"
        assert completion.attempts == 1
        assert completion.usage == {"total_tokens": 7}
        request = state.requests[0]
        assert request["model"] == "m"
        assert request["temperature"] == 0.2
        assert request["max_tokens"] == 1000
        assert request["messages"] == [{"role": "user",
                                        "content": "prompt body"}]
        assert state.auth_headers == ["Bearer k"]

    def test_no_credential_sends_no_auth_header(self, fake_server):
        url, state = fake_server()
        backend = HttpBackend(url, sleeper=no_sleep)
        backend.complete(bundle(), GenConfig(model="m"))
        assert state.auth_headers == [None]

    def test_throttle_twice_then_success(self, fake_server):
        url, _state = fake_server(script=[429, 429, "ok"])
        backend = HttpBackend(url, sleeper=no_sleep)
        completion = backend.complete(bundle(), GenConfig(model="m"))
        assert completion.attempts == 3

    def test_throttled_exhausted(self, fake_server):
        url, _state = fake_server(script=[429, 429, 429])
        backend = HttpBackend(url, sleeper=no_sleep)
        with pytest.raises(ThrottledExhausted):
            backend.complete(bundle(), GenConfig(model="m", max_retries=2))

    def test_auth_error_never_retried(self, fake_server):
        url, state = fake_server(script=[401, "ok"])
        backend = HttpBackend(url, sleeper=no_sleep)
        with pytest.raises(AuthError):
            backend.complete(bundle(), GenConfig(model="m"))
        assert len(state.requests) == 1

    def test_server_errors_retried_then_transport_error(self, fake_server):
        url, _state = fake_server(script=[500, 500, 500, 500])
        backend = HttpBackend(url, sleeper=no_sleep)
        with pytest.raises(TransportError):
            backend.complete(bundle(), GenConfig(model="m", max_retries=3))

    @pytest.mark.parametrize("status", [400, 404])
    def test_client_errors_fail_at_once(self, fake_server, status):
        url, state = fake_server(script=[status, "ok"])
        delays = []
        backend = HttpBackend(url, sleeper=delays.append)
        with pytest.raises(TransportError, match=f"^HTTP {status}$"):
            backend.complete(bundle(), GenConfig(model="m"))
        assert len(state.requests) == 1
        assert delays == []

    @pytest.mark.parametrize("status", [408, 503])
    def test_timeouts_and_server_errors_retried(self, fake_server, status):
        url, state = fake_server(script=[status, "ok"])
        delays = []
        backend = HttpBackend(url, sleeper=delays.append)
        completion = backend.complete(bundle(), GenConfig(model="m"))
        assert completion.attempts == 2
        assert len(state.requests) == 2
        assert len(delays) == 1

    def test_error_responses_are_closed(self, fake_server):
        url, _state = fake_server(script=[503, 404])
        backend = HttpBackend(url, sleeper=no_sleep)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                backend.complete(bundle(), GenConfig(model="m"))
            except TransportError:
                pass
            gc.collect()
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_malformed_response(self, fake_server):
        url, _state = fake_server(script=["garbage"])
        backend = HttpBackend(url, sleeper=no_sleep)
        with pytest.raises(MalformedResponse):
            backend.complete(bundle(), GenConfig(model="m"))

    def test_connection_refused_is_transport(self):
        backend = HttpBackend("http://127.0.0.1:9/nothing", sleeper=no_sleep)
        with pytest.raises(TransportError):
            backend.complete(bundle(),
                             GenConfig(model="m", max_retries=0, timeout=1))

    def test_parallelism_limit_enforced(self, fake_server):
        url, state = fake_server(handler_delay=0.05)
        backend = HttpBackend(url, parallelism=4, sleeper=no_sleep)
        cfg = GenConfig(model="m")
        threads = [threading.Thread(
            target=lambda: backend.complete(bundle(), cfg))
            for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(state.requests) == 16
        assert state.max_active <= 4

    def test_backoff_schedule_deterministic_under_seeded_jitter(
            self, fake_server):
        url, _state = fake_server(script=[429, 429, 429, 429, 429, 429])
        schedules = []
        for _ in range(2):
            delays = []
            backend = HttpBackend(url, sleeper=delays.append,
                                  jitter_rng=random.Random(42))
            with pytest.raises(ThrottledExhausted):
                backend.complete(bundle(),
                                 GenConfig(model="m", max_retries=2))
            schedules.append(delays)
        assert schedules[0] == schedules[1]
        first, second = schedules[0]
        assert 1.0 <= first <= 1.25     # base 1s plus bounded jitter
        assert 2.0 <= second <= 2.25    # doubled


class TestRetryAfter:
    """A 429 or 503 with Retry-After sets the wait before the next try, up
    to the longest backoff the retry count reaches."""

    def _delays(self, fake_server, script, max_retries):
        url, state = fake_server(script=script)
        delays = []
        backend = HttpBackend(url, sleeper=delays.append,
                              jitter_rng=random.Random(42))
        completion = backend.complete(
            bundle(), GenConfig(model="m", max_retries=max_retries))
        assert completion.attempts == len(script) + 1
        assert len(state.requests) == len(script) + 1
        return delays

    def test_delta_seconds(self, fake_server):
        script = [(429, "3"), (503, " 0 "), (429, "2")]
        assert self._delays(fake_server, script, 3) == [3.0, 0.0, 2.0]

    def test_http_date(self, fake_server):
        soon = formatdate(time.time() + 3, usegmt=True)
        past = formatdate(time.time() - 60, usegmt=True)
        first, second = self._delays(fake_server, [(429, soon), (503, past)],
                                     3)
        assert 1.0 < first <= 3.0   # the date has whole seconds
        assert second == 0.0

    def test_unusable_value_falls_back_to_the_backoff(self, fake_server):
        script = [(429, "soon"), (429, "1.5"), (429, "-3"), (429, ""),
                  (503, "Mon, 32 Foo 2020 99:99:99 GMT"),
                  (500, "3")]   # only 429 and 503 carry a wait to honour
        delays = self._delays(fake_server, script, len(script))
        for retry_index, delay in enumerate(delays):
            assert 2.0 ** retry_index <= delay <= 2.0 ** retry_index + 0.25

    def test_wait_is_capped_at_the_longest_backoff(self, fake_server):
        later = formatdate(time.time() + 3600, usegmt=True)
        script = [(429, "3600"), (503, later), (429, "99999999999")]
        for max_retries, cap in [(1, 1.25), (2, 2.25), (3, 4.25)]:
            delays = self._delays(fake_server, script[:max_retries],
                                  max_retries)
            assert delays == [cap] * max_retries


class TestBenchIntegration:
    def test_benchmark_over_http_respects_backend_limit(self, fake_server,
                                                        tmp_path):
        import json as _json

        from sqleq.bench import load_dataset, run_benchmark
        from sqleq.pipeline import PipelineConfig

        url, state = fake_server(handler_delay=0.02)
        records = [
            {"id": f"h{i}", "sql1": f"SELECT a FROM t WHERE b = {i}",
             "sql2": f"SELECT a FROM t WHERE b = {i + 9}",
             "schema": "s", "label": "NEQ"}
            for i in range(12)
        ]
        data = tmp_path / "pairs.jsonl"
        data.write_text("\n".join(_json.dumps(r) for r in records) + "\n")
        schemas = tmp_path / "schemas.json"
        schemas.write_text(_json.dumps(
            {"s": {"tables": [{"name": "t", "columns": ["a", "b"]}]}}))
        dataset = load_dataset(data, schemas)

        backend = HttpBackend(url, parallelism=4, sleeper=no_sleep)
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             fail_soft=True)
        report = run_benchmark(dataset, "basic", False,
                               backend, cfg,
                               parallelism=16)
        assert len(state.requests) == 24  # 12 pairs x (strategy + classify)
        assert state.max_active <= 4
        # fake server always answers "Equivalent": all NEQ pairs wrong
        assert report.metrics.neq_accuracy == 0.0
        assert report.metrics.gm is None  # no EQ pairs in this dataset

    def test_benchmark_aborts_on_auth_error(self, fake_server, tmp_path):
        import json as _json

        from sqleq.bench import load_dataset, run_benchmark
        from sqleq.pipeline import PipelineConfig

        url, _state = fake_server(script=[401] * 20)
        data = tmp_path / "pairs.jsonl"
        data.write_text(_json.dumps(
            {"id": "a", "sql1": "SELECT 1 FROM t", "sql2": "SELECT 2 FROM t",
             "schema": "s", "label": "NEQ"}) + "\n")
        schemas = tmp_path / "schemas.json"
        schemas.write_text(_json.dumps(
            {"s": {"tables": [{"name": "t", "columns": ["a", "b"]}]}}))
        dataset = load_dataset(data, schemas)
        backend = HttpBackend(url, sleeper=no_sleep)
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             fail_soft=True)
        with pytest.raises(AuthError):
            run_benchmark(dataset, "basic", False,
                          backend, cfg, parallelism=2)


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig(model="m")
        assert cfg.temperature == 0.2
        assert cfg.max_retries == 3
        assert cfg.parallelism == 4

    @pytest.mark.parametrize("kwargs", [
        {"temperature": -0.1},
        {"max_output_tokens": 0},
        {"timeout": 0},
        {"max_retries": -1},
        {"parallelism": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(model="m", **kwargs)


class TestMockBackend:
    def test_scripted_rule_matches_strategy(self):
        mock = MockBackend(rules=[MockRule(response="Equivalent",
                                           strategy="basic")])
        completion = mock.complete(bundle(strategy="basic"),
                                   GenConfig(model="m"))
        assert completion == Completion(text="Equivalent")

    def test_unmatched_returns_default(self):
        mock = MockBackend(default="Unknown")
        assert mock.complete(bundle(), GenConfig(model="m")).text == "Unknown"

    def test_substring_and_pair_id_rules(self):
        mock = MockBackend(rules=[
            MockRule(response="A", substring="magic phrase"),
            MockRule(response="B", pair_id="p7"),
        ])
        cfg = GenConfig(model="m")
        assert mock.complete(bundle(body="contains magic phrase"),
                             cfg).text == "A"
        assert mock.complete(bundle(pair_id="p7"), cfg).text == "B"

    def test_first_matching_rule_wins(self):
        mock = MockBackend(rules=[
            MockRule(response="first", strategy="basic"),
            MockRule(response="second", strategy="basic"),
        ])
        assert mock.complete(bundle(), GenConfig(model="m")).text == "first"

    def test_pure_function_of_prompt_and_script(self):
        mock = MockBackend(rules=[MockRule(response="X", substring="q")])
        cfg = GenConfig(model="m")
        results = {mock.complete(bundle(body="q1"), cfg).text
                   for _ in range(10)}
        assert results == {"X"}

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([
            {"match": {"pair_id": "p1"}, "response": "Equivalent"},
            {"match": {"substring": "weird"}, "response": "Unknown"},
        ]))
        mock = MockBackend.from_file(path, default="Non Equivalent")
        cfg = GenConfig(model="m")
        assert mock.complete(bundle(pair_id="p1"), cfg).text == "Equivalent"
        assert mock.complete(bundle(pair_id="zz"), cfg).text == \
            "Non Equivalent"


_RULES = st.lists(st.builds(
    MockRule,
    response=st.just(""),
    substring=st.none() | st.sampled_from(["a", "b"]),
    pair_id=st.none() | st.sampled_from(["p1", "p2", "p3"]),
    strategy=st.none() | st.sampled_from(["basic", "cot"]),
), max_size=12)
_BUNDLES = st.lists(st.builds(
    bundle,
    body=st.sampled_from(["", "a", "b", "ab"]),
    strategy=st.sampled_from(["basic", "cot"]),
    pair_id=st.none() | st.sampled_from(["p1", "p2", "p3", "p4"]),
), min_size=1, max_size=8)


@given(_RULES, _BUNDLES)
def test_mock_answers_equal_a_plain_scan_of_the_script(rules, bundles):
    # each rule answers with its own index, so the answers show which
    # rule won
    rules = [MockRule(response=str(i), substring=r.substring,
                      pair_id=r.pair_id, strategy=r.strategy)
             for i, r in enumerate(rules)]
    mock = MockBackend(rules=rules, default="none")
    cfg = GenConfig(model="m")
    for b in bundles:
        scanned = next((r.response for r in rules if r.matches(b)), "none")
        assert mock.complete(b, cfg).text == scanned
