"""Completion backends: a chat-completion HTTP client and a scripted mock.

The HTTP client speaks the common chat-completion JSON shape
({model, messages, temperature, max_tokens} in, choices[0].message.content
out) and bounds in-flight requests with a semaphore. Network failures,
5xx responses, 408 (request timeout) and 429 (throttled) are retried
with exponential backoff (base 1s, factor 2, jitter from an injectable
RNG). A 429 or 503 that carries Retry-After (delta-seconds or an HTTP
date) waits that long instead, capped at the longest backoff the
configured retries reach; an unparsable value falls back to the
backoff. Every other 4xx fails at once: 401/403 as AuthError, the rest as
TransportError. The HTTP stack (urllib, http.client, ssl) is imported
when the first client is built, so a process that never builds one,
such as an oracle or mock run, does not load it.

The mock backend maps script rules to fixed responses and is a pure
function of the prompt bytes and script: same inputs, same Completion.
"""

import json
import random
import threading
import time

from .errors import (
    AuthError, MalformedResponse, ThrottledExhausted, TransportError,
)
from .records import Frozen, Record

BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER_SECONDS = 0.25


class GenConfig(Frozen):
    def __init__(self, model, temperature=0.2, max_output_tokens=1000,
                 timeout=30.0, max_retries=3, parallelism=4):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "max_output_tokens", max_output_tokens)
        object.__setattr__(self, "timeout", timeout)
        object.__setattr__(self, "max_retries", max_retries)
        object.__setattr__(self, "parallelism", parallelism)
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")


class Completion(Frozen, Record):
    def __init__(self, text, usage=None, latency_ms=0.0, attempts=1):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "usage", usage)
        object.__setattr__(self, "latency_ms", latency_ms)
        object.__setattr__(self, "attempts", attempts)


class HttpBackend:
    """Client for one chat-completion endpoint.

    A single instance may be shared across threads; the internal
    semaphore keeps concurrent in-flight requests at or below
    `parallelism` regardless of caller fan-out.
    """

    def __init__(self, endpoint, api_key=None, parallelism=4,
                 sleeper=time.sleep, jitter_rng=None):
        import urllib.error
        import urllib.request
        self._urllib = urllib   # with .request and .error loaded
        self.endpoint = endpoint
        self.api_key = api_key
        self._limiter = threading.Semaphore(parallelism)
        self._sleep = sleeper
        self._rng = jitter_rng or random.Random()

    def complete(self, bundle, cfg):
        started = time.monotonic()
        throttled = False
        last_error = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                self._sleep(self._retry_delay(attempt - 1, last_error, cfg))
            try:
                text, usage = self._request_once(bundle.body, cfg)
            except _Throttled as exc:
                throttled = True
                last_error = exc
                continue
            except _Transport as exc:
                throttled = False
                last_error = exc
                continue
            latency = (time.monotonic() - started) * 1000.0
            return Completion(text=text, usage=usage, latency_ms=latency,
                              attempts=attempt + 1)
        if throttled:
            raise ThrottledExhausted(
                f"throttled on all {cfg.max_retries + 1} attempts")
        raise TransportError(str(last_error))

    def _retry_delay(self, retry_index, error, cfg):
        """Seconds to wait before retry `retry_index` after `error`.

        A Retry-After the server sent with a 429 or 503 wins over the
        backoff, capped at the longest backoff `cfg.max_retries` retries
        can reach.
        """
        asked = error.retry_after
        if asked is None:
            base = BACKOFF_BASE_SECONDS * (BACKOFF_FACTOR ** retry_index)
            return base + self._rng.uniform(0.0, BACKOFF_JITTER_SECONDS)
        longest = BACKOFF_BASE_SECONDS * \
            (BACKOFF_FACTOR ** (cfg.max_retries - 1)) + BACKOFF_JITTER_SECONDS
        return min(asked, longest)

    def _request_once(self, prompt, cfg):
        payload = json.dumps({
            "model": cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_output_tokens,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        urllib = self._urllib
        request = urllib.request.Request(self.endpoint, data=payload,
                                         headers=headers, method="POST")
        with self._limiter:
            try:
                with urllib.request.urlopen(request,
                                            timeout=cfg.timeout) as response:
                    body = response.read()
            except urllib.error.HTTPError as exc:
                exc.close()   # the error response holds the socket
                if exc.code in (401, 403):
                    raise AuthError(
                        f"endpoint rejected credentials (HTTP {exc.code})"
                    ) from exc
                retry_after = None
                if exc.code in (429, 503):
                    retry_after = _retry_after(exc.headers.get("Retry-After"))
                if exc.code == 429:
                    raise _Throttled(f"HTTP {exc.code}", retry_after) from exc
                if 400 <= exc.code < 500 and exc.code != 408:
                    # the request itself is wrong: resending cannot help
                    raise TransportError(f"HTTP {exc.code}") from exc
                raise _Transport(f"HTTP {exc.code}", retry_after) from exc
            except OSError as exc:   # URLError and timeouts included
                raise _Transport(str(exc)) from exc
        return _parse_completion(body)


def _parse_completion(body):
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedResponse(f"response is not JSON: {exc}") from exc
    try:
        choice = data["choices"][0]
        text = choice["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse(
            "response lacks choices[0].message.content") from exc
    if text is None:
        text = ""
    if not isinstance(text, str):
        raise MalformedResponse("completion content is not a string")
    return text, data.get("usage")


class _Transport(Exception):
    """A failed attempt worth retrying, with the wait the server asked
    for in seconds, if any."""

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class _Throttled(_Transport):
    pass


def _retry_after(value):
    """Seconds a Retry-After header asks for: delta-seconds or an HTTP
    date (a past date asks for 0). None when absent or unparsable."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    from email.utils import mktime_tz, parsedate_tz
    try:
        parts = parsedate_tz(value)
        if parts is None:
            return None
        if parts[9] is None:   # "-0000": UTC, no zone given
            parts = parts[:9] + (0,)
        return max(0.0, mktime_tz(parts) - time.time())
    except (TypeError, ValueError, OverflowError):
        return None


class MockRule(Frozen):
    def __init__(self, response, substring=None, pair_id=None, strategy=None):
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "substring", substring)
        object.__setattr__(self, "pair_id", pair_id)
        object.__setattr__(self, "strategy", strategy)

    def matches(self, bundle):
        if self.substring is not None and self.substring not in bundle.body:
            return False
        if self.pair_id is not None and \
                bundle.meta.get("pair_id") != self.pair_id:
            return False
        if self.strategy is not None and bundle.strategy != self.strategy:
            return False
        return True


class MockBackend:
    """Deterministic scripted backend for tests and offline runs.

    Rules are checked in order; the first match wins, unmatched prompts
    get `default`. Completion latency is fixed at 0 so reports built on
    mock runs are byte-stable.

    A rule that matches on `pair_id` alone is found by a dict lookup;
    only the other rules are scanned, and only up to the looked-up one,
    so a long per-pair script costs one lookup per call.
    """

    def __init__(self, rules=(), default="Unknown"):
        self.rules = list(rules)
        self.default = default
        self.calls = []
        self._lock = threading.Lock()
        self._by_pair_id = {}   # pair_id -> index of its first such rule
        self._scanned = []      # indexes of every other rule, in order
        for index, rule in enumerate(self.rules):
            if isinstance(rule.pair_id, str) and rule.substring is None \
                    and rule.strategy is None:
                self._by_pair_id.setdefault(rule.pair_id, index)
            else:
                self._scanned.append(index)

    @classmethod
    def from_file(cls, path, default="Unknown"):
        """Script file: JSON list of {match: {...}, response}."""
        with open(path, encoding="utf-8") as f:
            entries = json.load(f)
        rules = [
            MockRule(response=e["response"], **e.get("match", {}))
            for e in entries
        ]
        return cls(rules=rules, default=default)

    def complete(self, bundle, cfg):
        del cfg
        pair_id = bundle.meta.get("pair_id")
        with self._lock:
            self.calls.append((bundle.strategy, pair_id))
        found = self._by_pair_id.get(pair_id)
        for index in self._scanned:
            if found is not None and index > found:
                break
            if self.rules[index].matches(bundle):
                found = index
                break
        if found is None:
            return Completion(text=self.default)
        return Completion(text=self.rules[found].response)

    @property
    def call_count(self):
        with self._lock:
            return len(self.calls)
