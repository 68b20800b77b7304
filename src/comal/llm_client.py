"""Chat-completion transport, transcript logging, and planner extraction.

Speaks the OpenAI-compatible ``POST /v1/chat/completions`` protocol with
retries and exponential backoff on transient failures. Every call made
through a recording backend lands in a JSON-lines transcript, and the
replay backend serves a recorded transcript back so agent-layer runs are
reproducible without network access or keys.
"""
from __future__ import annotations

import functools
import json
import os
import random
import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone

DEFAULT_API_KEY_ENV = "COMAL_API_KEY"


@dataclass(frozen=True)
class ChatTurn:
    """One message of a chat exchange."""

    role: str  # system | user | assistant
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad chat role {self.role!r}")
        if not self.content:
            raise ValueError("chat turn content must be non-empty")


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for a remote chat-completion endpoint."""

    endpoint: str
    model: str
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout_s: float = 30.0
    max_retries: int = 3
    temperature: float = 0.0
    backoff_base_s: float = 1.0

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class LlmConfigError(RuntimeError):
    """Bad or missing client configuration; no request was sent."""


class LlmTransportError(RuntimeError):
    """The endpoint could not deliver a usable reply."""


class PlannerParseError(ValueError):
    """No planner JSON object could be extracted from a reply."""


def complete(config: BackendConfig, turns: list[ChatTurn], *,
             sleep=time.sleep) -> str:
    """Return the first choice's text, retrying transient failures.

    Timeouts, 429 and 5xx responses back off exponentially (doubling base
    delay plus up to 50% jitter); other HTTP errors surface immediately, as
    does a reply whose content is missing or not a string. A missing API
    key fails before any network traffic.
    """
    import requests  # here, not at the top: most runs never call out

    key = os.environ.get(config.api_key_env)
    if not key:
        raise LlmConfigError(
            f"environment variable {config.api_key_env} is not set")
    body = {
        "model": config.model,
        "messages": [{"role": t.role, "content": t.content} for t in turns],
        "temperature": config.temperature,
    }
    headers = {"Authorization": f"Bearer {key}"}
    last_error = "no attempts made"
    for attempt in range(config.max_retries + 1):
        try:
            resp = requests.post(config.endpoint, json=body, headers=headers,
                                 timeout=config.timeout_s)
        except (requests.Timeout, requests.ConnectionError) as exc:
            last_error = f"connection failure: {exc}"
        else:
            if resp.status_code == 200:
                try:
                    content = resp.json()["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    raise LlmTransportError(f"malformed completion payload: {exc}")
                if not isinstance(content, str):
                    raise LlmTransportError(f"malformed completion payload: content {content!r}")
                return content
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
            else:
                raise LlmTransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        if attempt < config.max_retries:
            delay = config.backoff_base_s * (2.0 ** attempt)
            sleep(delay * (1.0 + 0.5 * random.random()))
    raise LlmTransportError(
        f"retries exhausted after {config.max_retries + 1} attempts ({last_error})")


_BRACE_RE = re.compile(r"[{}]")
_PLANNER_KEYS = ("v0", "a_max", "s0")


def _json_candidates(text: str):
    """Balanced top-level ``{...}`` spans, in order of appearance."""
    depth = 0
    start = -1
    for brace in _BRACE_RE.finditer(text):
        i, ch = brace.start(), brace.group()
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                yield text[start:i + 1]


def extract_planner_json(text: str) -> dict:
    """Last JSON object in ``text`` with numeric v0, a_max and s0.

    Tolerates code fences and surrounding prose. Raises PlannerParseError
    when no such object exists; never raises anything else, whatever the
    input bytes.
    """
    found = None
    for candidate in _json_candidates(text or ""):
        found = _planner_values(candidate) or found
    if found is None:
        raise PlannerParseError("no JSON object with numeric v0, a_max, s0")
    return dict(zip(_PLANNER_KEYS, found))


@functools.lru_cache(maxsize=1024)  # most replies of a run carry one of a few planners
def _planner_values(candidate: str) -> tuple[float, float, float] | None:
    """The planner a ``{...}`` candidate holds, as floats in ``_PLANNER_KEYS``
    order; None when it is no JSON object with those keys numeric."""
    try:
        doc = json.loads(candidate)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    values = []
    for k in _PLANNER_KEYS:
        v = doc.get(k)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        values.append(float(v))
    return tuple(values)


class TranscriptLog:
    """JSON-lines log of backend calls for one run.

    Opening a log truncates its file, so the file holds exactly one run and
    a replay of it serves that run alone.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def append(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def read(path) -> list[dict]:
        out = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out


class RemoteBackend:
    """ReasonBackend speaking to an OpenAI-compatible endpoint."""

    name = "remote"

    def __init__(self, config: BackendConfig):
        self.config = config

    def complete(self, turns, *, agent_id: str, stage: str) -> str:
        return complete(self.config, list(turns))


class RecordingBackend:
    """Wraps any backend and logs every request/response pair."""

    def __init__(self, inner, log: TranscriptLog, run_id: str):
        self.inner = inner
        self.log = log
        self.run_id = run_id
        self.name = inner.name

    def complete(self, turns, *, agent_id: str, stage: str) -> str:
        t0 = time.perf_counter()
        response = self.inner.complete(turns, agent_id=agent_id, stage=stage)
        self.log.append({
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "run_id": self.run_id,
            "agent_id": agent_id,
            "stage": stage,
            "request": [{"role": t.role, "content": t.content} for t in turns],
            "response": response,
            "latency_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        })
        return response


class ReplayBackend:
    """Serves responses from a recorded transcript, in recorded order.

    Each call must match the recorded agent and stage, and the recorded
    ``request`` turns when the record holds them; a mismatch means the run
    diverged from the recording and surfaces as a transport error (the
    agent layer then falls back to scripted defaults and flags the run).
    """

    name = "replay"

    def __init__(self, records):
        if isinstance(records, (str, os.PathLike)):
            records = TranscriptLog.read(records)
        self._records = list(records)
        self._cursor = 0

    def complete(self, turns, *, agent_id: str, stage: str) -> str:
        if self._cursor >= len(self._records):
            raise LlmTransportError("replay transcript exhausted")
        rec = self._records[self._cursor]
        if rec.get("agent_id") != agent_id or rec.get("stage") != stage:
            raise LlmTransportError(
                f"replay mismatch: recorded ({rec.get('agent_id')}, {rec.get('stage')}), "
                f"requested ({agent_id}, {stage})")
        if "request" in rec and rec["request"] != [
                {"role": t.role, "content": t.content} for t in turns]:
            raise LlmTransportError(
                f"replay mismatch: ({agent_id}, {stage}) asked other turns than recorded")
        self._cursor += 1
        return rec["response"]
