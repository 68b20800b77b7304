"""Transport retries, planner extraction, transcript logging, replay."""
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comal import llm_client as llm
from comal.agent import ScriptedBackend
from comal.llm_client import (BackendConfig, ChatTurn, LlmConfigError,
                              LlmTransportError, PlannerParseError,
                              RecordingBackend, ReplayBackend, TranscriptLog,
                              extract_planner_json)

from helpers import reference_json_candidates

TURNS = [ChatTurn("system", "be brief"), ChatTurn("user", "hello")]


class StubServer:
    """Tiny chat-completion endpoint whose behavior is a queue of actions.

    Each action is ("reply", text), ("status", code) or ("stall", seconds);
    when the queue empties the last action repeats.
    """

    def __init__(self, actions):
        self.actions = list(actions)
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                outer.requests.append(json.loads(self.rfile.read(length)))
                action = outer.actions.pop(0) if len(outer.actions) > 1 else outer.actions[0]
                kind, arg = action
                if kind == "stall":
                    time.sleep(arg)
                    kind, arg = "status", 500
                if kind == "status":
                    self.send_response(arg)
                    self.end_headers()
                    self.wfile.write(b"{}")
                    return
                body = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": arg}}]})
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body.encode())

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv("COMAL_API_KEY", "test-key")


def make_config(endpoint, **kw):
    base = dict(endpoint=endpoint, model="test-model", timeout_s=2.0,
                max_retries=2, backoff_base_s=0.01)
    base.update(kw)
    return BackendConfig(**base)


class TestComplete:
    def test_echoes_reply_verbatim(self, api_key):
        srv = StubServer([("reply", "fixed reply")])
        try:
            out = llm.complete(make_config(srv.endpoint), TURNS)
            assert out == "fixed reply"
            assert srv.requests[0]["model"] == "test-model"
            assert srv.requests[0]["messages"][1]["content"] == "hello"
            assert srv.requests[0]["temperature"] == 0.0
        finally:
            srv.close()

    def test_retries_on_429_then_succeeds(self, api_key):
        srv = StubServer([("status", 429), ("status", 429), ("reply", "ok")])
        sleeps = []
        try:
            out = llm.complete(make_config(srv.endpoint), TURNS,
                               sleep=sleeps.append)
            assert out == "ok"
            assert len(srv.requests) == 3
            assert len(sleeps) == 2
            # exponential with additive jitter: delays double and never shrink
            assert 0.01 <= sleeps[0] <= 0.015
            assert 0.02 <= sleeps[1] <= 0.03
        finally:
            srv.close()

    def test_missing_key_no_request(self, monkeypatch):
        monkeypatch.delenv("COMAL_API_KEY", raising=False)
        srv = StubServer([("reply", "nope")])
        try:
            with pytest.raises(LlmConfigError):
                llm.complete(make_config(srv.endpoint), TURNS)
            assert srv.requests == []
        finally:
            srv.close()

    def test_retries_exhausted_on_5xx(self, api_key):
        srv = StubServer([("status", 503)])
        try:
            with pytest.raises(LlmTransportError):
                llm.complete(make_config(srv.endpoint), TURNS, sleep=lambda s: None)
            assert len(srv.requests) == 3  # initial try + 2 retries
        finally:
            srv.close()

    def test_client_error_is_immediate(self, api_key):
        srv = StubServer([("status", 404)])
        try:
            with pytest.raises(LlmTransportError):
                llm.complete(make_config(srv.endpoint), TURNS, sleep=lambda s: None)
            assert len(srv.requests) == 1
        finally:
            srv.close()

    def test_never_blocks_past_budget(self, api_key):
        srv = StubServer([("stall", 5.0)])
        cfg = make_config(srv.endpoint, timeout_s=0.3, max_retries=1,
                          backoff_base_s=0.01)
        t0 = time.perf_counter()
        try:
            with pytest.raises(LlmTransportError):
                llm.complete(cfg, TURNS)
        finally:
            srv.close()
        elapsed = time.perf_counter() - t0
        budget = cfg.timeout_s * (cfg.max_retries + 1) + 0.01 * (1 + 2) * 1.5
        assert elapsed < budget + 0.5  # scheduling slack


def test_importing_the_package_leaves_requests_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(llm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, comal.harness, comal.cli; print('requests' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestValidation:
    def test_chat_turn(self):
        with pytest.raises(ValueError):
            ChatTurn("narrator", "x")
        with pytest.raises(ValueError):
            ChatTurn("user", "")

    def test_backend_config(self):
        with pytest.raises(ValueError):
            BackendConfig(endpoint="x", model="m", timeout_s=0.0)
        with pytest.raises(ValueError):
            BackendConfig(endpoint="x", model="m", max_retries=-1)


class TestExtractPlannerJson:
    def test_direct(self):
        assert extract_planner_json('Sure! {"v0": 8.0, "a_max": 1.5, "s0": 2.0}') == {
            "v0": 8.0, "a_max": 1.5, "s0": 2.0}

    def test_last_object_wins(self):
        text = ('first {"v0": 1, "a_max": 1, "s0": 1} then '
                '{"v0": 2, "a_max": 2, "s0": 2}')
        assert extract_planner_json(text)["v0"] == 2.0

    def test_type_check(self):
        with pytest.raises(PlannerParseError):
            extract_planner_json('{"v0": "fast"}')

    def test_code_fence_and_prose(self):
        text = 'reasoning...\n```json\n{"v0": 5, "a_max": 2, "s0": 1}\n```\ndone'
        assert extract_planner_json(text) == {"v0": 5.0, "a_max": 2.0, "s0": 1.0}

    def test_booleans_rejected(self):
        with pytest.raises(PlannerParseError):
            extract_planner_json('{"v0": true, "a_max": 1, "s0": 1}')

    def test_missing_key(self):
        with pytest.raises(PlannerParseError):
            extract_planner_json('{"v0": 1, "a_max": 1}')

    def test_nested_object_ignored_inner(self):
        text = '{"meta": {"v0": 9}, "v0": 4, "a_max": 1, "s0": 2}'
        assert extract_planner_json(text)["v0"] == 4.0

    def test_fuzz_never_crashes(self):
        import random
        rng = random.Random(0)
        alphabet = '{}[]":,0123456789.ev0a_maxs abc\n'
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
            try:
                out = extract_planner_json(text)
                assert set(out) == {"v0", "a_max", "s0"}
            except PlannerParseError:
                pass


# brace-heavy text: nested, unbalanced and stray closing braces among JSON bits
BRACEY_TEXT = st.text(alphabet='{}{}{}"v0:1, a_max\n', max_size=60)


class TestJsonCandidates:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=80), BRACEY_TEXT))
    def test_matches_the_per_character_scan(self, text):
        assert list(llm._json_candidates(text)) == list(reference_json_candidates(text))

    def test_nested_and_unbalanced(self):
        text = 'x}{"a": {"b": 1}} y {"c": 2} {"open": {'
        assert list(llm._json_candidates(text)) == ['{"a": {"b": 1}}', '{"c": 2}']


class TestTranscriptAndReplay:
    def test_log_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = TranscriptLog(path)
        log.append({"stage": "reason", "agent_id": "a", "response": "x"})
        log.append({"stage": "reason", "agent_id": "b", "response": "y"})
        log.close()
        records = TranscriptLog.read(path)
        assert [r["agent_id"] for r in records] == ["a", "b"]

    def test_recording_backend_logs_every_call(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = TranscriptLog(path)
        backend = RecordingBackend(ScriptedBackend(), log, run_id="r1")
        scene_prompt = ("[MAP] scenario=ring; route_length=230.00 m (cyclic); "
                        "speed_limit=30.00 m/s; intersections=0\n"
                        "[EGO] id=cav_00; speed=5.00 m/s; headway=20.00 m; "
                        "leader=human_01; leader_speed=5.00 m/s\n"
                        "[NEIGHBORS] none\nAssigned role: wave_dampener. Act.")
        reply = backend.complete([ChatTurn("user", scene_prompt)],
                                 agent_id="cav_00", stage="reason")
        log.close()
        records = TranscriptLog.read(path)
        assert len(records) == 1
        rec = records[0]
        assert rec["run_id"] == "r1"
        assert rec["agent_id"] == "cav_00"
        assert rec["stage"] == "reason"
        assert rec["response"] == reply
        assert rec["request"][0]["role"] == "user"
        assert "timestamp" in rec and "latency_ms" in rec

    def test_replay_serves_in_order(self):
        records = [
            {"agent_id": "a", "stage": "reason", "response": "one"},
            {"agent_id": "b", "stage": "reason", "response": "two"},
        ]
        backend = ReplayBackend(records)
        assert backend.complete(TURNS, agent_id="a", stage="reason") == "one"
        assert backend.complete(TURNS, agent_id="b", stage="reason") == "two"
        with pytest.raises(LlmTransportError):
            backend.complete(TURNS, agent_id="c", stage="reason")

    def test_replay_mismatch(self):
        backend = ReplayBackend([{"agent_id": "a", "stage": "reason", "response": "x"}])
        with pytest.raises(LlmTransportError):
            backend.complete(TURNS, agent_id="a", stage="collaboration")

    def test_replay_compares_the_recorded_request(self):
        record = {"agent_id": "a", "stage": "reason", "response": "x",
                  "request": [{"role": t.role, "content": t.content} for t in TURNS]}
        assert ReplayBackend([record]).complete(TURNS, agent_id="a", stage="reason") == "x"
        backend = ReplayBackend([record])
        with pytest.raises(LlmTransportError, match="other turns"):
            backend.complete(TURNS[:1] + [ChatTurn("user", "hello!")],
                             agent_id="a", stage="reason")
        with pytest.raises(LlmTransportError, match="other turns"):
            backend.complete(TURNS[:1], agent_id="a", stage="reason")

    def test_replay_from_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = TranscriptLog(path)
        log.append({"agent_id": "a", "stage": "reason", "response": "from disk"})
        log.close()
        backend = ReplayBackend(path)
        assert backend.complete(TURNS, agent_id="a", stage="reason") == "from disk"
