"""Byte-identity gate: every catalog scenario's exports, scenes and prompts at seed 0.

The digests in ``golden_digests.json`` are sha256 sums of the
``metrics.json`` and ``trajectories.csv`` that ``harness.export`` writes for
each catalog scenario at seed 0 with the scripted backend. ``scenes`` is one
sha256 over every scene the run perceives, in call order: its rendered text
and the ego's route arc. The scripted policy reads few of a scene's fields,
most of them only for wave dampeners in congestion, so the exports alone
would not notice a scene that lists a wrong neighbor or misorders them.
``transcript`` is one sha256 over every backend call, in call order: the
agent id, the stage, each request turn's role and content, and the reply,
as a recording backend logs them minus the timestamp and latency. It pins
the prompts and replies that the exports only see through the planner.
``planner_log`` is one sha256 over the run's planners in install order, each
row as sorted-key JSON: every installed planner with its time, agent and
role, which the exports see only through the motion they cause.
``seeds 1-4`` holds the ``metrics.json``, ``trajectories.csv`` and
``transcript`` digests of every catalog scenario at seeds 1 to 4: the seed
moves the humans' noise, and on a merge which vehicles arrive when, and so
how the world's vehicle table grows and compacts.
A refactor that moves any bit of these fails here; a change that means to
move them must regenerate the digests and say why.
"""
import hashlib
import json
from pathlib import Path

import pytest

from comal import agent, harness
from comal import scenario as sc
from comal.agent import ScriptedBackend
from comal.llm_client import RecordingBackend

from helpers import planner_rows

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json")
                    .read_text(encoding="utf-8"))
MORE_SEEDS = GOLDEN.pop("seeds 1-4")  # scenario -> seed -> export and transcript digests
SCENES = "scenes"
TRANSCRIPT = "transcript"
PLANNER_LOG = "planner_log"


class _DigestLog:
    """A transcript log that hashes each record instead of writing it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def append(self, record: dict) -> None:
        kept = {k: record[k] for k in ("agent_id", "stage", "request", "response")}
        self.digest.update((json.dumps(kept, sort_keys=True) + "\n").encode())


def run_digests(cfg, out_dir, *, planners=False) -> dict:
    """Run ``cfg`` with the scripted backend; digest its exports and calls,
    and with ``planners`` its planner log."""
    log = _DigestLog()
    result = harness.run(cfg, RecordingBackend(ScriptedBackend(), log, run_id="golden"))
    paths = harness.export(result, out_dir)
    got = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
           for p in paths.values()}
    got[TRANSCRIPT] = log.digest.hexdigest()
    if planners:
        rows = hashlib.sha256()
        for row in planner_rows(result.planner_log):
            rows.update((json.dumps(row, sort_keys=True) + "\n").encode())
        got[PLANNER_LOG] = rows.hexdigest()
    return got


def catalog_digests(name, out_dir, monkeypatch) -> dict:
    """Run one catalog scenario at seed 0; digest its exports, scenes, calls
    and planners."""
    scenes = hashlib.sha256()
    perceive_all = agent.perceive_all

    def digesting(*args, **kwargs):
        found = perceive_all(*args, **kwargs)
        for scene in found:
            scenes.update((scene.text + "\n" + repr(scene.position_arc) + "\n").encode())
        return found

    monkeypatch.setattr(agent, "perceive_all", digesting)
    got = run_digests(sc.find(name).replace(seed=0), out_dir, planners=True)
    got[SCENES] = scenes.hexdigest()
    return got


def more_seeds(merge: bool) -> list[tuple[str, str]]:
    """(scenario, seed) of every ``seeds 1-4`` run, merges or the others."""
    return [(name, seed) for name in sorted(MORE_SEEDS)
            if (sc.find(name).topology == "merge") == merge
            for seed in sorted(MORE_SEEDS[name])]


def test_golden_covers_the_catalog():
    assert sorted(GOLDEN) == sorted(MORE_SEEDS) == sorted(cfg.name for cfg in sc.catalog())
    assert all(set(d) == {"metrics.json", "trajectories.csv", SCENES, TRANSCRIPT, PLANNER_LOG}
               for d in GOLDEN.values())
    assert all(sorted(by_seed) == ["1", "2", "3", "4"] and all(
        set(d) == {"metrics.json", "trajectories.csv", TRANSCRIPT} for d in by_seed.values())
        for by_seed in MORE_SEEDS.values())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_exports_byte_identical(name, tmp_path, monkeypatch):
    assert catalog_digests(name, tmp_path, monkeypatch) == GOLDEN[name]


@pytest.mark.parametrize("name, seed", more_seeds(merge=True))
def test_merge_exports_byte_identical_at_more_seeds(name, seed, tmp_path):
    cfg = sc.find(name).replace(seed=int(seed))
    assert run_digests(cfg, tmp_path) == MORE_SEEDS[name][seed]


@pytest.mark.parametrize("name, seed", more_seeds(merge=False))
def test_rings_and_figure_eights_byte_identical_at_more_seeds(name, seed, tmp_path):
    cfg = sc.find(name).replace(seed=int(seed))
    assert run_digests(cfg, tmp_path) == MORE_SEEDS[name][seed]
