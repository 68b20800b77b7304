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
``seeds 1-2`` holds the ``metrics.json`` and ``trajectories.csv`` digests
of the merge scenarios at seeds 1 and 2: the seed changes which vehicles
arrive when, and so how the world's vehicle table grows and compacts.
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

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json")
                    .read_text(encoding="utf-8"))
MERGE_SEEDS = GOLDEN.pop("seeds 1-2")  # scenario -> seed -> export digests
SCENES = "scenes"
TRANSCRIPT = "transcript"


class _DigestLog:
    """A transcript log that hashes each record instead of writing it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def append(self, record: dict) -> None:
        kept = {k: record[k] for k in ("agent_id", "stage", "request", "response")}
        self.digest.update((json.dumps(kept, sort_keys=True) + "\n").encode())


def catalog_digests(name, out_dir, monkeypatch) -> dict:
    """Run one catalog scenario at seed 0; digest its exports, scenes and calls."""
    scenes = hashlib.sha256()
    perceive_all = agent.perceive_all

    def digesting(*args, **kwargs):
        found = perceive_all(*args, **kwargs)
        for scene in found:
            scenes.update((scene.text + "\n" + repr(scene.position_arc) + "\n").encode())
        return found

    monkeypatch.setattr(agent, "perceive_all", digesting)
    log = _DigestLog()
    backend = RecordingBackend(ScriptedBackend(), log, run_id="golden")
    result = harness.run(sc.find(name).replace(seed=0), backend)
    paths = harness.export(result, out_dir)
    got = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
           for p in paths.values()}
    got[SCENES] = scenes.hexdigest()
    got[TRANSCRIPT] = log.digest.hexdigest()
    return got


def test_golden_covers_the_catalog():
    assert sorted(GOLDEN) == sorted(cfg.name for cfg in sc.catalog())
    assert all(set(d) == {"metrics.json", "trajectories.csv", SCENES, TRANSCRIPT}
               for d in GOLDEN.values())
    merges = sorted(cfg.name for cfg in sc.catalog() if cfg.topology == "merge")
    assert {name: sorted(by_seed) for name, by_seed in MERGE_SEEDS.items()} == {
        name: ["1", "2"] for name in merges}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_exports_byte_identical(name, tmp_path, monkeypatch):
    assert catalog_digests(name, tmp_path, monkeypatch) == GOLDEN[name]


@pytest.mark.parametrize("name, seed", [(name, seed) for name in sorted(MERGE_SEEDS)
                                        for seed in sorted(MERGE_SEEDS[name])])
def test_merge_exports_byte_identical_at_more_seeds(name, seed, tmp_path):
    result = harness.run(sc.find(name).replace(seed=int(seed)), ScriptedBackend())
    paths = harness.export(result, tmp_path)
    got = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
           for p in paths.values()}
    assert got == MERGE_SEEDS[name][seed]
