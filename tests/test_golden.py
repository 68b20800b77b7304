"""Byte-identity gate: every catalog scenario's exports and scenes at seed 0.

The digests in ``golden_digests.json`` are sha256 sums of the
``metrics.json`` and ``trajectories.csv`` that ``harness.export`` writes for
each catalog scenario at seed 0 with the scripted backend. ``scenes`` is one
sha256 over every scene the run perceives, in call order: its rendered text
and the ego's route arc. The scripted policy reads few of a scene's fields,
most of them only for wave dampeners in congestion, so the exports alone
would not notice a scene that lists a wrong neighbor or misorders them.
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

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json")
                    .read_text(encoding="utf-8"))
SCENES = "scenes"


def catalog_digests(name, out_dir, monkeypatch) -> dict:
    """Run one catalog scenario at seed 0; digest its exports and scenes."""
    scenes = hashlib.sha256()
    perceive = agent.perceive

    def digesting(*args, **kwargs):
        scene = perceive(*args, **kwargs)
        scenes.update((scene.text + "\n" + repr(scene.position_arc) + "\n").encode())
        return scene

    monkeypatch.setattr(agent, "perceive", digesting)
    result = harness.run(sc.find(name).replace(seed=0), ScriptedBackend())
    paths = harness.export(result, out_dir)
    got = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
           for p in paths.values()}
    got[SCENES] = scenes.hexdigest()
    return got


def test_golden_covers_the_catalog():
    assert sorted(GOLDEN) == sorted(cfg.name for cfg in sc.catalog())
    assert all(set(d) == {"metrics.json", "trajectories.csv", SCENES}
               for d in GOLDEN.values())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_exports_byte_identical(name, tmp_path, monkeypatch):
    assert catalog_digests(name, tmp_path, monkeypatch) == GOLDEN[name]
