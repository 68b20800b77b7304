"""Byte-identity gate: every catalog scenario's exports at seed 0.

The digests in ``golden_digests.json`` are sha256 sums of the
``metrics.json`` and ``trajectories.csv`` that ``harness.export`` writes for
each catalog scenario at seed 0 with the scripted backend. A refactor that
moves any bit of either file fails here; a change that means to move them
must regenerate the digests and say why.
"""
import hashlib
import json
from pathlib import Path

import pytest

from comal import harness
from comal import scenario as sc
from comal.agent import ScriptedBackend

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json")
                    .read_text(encoding="utf-8"))


def test_golden_covers_the_catalog():
    assert sorted(GOLDEN) == sorted(cfg.name for cfg in sc.catalog())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_exports_byte_identical(name, tmp_path):
    result = harness.run(sc.find(name).replace(seed=0), ScriptedBackend())
    harness.export(result, tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in GOLDEN[name]}
    assert got == GOLDEN[name]
