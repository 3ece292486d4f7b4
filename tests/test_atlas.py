"""Golden atlas: every small graph must export the recorded bytes."""

import json

from record_atlas import ATLAS, CASES, digests, key


def test_atlas_covers_every_case():
    atlas = json.loads(ATLAS.read_text(encoding="utf-8"))
    assert sorted(atlas) == sorted(key(m, n) for m, n in CASES)
    assert len(CASES) == 152


def test_atlas_exports_unchanged():
    atlas = json.loads(ATLAS.read_text(encoding="utf-8"))
    changed = [key(m, n) for m, n in CASES if digests(m, n) != atlas[key(m, n)]]
    assert changed == []
