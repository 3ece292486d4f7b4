"""Golden atlas: every small graph must export the recorded bytes."""

import json

import pytest

from record_atlas import ATLAS, CASES, digests, key


def test_atlas_covers_every_case():
    atlas = json.loads(ATLAS.read_text(encoding="utf-8"))
    assert sorted(atlas) == sorted(key(m, n) for m, n in CASES)
    assert len(CASES) == 152


def test_atlas_exports_unchanged():
    atlas = json.loads(ATLAS.read_text(encoding="utf-8"))
    changed = [key(m, n) for m, n in CASES if digests(m, n) != atlas[key(m, n)]]
    assert changed == []


# graphs past the atlas whose masks hold many divisor bits, one per divisor
# of m below m: 29 for G(720,4) (966 vertices, 2706 edges), 59 for
# G(5040,3) (360, 1552), 11 for G(60,6) (79, 112) and 15 for G(120,4)
# (129, 221); recorded like the atlas
PINNED = {
    (720, 4): (
        "ed75814af58f43b5485ad1939ea71121d3445c7af273a4ac1bbedc1b5d556411",
        "43ed68187683c752a8a537723cca30c3019ce4f292b759239b6bf95477003bb2",
    ),
    (5040, 3): (
        "6e9c7947123803291d6a74292955f4aeb45ce1d026836e6b861e3e518a14fc2f",
        "1acbce2d5481ed229cbd0d71633902307c1f4ccf45f426dd521d9618766c8962",
    ),
    (60, 6): (
        "d86b340fdfa0bdd88f7201a1b9fe1d34a03e32f8ad7ef59bb69512b6bf26c5f1",
        "16e42928055d563f273e67379cdef0683eb88a85f36219ae2961d937bc8f62fd",
    ),
    (120, 4): (
        "16c21a86c8361e9154abe0bbf91adb0f21a3209d4413c78464b4c01bfd4b7234",
        "d179446ece51363c4bdfae62484510bb10620e0b96b35fb678f7777b18015358",
    ),
}


@pytest.mark.parametrize("m, n", sorted(PINNED))
def test_many_bit_graphs_export_the_pinned_bytes(m, n):
    json_sha, dot_sha = PINNED[m, n]
    assert digests(m, n) == {"json": json_sha, "dot": dot_sha}
