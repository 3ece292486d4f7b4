"""Record the golden atlas: sha256 of both exports of many small graphs.

    PYTHONPATH=src python3 tests/record_atlas.py

writes ``tests/data/atlas.json``, which ``tests/test_atlas.py`` compares
every rebuild against.  The atlas pins the exact bytes of ``export_json``
and ``export_dot``, witnesses included, for every G(m,n) with m <= 32 and
n <= min(5, m), plus G(36,6) and G(60,5).  Re-record it only for an intended
change of output, and say which change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fourier_hadamard.graphs import build_graph, export_dot, export_json

ATLAS = Path(__file__).resolve().parent / "data" / "atlas.json"

CASES = [(m, n) for m in range(1, 33) for n in range(1, min(5, m) + 1)]
CASES += [(36, 6), (60, 5)]


def key(m: int, n: int) -> str:
    return f"G({m},{n})"


def digests(m: int, n: int) -> dict[str, str]:
    """sha256 of the JSON and DOT exports of G(m,n)."""
    graph = build_graph(m, n)
    return {
        "json": hashlib.sha256(export_json(graph).encode()).hexdigest(),
        "dot": hashlib.sha256(export_dot(graph).encode()).hexdigest(),
    }


def main() -> None:
    atlas = {key(m, n): digests(m, n) for m, n in CASES}
    ATLAS.parent.mkdir(exist_ok=True)
    ATLAS.write_text(json.dumps(atlas, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(atlas)} graphs to {ATLAS}")


if __name__ == "__main__":
    main()
