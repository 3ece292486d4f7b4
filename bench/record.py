"""Record the expected outputs of the fixed benchmark cases.

    python3 bench/record.py

Runs every fixed case (the setup probe, the ``graph`` cases and the
``verify`` cases) once, untraced, and writes its exit code, stdout sha256
and, for graphs, the sha256 of both exports and |V| and |E| to
``expected.json``.  Run it only on a commit whose outputs are known to be
right: the benchmark counts any later difference as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import EXPECTED_FILE, FIXED, OUT, sha256  # noqa: E402
from run import ROOT, TMP_PARENT, child_env  # noqa: E402


def record_case(argv: tuple[str, ...]) -> dict:
    TMP_PARENT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        args = [a.replace(OUT, str(out_dir)) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "fourier_hadamard.cli", *args],
            cwd=ROOT, env=child_env(), capture_output=True, timeout=600,
        )
        entry = {"exit": proc.returncode, "stdout_sha256": sha256(proc.stdout)}
        if "graph" in argv:
            doc_bytes = (out_dir / "g.json").read_bytes()
            doc = json.loads(doc_bytes)
            entry.update(
                json_sha256=sha256(doc_bytes),
                dot_sha256=sha256((out_dir / "g.dot").read_bytes()),
                vertices=len(doc["vertices"]),
                edges=len(doc["edges"]),
            )
        return entry
    finally:
        shutil.rmtree(out_dir)
        if not any(TMP_PARENT.iterdir()):
            TMP_PARENT.rmdir()


def main() -> int:
    expected = {label: record_case(argv) for label, argv in FIXED.items()}
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for label, entry in expected.items():
        print(label, entry["exit"], entry.get("vertices", ""), entry.get("edges", ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
