"""Write the golden outputs that the figures workload compares against.

    python3 perfbench/make_golden.py

Runs the CLI of the `src/` next to this directory and stores its CSV
output in perfbench/golden/.  The committed copies were made at the commit
that added this benchmark; rerun only when a change is meant to alter
printed digits, and say so in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import GOLDEN, GOLDEN_FIGURES, GOLDEN_PRINTS, HERE


def cli(argv: list[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "dicke.cli", *argv], env=env, check=True,
        stdout=subprocess.PIPE, timeout=120,
    ).stdout


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in GOLDEN_PRINTS.items():
        (GOLDEN / name).write_bytes(cli(argv))
    scratch = Path(tempfile.mkdtemp(dir=HERE))
    try:
        cli(["figures", "--out-dir", str(scratch)])
        for name in GOLDEN_FIGURES:
            shutil.copyfile(scratch / name, GOLDEN / name)
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
