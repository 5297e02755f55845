"""Golden CLI outputs: exit code and sha256 of stdout, pinned per command.

Each command runs in a fresh interpreter. bonacci_root caches its roots, so
in one process the intervals refined by one command would carry over into
the next and could change the bounds it prints.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN = [
    ("orbit-tree --q 3/2 --y 1/6 --depth 10", 0,
     "c69030c098d9557abd6781db34a7e28ea55fd9cee5c54b5c9e7f427670af665b"),
    ("orbit-tree --q 5/3 --y 3/8 --depth 400", 0,
     "fbe3229857b3b8b24e3423463b18ce5a4536adb6f32ceef835379093936cc439"),
    ("orbit-tree --q bonacci:3 --y 1/3 --depth 10", 0,
     "8f6071421336258cd62978cfd396adf5da691ffd1dcdfc766f00e467c495a922"),
    ("orbit-tree --q algebraic:1,-2,-1,1:3/2:19/10 --y 2/5 --depth 8", 0,
     "cfb6575d6028933d688631844c4eea0fbc00581cc803f85826bdb973bb7bd413"),
    ("dimension --q bonacci:3 --y 1/3 --method box --levels 4", 0,
     "095e94dd218a4dacfcb4a925097efc7fbddb2ad2db4eb41da7553e1464480da3"),
    ("bonacci verify --k 4 --m 2", 0,
     "a2e767b6aca4756c10ff1d1b2c5de90b7ba53689a07e882b2061c8bbdb8b1cf3"),
    ("bonacci null --k 5 --depth 40", 0,
     "d211a04535a19d6b7fa831068d3d4bfada899e4e2eb79d15e9bb4a6a62e8d9e2"),
    ("slice --q 3/2 --y 1/2 --depth 12 --oracle", 0,
     "f362003340c046c1aa3931593eb1fcfb86a67bedb7a577164a171b880d1bb979"),
    ("certify-slice3 --q bonacci:10 --depth 30 --level 12", 0,
     "b2ecc19b218ee225d7cd7af5e4b796dbc43de7b09e91e5a5d19feeed4f76cebb"),
    ("certify-slice3 --q 19/10 --depth 30 --level 12", 2,
     "6b4a4193bea98e2ae147483f65e7cba8bbee451ba79f6776254d367b086d0a31"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_matches_golden(command, code, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "qslice.cli", *command.split()],
        capture_output=True, env=env, timeout=120,
    )
    assert (out.returncode, hashlib.sha256(out.stdout).hexdigest()) == (code, digest)
