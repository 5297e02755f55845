"""Golden CLI outputs: exit code and sha256 of stdout, pinned per command.

Each command runs in a fresh interpreter, as a user runs it, so the pins
also cover `python -m qslice.cli` start-up and the process exit code.
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
     "a53c50672aaec0ddc1c2d9f1959fba5a820cea90d06d18316e2b6ea9575aceba"),
    ("orbit-tree --q algebraic:1,-2,-1,1:3/2:19/10 --y 2/5 --depth 8", 0,
     "d143762ac297213871875bd918bca4683fd8b45f2758f1facdc6fba26107819c"),
    ("orbit-tree --q algebraic:-1,-2,2:1:2 --y 1/3 --depth 8", 0,
     "c7de429682eb4d3530a75d7e9d76d29355f73fe9986351e99a10684bab23ed87"),
    ("dimension --q bonacci:3 --y 1/3 --method box --levels 4", 0,
     "a5f5c41cec0f11f01d3d7a82f9a3d1bd9fd381596e34c5689e57cf587c3a6942"),
    # the mass route: refinement tree built, then validated edge by edge
    ("dimension --q 3/2 --y 1/3 --method mass", 0,
     "dfba41b4029b9f4d1ea182ca15b846760150e09ca482f2e29005c3973360a856"),
    ("dimension --q 7/5 --y 1/2 --method mass --levels 4", 0,
     "a0aff641068bf056e1960a96c6a9f517e7200091f9d07ce7084d92a765298d48"),
    ("dimension --q algebraic:-1,-2,2:1:2 --y 1/3 --method mass --levels 4", 0,
     "08546450220533fd6c154a187d68028bb788e988350bb48debe7dfda1fea4bfa"),
    # the certificate's height is the slice height y = x(q-1)
    ("bonacci verify --k 4 --m 2", 0,
     "79984f6301bb731e80c9b8c14ba013e289ed9b91c54d81c1e85eb67f9f1c3fee"),
    ("bonacci null --k 5 --depth 40", 0,
     "985c08bebca38ef15828b962123542e7f1ae2bf0e6171b8cd86812c7a2e8aef3"),
    # certified by its exact cycle alone: 1 = 11(0110)^oo is not 2-run-limited
    # and q lies below the 3-bonacci root, so the route names no lemma
    ("bonacci c2 --q algebraic:1,-1,-1,1,-2,1:101/100:199/100", 0,
     "07f6f58f7e4a07df3d7f990ea72254f9025b8399e304b6c9fef4ef4c63327112"),
    ("slice --q 3/2 --y 1/2 --depth 12 --oracle", 0,
     "f362003340c046c1aa3931593eb1fcfb86a67bedb7a577164a171b880d1bb979"),
    # 35 boxes for 34 cylinders: the cross-check accepts a corner spelling
    ("slice --q 5/3 --y 3/5 --depth 12 --oracle", 0,
     "e4e103b8c373f1ec473c6e81c91b64bb9c0442017eae08e8d86350a4fc89761c"),
    # three separated cylinders whose probes certify nothing: AtLeastN(3)
    ("slice --q bonacci:4 --y 3/7 --depth 16 --oracle", 2,
     "1f18d4a091e26d4097b6da162d5bf9b985943695116e4f0295721cc0666a4b9e"),
    ("slice --q algebraic:1,-2,-1,1:3/2:19/10 --y 2/5 --depth 16 --oracle", 0,
     "31a6e32b4bb05c29bd73eb8875ef39a5809f1f7146522d0d6e85424c666aee57"),
    # lead 2 and p_0 = -3: the walk's times_q step carries lead and the
    # oracle's over_q step |p_0|, so a scaling fault shows here
    ("slice --q algebraic:-3,-2,2:1:2 --y 1/3 --depth 10 --oracle", 2,
     "ad19cae37b271a0f602f0f179e3146766853ee619ba0969e1d3693709fd34ede"),
    # exit 0 rests on the verified certificate; the witness height reads
    # AtLeastN(3), three separated cylinders with uncertified probes
    ("certify-slice3 --q bonacci:10 --depth 30 --level 12", 0,
     "617ffd037bcea7faeb642be635f4d9ddfb3ac05504614e491a93fa1a7716cacf"),
    # one height, decided once: its middle orbit's probe finds a branch,
    # so the walk proves only three separated groups, AtLeastN(3)
    ("certify-slice3 --q bonacci:10 --depth 48 --level 12", 0,
     "8d2c39b939c11a19cf01f6a69b60fbe34a8462a728de4e73c1456938c2521467"),
    ("certify-slice3 --q 19/10 --depth 30 --level 12", 2,
     "6b4a4193bea98e2ae147483f65e7cba8bbee451ba79f6776254d367b086d0a31"),
    ("certify-slice3 --q bonacci:12 --depth 30 --level 20", 0,
     "224dfbd8fe2f0c3786dc23286d8829cfbca36e22ba4cb746d1367382dad81281"),
    # the default --level: 27 aq checks, one triple per free position,
    # stand for the 511 gaps below it
    ("certify-slice3 --q 1999/1000 --depth 48 --level 40", 0,
     "304fc7b99c79aad5245f17c961ffd347611943ffc253c8da4d793bf2b7b043df"),
    # one line per gap law: a law per free position (aq) or per state (sk)
    ("thickness --q bonacci:12 --set aq --level 30", 0,
     "36de0cca75e1a1b60ed71f4f45847c11ba69dddcdaf0523a83f5c3de6be5e6d6"),
    ("thickness --q bonacci:10 --set sk:9 --level 10", 0,
     "02a9f7bb34de12db50d442dfd812e2754cad70186d4db90a17cd6b5c405fd85a"),
    # per-state laws of the scaled family, mapped by x -> 1 + (2 - q) x, and
    # of a short run bound
    ("thickness --q 1999/1000 --set scaled-sk:9 --level 8", 0,
     "d81acf3242fb01aebcd17f06804cdda2270e03ae729608804a499528adf3a7cc"),
    ("thickness --q 19/10 --set sk:3 --level 9", 0,
     "4178d7342a8d3d3cbe13b9e88d309bed53ff3aecc6de4d0dc5569264239da25e"),
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


def test_degree_five_golden_without_sympy():
    # the literal's polynomial is factored in-house, so the command prints
    # its pinned bytes with sympy unimportable
    command = "bonacci c2 --q algebraic:1,-1,-1,1,-2,1:101/100:199/100"
    [(code, digest)] = [(c, d) for g, c, d in GOLDEN if g == command]
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); sys.modules['sympy'] = None\n"
        "from qslice.cli import run\n"
        f"sys.exit(run({command.split()!r}))"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
    assert (out.returncode, hashlib.sha256(out.stdout).hexdigest()) == (code, digest)
