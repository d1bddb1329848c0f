"""The package runs without numpy, which only the tests need, and without
dataclasses: its records are namedtuples.  Every golden output of
test_golden is reproduced with both imports blocked, so the list of
commands checked here is read from its tables and cannot drift from them."""

import hashlib
import json
import subprocess
import sys

from contextant.cli import QUANTUM_SAMPLES_MAX

from test_golden import (
    CASES,
    KS_CASES,
    PERES33,
    QUANTUM_CHECK_CAP_SHA256,
    golden,
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EMPTY = sha256(b"")


def expected_runs():
    """name -> (argv, exit code, stdout sha256, stderr sha256)."""
    runs = {}
    for name, (argv, code, stream) in CASES.items():
        digest = sha256(golden(name, stream))
        runs[name] = (argv, code, *((digest, EMPTY) if stream == "out"
                                    else (EMPTY, digest)))
    # the full Peres-33 case reads the data file as it is
    name = "ks_color_peres33_strict"
    assert KS_CASES[name] == (range(33), "strict")
    runs[name] = (["ks-color", str(PERES33)], 0, sha256(golden(name, "out")), EMPTY)
    runs["quantum_check_cap"] = (
        ["quantum-check", "--samples", str(QUANTUM_SAMPLES_MAX), "--seed", "1"],
        0, QUANTUM_CHECK_CAP_SHA256, EMPTY)
    return runs


# runs each argv in one process and prints [exit code, stdout sha256,
# stderr sha256] per argv as a JSON list; a None entry in sys.modules makes
# every import of that name raise ImportError
CHILD = """\
import contextlib, hashlib, io, json, sys
sys.modules['numpy'] = sys.modules['dataclasses'] = None
from contextant.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code] + [hashlib.sha256(s.getvalue().encode('utf-8')).hexdigest()
                             for s in (out, err)])
print(json.dumps(results))
"""


def test_console_commands_run_without_numpy_or_dataclasses():
    runs = expected_runs()
    argvs = [argv for argv, *_ in runs.values()]
    r = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    got = dict(zip(runs, map(tuple, json.loads(r.stdout))))
    assert got == {name: tuple(want) for name, (_, *want) in runs.items()}
