"""The package runs without numpy, which only the tests need, and without
dataclasses: its records are namedtuples."""

import subprocess
import sys
from pathlib import Path

PERES33 = Path(__file__).parent / "data" / "peres33.txt"

# the console-script commands that CI runs in an install without extras
CONSOLE_ARGVS = [
    ["verdict", "--p", "2", "--q", "5"],
    ["verdict", "--p", "1", "--q", "3"],
    ["verdict", "--p", "1", "--q", "4"],
    ["verdict", "--p", "50000", "--q", "199999"],
    ["verdict", "--theta", "0.9", "--q-max", "100"],
    ["oracle", "--p", "10", "--q", "21"],
    ["quantum-check", "--samples", "200", "--seed", "42"],
    ["quantum-check", "--samples", "100000", "--seed", "1"],
    ["scan", "--q-max", "300"],
    ["scan", "--q-max", "300", "--format", "json"],
    ["discontinuity", "--p", "3", "--q", "7", "--epsilon", "0.0006283185307179586",
     "--q-max", "100000"],
    ["ks-color", str(PERES33)],
]


def test_console_commands_run_without_numpy_or_dataclasses():
    # a None entry in sys.modules makes every import of that name raise ImportError
    code = ("import sys; sys.modules['numpy'] = sys.modules['dataclasses'] = None\n"
            "from contextant.cli import main\n"
            f"print([main(argv) for argv in {CONSOLE_ARGVS!r}], file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, f"{[0] * len(CONSOLE_ARGVS)}\n")
