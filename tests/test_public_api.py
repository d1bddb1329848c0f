"""Only quantum-check needs numpy: the other commands load neither numpy
nor the operator module that uses it."""

import subprocess
import sys


def test_cli_import_loads_no_numpy():
    code = ("import sys, contextant.cli; contextant.cli.build_parser(); "
            "print(sorted({'numpy', 'contextant.spin_algebra'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")
