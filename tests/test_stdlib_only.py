"""tribkit runs on the standard library alone.

CI installs only pytest and hypothesis, so an import of a package that
happens to be installed on a developer's machine would pass there and fail
only in CI.
"""

import os
import subprocess
import sys
from pathlib import Path

import tribkit

# Site ``.pth`` files may load third-party modules at startup, before tribkit
# is imported, so the snapshot is taken after startup.
_SCRIPT = """
import sys
before = set(sys.modules)
import tribkit, tribkit.cli
from tribkit import SeedVector, certify, fast_term, load_corpus, parse
from tribkit.numtext import format_int
hankel = (
    "(T(r)*T(r+2)*T(r+4) - T(r)*T(r+3)^2 - T(r+1)^2*T(r+4)"
    " + 2*T(r+1)*T(r+2)*T(r+3) - T(r+2)^3)*W(s) = -W(s)"
)
assert certify(parse(hankel)).verdict == "verified"
assert load_corpus()
format_int(fast_term(SeedVector(0, 0, 1), 10**5))
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_package_loads_only_stdlib_modules():
    src = Path(tribkit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = out.split()
    assert "tribkit.certify" in loaded and "decimal" in loaded
    outside = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "tribkit"
    ]
    assert outside == []
