"""A sequential run imports only what it uses.

`import padichg.cli` must not load the process pool (imported by `cli.run`
only when it starts one) or `dataclasses` and the `inspect` it pulls in.
The check runs in a fresh interpreter and compares `sys.modules` before and
after the import, so modules that site packages preload do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")

PROBE = """
import json, sys
before = set(sys.modules)
import padichg.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_pool_or_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "padichg.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []
