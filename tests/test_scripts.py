"""The example scripts run to completion on small inputs, and the
unreached-line check keeps its exemption list."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("string_demo.py", ["--points", "20", "--grid", "9"]),
    ("convergence_study.py", ["--levels", "9", "17"]),
])
def test_script_exits_0(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_unreached_exemption_list_only_shrinks():
    # scripts/unreached.py accepts the lines on this list as unreached by the
    # suite.  Lower the pin when an entry goes; never raise it.
    spec = importlib.util.spec_from_file_location(
        "unreached", ROOT / "scripts" / "unreached.py")
    unreached = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unreached)
    assert len(unreached.read_exemptions()) == 0
