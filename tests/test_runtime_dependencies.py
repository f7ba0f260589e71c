"""The runtime imports numpy only; scipy is the tests' oracle."""

import os
import pathlib
import subprocess
import sys

import stochheat

PACKAGE = pathlib.Path(stochheat.__file__).parent


def test_cli_import_loads_no_scipy():
    # in a fresh interpreter: this suite's own oracles import scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, stochheat.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_package_source_never_names_scipy():
    named = [path.name for path in sorted(PACKAGE.rglob("*.py"))
             if "scipy" in path.read_text(encoding="utf-8")]
    assert named == []
