"""What a fresh interpreter imports: ``classify``, ``plot`` and the bare
package load no numpy, and every public name still resolves.

These run as child processes because pytest has loaded numpy already, so
an in-process check could not see an eager import.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import schurvar

SRC = str(Path(schurvar.__file__).resolve().parents[1])


def run_child(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter with this checkout's package first
    on ``PYTHONPATH``; it prints one JSON object as its last line."""
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


MAIN = """
import contextlib, io, json, sys
from schurvar import cli

err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "err": err.getvalue(), "numpy": "numpy" in sys.modules}}))
"""


@pytest.fixture
def files(tmp_path):
    data = {"coefficients": [[0.0, 0.0], [0.5, 0.0]], "domain": "half-plane"}
    (tmp_path / "data.json").write_text(json.dumps(data))
    (tmp_path / "label.json").write_text(json.dumps({**data, "domain": 5}))
    (tmp_path / "curve.csv").write_text(
        "theta,re,im\n0,0.0,0.0\n1,1.0,0.0\n2,0.0,1.0\n"
        '# {"convexity_defect": 0.5, "interior_witness": [0.25, 0.25]}\n'
    )
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--input", "data.json", "--output", "out.json"],
        ["plot", "--input", "curve.csv", "--output", "curve.svg"],
    ],
    ids=["classify", "plot"],
)
def test_classify_and_plot_do_not_import_numpy(files, argv):
    got = run_child(MAIN.format(argv=argv), files)
    assert got == {"code": 0, "err": "", "numpy": False}
    assert (files / argv[-1]).read_text()


def test_classify_refuses_a_non_string_label_without_numpy(files):
    got = run_child(MAIN.format(argv=["classify", "--input", "label.json"]), files)
    assert got["code"] == 2
    assert got["err"].startswith("invalid input:") and got["err"].count("\n") == 1
    assert got["numpy"] is False


def test_importing_the_package_does_not_import_numpy(tmp_path):
    got = run_child(
        'import json, sys, schurvar; print(json.dumps("numpy" in sys.modules))', tmp_path
    )
    assert got is False


def test_every_public_name_resolves_in_a_fresh_process(tmp_path):
    got = run_child(
        """
        import json, types
        import schurvar
        import schurvar.cli

        modules = ("schur", "polynomials", "domains", "quadrature", "regions")
        print(json.dumps({
            "all": len(schurvar.__all__),
            "missing": [n for n in schurvar.__all__ if not hasattr(schurvar, n)],
            "modules": [isinstance(getattr(schurvar, m), types.ModuleType) for m in modules],
            "unlisted": sorted(set(schurvar.__all__) - set(dir(schurvar))),
        }))
        """,
        tmp_path,
    )
    assert got == {"all": 34, "missing": [], "modules": [True] * 5, "unlisted": []}
