"""The package's public names, and which parts of scipy each entry point loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabi2q

SCIPY_PARTS = ("scipy.linalg", "scipy.optimize")


def scipy_loaded_by(code: str, *args: str) -> set[str]:
    """The parts of scipy a fresh interpreter holds after running ``code``
    (with ``args`` as ``sys.argv[1:]``)."""
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = f"{code}\nimport sys\nprint(sorted(set({SCIPY_PARTS!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


class TestPublicNames:
    def test_every_name_resolves(self):
        for name in rabi2q.__all__:
            assert getattr(rabi2q, name) is not None, name

    def test_exact_is_the_submodule(self):
        assert rabi2q.exact is sys.modules["rabi2q.exact"]
        assert rabi2q.ground_state is rabi2q.exact.ground_state
        assert rabi2q.GroundStateResult is rabi2q.exact.GroundStateResult

    def test_star_import(self):
        namespace = {}
        exec("from rabi2q import *", namespace)
        assert set(rabi2q.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            rabi2q.no_such_name
        assert not hasattr(rabi2q, "no_such_name")
        with pytest.raises(ImportError):
            exec("from rabi2q import no_such_name", {})


class TestImports:
    """Each command loads only what it runs: scipy.linalg with the exact
    stage, scipy.optimize with find-zero."""

    @pytest.mark.parametrize("module", ["rabi2q", "rabi2q.cli"])
    def test_import_loads_no_scipy(self, module):
        assert scipy_loaded_by(f"import {module}") == set()

    def test_exact_on_first_access(self):
        assert scipy_loaded_by("import rabi2q; rabi2q.ground_state") == {"scipy.linalg"}

    @pytest.mark.parametrize(
        "argv,loaded",
        [(["variational", "--g", "0.6"], set()),
         (["transform", "--g", "0.6"], set()),
         (["sweep", "--steps", "5", "--methods", "variational,transform,corrected",
           "--outputs", "energy,alpha,beta,negativity_approx"], set()),
         (["ground", "--g", "0.4"], {"scipy.linalg"}),
         (["table1"], {"scipy.linalg"}),
         (["find-zero"], {"scipy.linalg", "scipy.optimize"})],
        ids=lambda v: " ".join(v) if isinstance(v, list) else ",".join(sorted(v)) or "no scipy",
    )  # fmt: skip
    def test_command_loads_what_it_runs(self, argv, loaded):
        code = "import sys\nfrom rabi2q.cli import main\nassert main(sys.argv[1:]) == 0"
        assert scipy_loaded_by(code, *argv) == loaded
