"""The package's public names, and which parts of scipy each entry point loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabi2q

# what the exact stage loads of scipy: its LAPACK and BLAS extension modules
LAPACK = {"scipy.linalg._fblas", "scipy.linalg._flapack"}


def run_fresh(code: str, *args: str) -> str:
    """The last line a fresh interpreter prints running ``code`` (with ``args``
    as ``sys.argv[1:]``), with the package importable."""
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def scipy_loaded_by(code: str, *args: str) -> set[str]:
    """The scipy modules a fresh interpreter holds after running ``code``
    (with ``args`` as ``sys.argv[1:]``)."""
    probe = f"{code}\nimport sys\nprint([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    return set(ast.literal_eval(run_fresh(probe, *args)))


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
    """Each command loads only what it runs, and no scipy package module:
    scipy's LAPACK and BLAS extension modules with the exact stage, and with
    find-zero also scipy.optimize's ``_zeros``, for its Brent search.  Every
    warning is an error in the commands' probe, as under ``python -W error``:
    a numpy or scipy deprecation raised while those modules load, or in the
    solve, fails the command."""

    @pytest.mark.parametrize("module", ["rabi2q", "rabi2q.cli"])
    def test_import_loads_no_scipy(self, module):
        assert scipy_loaded_by(f"import {module}") == set()

    def test_exact_on_first_access(self):
        assert scipy_loaded_by("import rabi2q; rabi2q.ground_state") == LAPACK

    @pytest.mark.parametrize(
        "argv,loaded",
        [(["variational", "--g", "0.6"], set()),
         (["transform", "--g", "0.6"], set()),
         (["sweep", "--steps", "5", "--methods", "variational,transform,corrected",
           "--outputs", "energy,alpha,beta,negativity_approx"], set()),
         (["ground", "--g", "0.4"], LAPACK),
         # at omega_c = 1e-10 the odd-sector gap is 2e-10: inverse iteration
         # shifts by 1e-5 of it, and must resolve the decoupled state
         (["ground", "--omega-c", "1e-10", "--g", "0"], LAPACK),
         (["ground", "--g", "1e-320"], LAPACK),
         (["table1"], LAPACK),
         (["find-zero"], LAPACK | {"scipy.optimize._zeros"})],
        ids=lambda v: " ".join(v) if isinstance(v, list)
        else "+".join(["lapack", *sorted(v - LAPACK)]) if v else "no scipy",
    )  # fmt: skip
    def test_command_loads_what_it_runs(self, argv, loaded):
        code = (
            "import sys, warnings\nwarnings.simplefilter('error')\n"
            "from rabi2q.cli import main\nassert main(sys.argv[1:]) == 0"
        )
        assert scipy_loaded_by(code, *argv) == loaded


# The exact stage's results on one point and on the 241 rows of the paper's
# window, bit for bit, and the scipy modules loaded on the way.
_RESULTS = """
import hashlib, json, sys
import numpy as np
from rabi2q import ModelParams, exact
one = exact.ground_state(ModelParams(1.0, 1.0, 0.4))
chunks = list(exact.ground_state_chunks(1.0, 1.0, np.linspace(0.0, 1.2, 241).tolist(), 1e-10))
values = [(name, [float(x).hex() for c in chunks for x in getattr(c, name)])
          for name in ("energy", "residual", "n_max", "convergence_gap", "odd_excited")]
vectors = [c.vectors.tobytes() for c in chunks] + [one.state.coefficients.tobytes()]
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "one": [float(one.energy).hex(), float(one.residual).hex()],
    "chunks": values,
    "vectors": hashlib.sha256(b"".join(vectors)).hexdigest(),
}))
"""
# Run before _RESULTS or _FIND_ZERO: the lookup of scipy's package directory
# finds nothing, as where scipy is installed with its extensions in a build
# directory
_NO_FILE = """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *rest: None if name == "scipy" else find_spec(name, *rest)
"""
# Run before _RESULTS or _FIND_ZERO: the files are found but do not load on
# their own (a shared library they need is put on the search path by scipy's
# package code), which holds for the extension module of any scipy subpackage
# not yet imported
_NO_LOAD = """
import importlib.machinery, sys
create = importlib.machinery.ExtensionFileLoader.create_module
def create_in_package(loader, spec):
    package = spec.name.rpartition(".")[0]
    if package.startswith("scipy.") and package not in sys.modules:
        raise ImportError(f"{spec.name} needs scipy's package code")
    return create(loader, spec)
importlib.machinery.ExtensionFileLoader.create_module = create_in_package
"""


class TestLapackBinding:
    """``exact`` loads scipy's LAPACK and BLAS extension modules from their
    files, and takes them from ``import scipy.linalg`` where it cannot: the
    same routines, so the same bits, either way."""

    @pytest.fixture(scope="class")
    def direct(self):
        return json.loads(run_fresh(_RESULTS))

    def test_direct_path_loads_no_scipy_package_module(self, direct):
        assert set(direct["scipy"]) == LAPACK

    @pytest.mark.parametrize("miss", [_NO_FILE, _NO_LOAD], ids=["no file", "file does not load"])
    def test_fallback_takes_scipy_linalgs_modules_to_the_same_bits(self, direct, miss):
        fallback = json.loads(run_fresh(miss + _RESULTS))
        assert {"scipy", "scipy.linalg", *LAPACK} <= set(fallback["scipy"])
        assert {**fallback, "scipy": None} == {**direct, "scipy": None}

    def test_later_import_binds_the_same_routines(self):
        code = """
import sys
import numpy as np
from rabi2q import exact
assert "scipy.linalg" not in sys.modules
import scipy.linalg
from scipy.linalg import _fblas, _flapack
lapack = scipy.linalg.get_lapack_funcs(("sbevx", "pbtrf", "pbtrs"), dtype=np.float64)
later = (_flapack, _fblas, *lapack, scipy.linalg.get_blas_funcs("sbmv", dtype=np.float64))
bound = (exact._flapack, exact._fblas, exact._SBEVX, exact._PBTRF, exact._PBTRS, exact._SBMV)
print(all(a is b for a, b in zip(later, bound, strict=True)),
      scipy.linalg.get_lapack_funcs("sbevx", dtype=np.float64) is exact._SBEVX,
      2.0 * scipy.linalg.lapack.dlamch("s") == exact._ABSTOL)
"""
        assert run_fresh(code) == "True True True"


# find-zero's stdout, and the scipy modules loaded on the way
_FIND_ZERO = """
import contextlib, io, json, sys
from rabi2q.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["find-zero"]) == 0
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "stdout": out.getvalue(),
}))
"""


class TestZerosBinding:
    """``exact.brentq`` loads scipy.optimize's ``_zeros`` from its file, and
    takes it from ``import scipy.optimize`` where it cannot: the same Brent
    search, so the same find-zero output, either way."""

    @pytest.fixture(scope="class")
    def direct(self):
        return json.loads(run_fresh(_FIND_ZERO))

    @pytest.mark.parametrize("miss", [_NO_FILE, _NO_LOAD], ids=["no file", "file does not load"])
    def test_fallback_takes_scipy_optimizes_module_to_the_same_output(self, direct, miss):
        fallback = json.loads(run_fresh(miss + _FIND_ZERO))
        assert {"scipy", "scipy.optimize", "scipy.optimize._zeros"} <= set(fallback["scipy"])
        assert fallback["stdout"] == direct["stdout"]
