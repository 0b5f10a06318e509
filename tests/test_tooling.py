"""Checks around the package: its scripts and import-time behaviour, each
run in a fresh interpreter on the source tree, the imports of its modules,
and the arguments its API no longer takes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etafit import analysis, estimation
from etafit.design import BasisSpec, DesignMatrix, build_design
from etafit.kernels import (CorrelationKernel, CorrelationMatrix,
                            correlation_matrix)
from etafit.model import GpModel, Solver
from etafit.traces import (ExactTraceProvider, HutchinsonTraceProvider,
                           fit_tau_interpolant, trace_inv_hutchinson)

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          **kwargs)


def test_reference_workflow_script_writes_its_artifacts(tmp_path):
    out = tmp_path / "reference"
    done = run_python([str(ROOT / "scripts" / "reproduce_reference.py"),
                       "--n", "144", "--out-dir", str(out)])
    assert done.returncode == 0, done.stderr
    for name in ("data.csv", "report.json", "table1.csv", "curve.csv",
                 "trace_interp.json"):
        assert (out / name).stat().st_size > 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "profiled_eta"
    assert report["hyperparams"]["sigma02"] > 0


# the public scipy subpackages ``import etafit`` may load; each one more
# (scipy.optimize, for one) adds to the import time of every run
SCIPY_SUBPACKAGES = {"constants", "linalg", "sparse", "spatial", "special"}


def test_import_does_not_load_scipy_optimize():
    done = run_python(["-c", "import json, sys, etafit; print(json.dumps(["
                             "name for name, module in sys.modules.items() "
                             "if name.startswith('scipy.') "
                             "and hasattr(module, '__path__')]))"])
    assert done.returncode == 0, done.stderr
    loaded = {name.split(".")[1] for name in json.loads(done.stdout)}
    assert {name for name in loaded if not name.startswith("_")} \
        <= SCIPY_SUBPACKAGES


def imported_names(tree):
    """The names a module's imports bind, ``from __future__`` excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def package_imports(path):
    """The etafit modules a module imports from, by their short names."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules.update([node.module] if node.module
                           else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) \
                and node.module.startswith("etafit."):
            modules.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[1] for alias in node.names
                           if alias.name.startswith("etafit."))
    return modules


def test_trace_layer_reads_no_correlation_matrix():
    # traces sum a spectrum or read Gram matrices a backend hands them;
    # neither K nor the backends that hold it are theirs to import
    traces = ROOT / "src" / "etafit" / "traces.py"
    assert package_imports(traces) == {"errors"}


def test_modules_use_every_name_they_import():
    unused = {}
    for path in sorted((ROOT / "src" / "etafit").glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        names = [name for name in imported_names(tree) if name not in used]
        if names:
            unused[path.name] = names
    assert not unused


def dotted(node):
    """"a.b.c" for a Name/Attribute chain, None for anything else."""
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def sparse_linalg_names(tree):
    """The ``scipy.sparse.linalg`` names a module uses, by from-import or
    by attribute on whatever name its imports bind to a scipy package."""
    target = "scipy.sparse.linalg"
    aliases = {}  # bound name -> the dotted module it stands for
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if node.module == target:
                    names.add(alias.name)
                elif (target + ".").startswith(full + "."):
                    aliases[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        chain = dotted(node) if isinstance(node, ast.Attribute) else None
        if chain:
            head, _, rest = chain.partition(".")
            full = f"{aliases.get(head, head)}.{rest}"
            if full.startswith(target + "."):
                names.add(full[len(target) + 1:].split(".")[0])
    return names


def test_sparse_linalg_use_is_superlu_only():
    # sparse K has one factorization, SuperLU; its spectrum bounds come
    # from the probe Lanczos run, not from an eigensolver or an operator
    used = set()
    for path in sorted((ROOT / "src" / "etafit").glob("*.py")):
        used |= sparse_linalg_names(ast.parse(path.read_text()))
    assert used == {"splu"}


def test_design_is_factored_by_the_model_alone():
    # X is factored once per model, by the thin SVD in GpModel; no module
    # solves least squares, takes a determinant of X'X or Cholesky-factors
    # it, and the asymptotes read the model's basis, not scipy.linalg
    banned = {"lstsq", "slogdet", "cho_factor", "cho_solve"}
    found = {}
    for path in sorted((ROOT / "src" / "etafit").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {(dotted(node.func) or "").rpartition(".")[2]
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        if names & banned:
            found[path.name] = sorted(names & banned)
    assert found == {}
    analysis = ast.parse((ROOT / "src" / "etafit" / "analysis.py").read_text())
    modules = {alias.name for node in ast.walk(analysis)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(analysis)
                if isinstance(node, ast.ImportFrom) and node.module}
    assert not any(name.startswith("scipy") for name in modules)


def test_design_entries_are_read_by_the_model_alone():
    # how X is factored has one owner: GpModel reads X.entries and keeps
    # its basis; every other module works on that basis
    readers = sorted(
        path.name for path in (ROOT / "src" / "etafit").glob("*.py")
        if any((dotted(node) or "").split(".")[-2:] == ["X", "entries"]
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)))
    assert readers == ["model.py"]


def test_thread_policy_lives_in_model_without_environment_settings():
    # OpenBLAS reads its environment once, when it loads, so no module
    # touches the environment; the thread count of block Lanczos is set
    # through ctypes in model.py alone
    touches_environ, imports_ctypes = [], []
    for path in sorted((ROOT / "src" / "etafit").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set(imported_names(tree))
        if names & {"environ", "putenv"} or any(
                dotted(node) in ("os.environ", "os.putenv")
                for node in ast.walk(tree) if isinstance(node, ast.Attribute)):
            touches_environ.append(path.name)
        if "ctypes" in names:
            imports_ctypes.append(path.name)
    assert touches_environ == []
    assert imports_ctypes == ["model.py"]


def cache_uses(tree):
    """Where a module uses ``functools.cache`` or ``functools.lru_cache``:
    the name of each function they decorate, or the line of any other
    use."""
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in ("cache", "lru_cache")}
    refs = {node for node in ast.walk(tree)
            if dotted(node) in ("functools.cache", "functools.lru_cache")
            or (isinstance(node, ast.Name) and node.id in bound)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = (decorator.func if isinstance(decorator, ast.Call)
                          else decorator)
                if target in refs:
                    refs.discard(target)
                    uses.append(node.name)
    return uses + [f"line {node.lineno}" for node in refs]


def test_no_unbounded_cache_beside_the_distance_memo():
    # a functools cache keeps every argument and result for the life of
    # the process; array data is memoized only by the one-entry distance
    # memo of kernels, and only the OpenBLAS lookup is cached
    found = {}
    for path in sorted((ROOT / "src" / "etafit").glob("*.py")):
        if uses := cache_uses(ast.parse(path.read_text())):
            found[path.stem] = uses
    assert found == {"model": ["_openblas_thread_controls"]}


# calls that pass a value which is now derived from another input or is a
# constant; each takes a small model (``removed_argument_model``)
REMOVED_ARGUMENTS = {
    "CorrelationMatrix_storage_n": lambda model: CorrelationMatrix(
        model.K.entries, "dense", model.n),
    "CorrelationMatrix_positional_duplicates": lambda model: CorrelationMatrix(
        model.K.entries, False),
    "CorrelationMatrix_diagnostics": lambda model: CorrelationMatrix(
        model.K.entries, diagnostics={}),
    "DesignMatrix_m": lambda model: DesignMatrix(model.X.entries, model.m),
    "asymptote_large_n_approx": lambda model: analysis.asymptote_coefficients(
        model, True),
    "trace_inv_hutchinson_K": lambda model: trace_inv_hutchinson(
        1.0, Solver(model.K), 2, K=model.K),
    "HutchinsonTraceProvider_K": lambda model: HutchinsonTraceProvider(
        model.K, Solver(model.K), 2, 0),
    "EstimateConfig_eta_tol": lambda model: estimation.EstimateConfig(
        eta_tol=1e-8),
    "uniform_priors_nu_cap": lambda model: estimation.uniform_priors(30.0),
    "estimate_variances_solver": lambda model: estimation.estimate_variances(
        model, solver=Solver(model.K)),
    "direct_variances_solver": lambda model: estimation.direct_variances(
        model, solver=Solver(model.K)),
    "ExactTraceProvider_K": lambda model: ExactTraceProvider(
        model.K, Solver(model.K).eigvals),
    "fit_tau_interpolant_K": lambda model: fit_tau_interpolant(
        model.K, (1.0,), ExactTraceProvider(Solver(model.K).eigvals)),
}


def removed_argument_model():
    points = np.random.default_rng(0).uniform(size=(12, 2))
    K = correlation_matrix(points, CorrelationKernel("exponential", 0.2))
    X = build_design(points, BasisSpec("polynomial", 1))
    return GpModel(np.sin(4.0 * points[:, 0]), X, K, points)


@pytest.mark.parametrize("name", sorted(REMOVED_ARGUMENTS))
def test_removed_arguments_raise_type_error(name):
    model = removed_argument_model()
    with pytest.raises(TypeError):
        REMOVED_ARGUMENTS[name](model)
