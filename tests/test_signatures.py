"""One source per input: no public function that takes a basis or an assembly also
takes the potential, the ensemble or the discretization that object already
carries, and in spectral and hypo only build_basis takes a potential.  One home
per policy: only spectral names the constants of the gap refinement."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re
import typing

import numpy as np
import pytest

import hypokit
from hypokit.model import EnsembleParams, PotentialSpec
from hypokit.spectral import BasisSet, GeneratorAssembly, ReducedGenerator, build_basis, reduced_generator

CARRIERS = (BasisSet, GeneratorAssembly)
CARRIED = {"spec", "params", "beta", "mass", "Kq", "Np", "n_quad"}


def _public_functions():
    for info in pkgutil.iter_modules(hypokit.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"hypokit.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", fn


FUNCTIONS = dict(_public_functions())


def _carries(hint, carriers=CARRIERS) -> bool:
    """The annotation is a carrier, or a union such as `GeneratorAssembly | None` holding one."""
    return hint in carriers or any(_carries(arg, carriers) for arg in typing.get_args(hint))


def test_the_lint_sees_the_solvers():
    assert {"hypokit.hypo.verify_schur_bound", "hypokit.hypo.gamma_scan",
            "hypokit.spectral.semigroup_decay_check", "hypokit.spectral.assemble_generator"} <= set(FUNCTIONS)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_no_function_takes_an_input_twice(name):
    fn = FUNCTIONS[name]
    hints = typing.get_type_hints(fn)
    params = inspect.signature(fn).parameters
    if any(_carries(hints.get(p)) for p in params):
        assert not CARRIED & set(params), f"{name} takes {sorted(CARRIED & set(params))} beside its carrier"


def test_only_build_basis_takes_a_potential():
    # every other solver reads V from the basis; one that takes the potential builds a basis of its own
    takes = []
    for name, fn in FUNCTIONS.items():
        hints = typing.get_type_hints(fn)
        if name.startswith(("hypokit.spectral.", "hypokit.hypo.")) and any(
                _carries(hints.get(p), (PotentialSpec,)) for p in inspect.signature(fn).parameters):
            takes.append(name)
    assert takes == ["hypokit.spectral.build_basis"]


# the refinement policy's constants, roundoff floor, contour (spectral.contour_gap) and the basis
# halving of its rung ladder (spectral.rung_ladder); a module that names one writes out part of the
# policy again, or reaches the contour past the one gap path, spectral.rung_gap (and spectrum's
# convergence check, spectral.refined_gap)
REFINEMENT_POLICY = re.compile(
    r"\w*(CONVERGENCE_RTOL|DENSE_SECTOR_MAX|GAP_ROUNDOFF_MARGIN|gap_roundoff_floor|contour_gap|halved|resized)")


def test_only_spectral_names_the_refinement_policy():
    package = pathlib.Path(hypokit.__file__).parent
    named = {path.stem: set(REFINEMENT_POLICY.findall(path.read_text())) for path in package.glob("*.py")}
    assert named.pop("spectral") == {"CONVERGENCE_RTOL", "DENSE_SECTOR_MAX", "GAP_ROUNDOFF_MARGIN",
                                     "gap_roundoff_floor", "contour_gap", "resized"}
    assert {name: found for name, found in named.items() if found} == {}


def test_no_module_names_scipy_sparse():
    # the resolvent norm, the last sparse solver, runs on the Hermite chain; scipy.sparse costs every
    # process that imports it 20-40 ms and a few MB
    package = pathlib.Path(hypokit.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py")) if "scipy.sparse" in path.read_text()] == []


def _import_time_imports(tree):
    """The modules a module imports when it is imported: every import outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_top_level():
    # each solver that calls SciPy imports it in its own body: at module level scipy.linalg cost every
    # process about 0.3 s, `sample`, `variance` and `ode` included, which call no SciPy
    package = pathlib.Path(hypokit.__file__).parent
    found = {path.name: [m for m in _import_time_imports(ast.parse(path.read_text())) if m.split(".")[0] == "scipy"]
             for path in sorted(package.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}


def _scipy_imports(node, fn=None):
    """(enclosing function or None, import node) for every import of a SciPy module under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(child, child)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in child.names] if isinstance(child, ast.Import) else [child.module or ""]
            if any(name.split(".")[0] == "scipy" for name in names):
                yield fn, child
        else:
            yield from _scipy_imports(child, fn)


def test_scipy_is_confined_to_the_whitening_eigh_and_large_hermite_rules():
    # every other SciPy call has a NumPy form or a closed form.  The whitening keeps scipy.linalg.eigh
    # (LAPACK syevr), which whitens a Gram near the rank cut more accurately than NumPy's syevd, and
    # Gauss-Hermite rules above 370 nodes come from scipy.special
    package = pathlib.Path(hypokit.__file__).parent
    sites = {}
    for path in sorted(package.glob("*.py")):
        for fn, node in _scipy_imports(ast.parse(path.read_text())):
            sites.setdefault(f"{path.stem}.{fn.name if fn else '<module>'}", []).append((fn, node))
    assert sorted(sites) == ["spectral._gauss_hermite", "spectral._whiten"]
    [(fn, node)] = sites["spectral._whiten"]
    assert ast.unparse(node) == "import scipy.linalg as sla"
    uses = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == "sla"]
    attrs = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
             and n.value.id == "sla"}
    assert attrs == {"eigh"} and len(uses) == 1


def test_only_reduced_generator_builds_a_reduced_generator():
    # spectral.reduced_generator is the one place that forms c_t, fd and the deflation from a basis
    package = pathlib.Path(hypokit.__file__).parent
    sites = {path.stem: path.read_text().count("ReducedGenerator(") for path in sorted(package.glob("*.py"))}
    assert {name: n for name, n in sites.items() if n} == {"spectral": 1}
    source = (package / "spectral.py").read_text()
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == "reduced_generator")
    assert "ReducedGenerator(" in ast.get_source_segment(source, fn)


@pytest.mark.parametrize("cls", [BasisSet, ReducedGenerator])
def test_basis_and_generator_hold_no_derived_state(cls):
    # a field the constructor does not set is state filled in later: a cache or memo of derived
    # arrays, which every caller then shares and which needs code to evict it
    assert [f.name for f in dataclasses.fields(cls) if not f.init] == []


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_reduced_generator_holds_nothing_its_basis_holds(cosine_spec):
    # the basis is the one home of wq, q0, the sector labels, beta, m and Np: a generator field that holds
    # one of its fields or property values again is a second source of that value
    basis = build_basis(cosine_spec, EnsembleParams(beta=2.0, mass=0.5), Kq=4, Np=4)
    red = reduced_generator(basis)
    names = [f.name for f in dataclasses.fields(BasisSet)]
    names += [name for name, attr in inspect.getmembers(BasisSet) if isinstance(attr, property)]
    held = {name: getattr(basis, name) for name in names}
    for f in dataclasses.fields(ReducedGenerator):
        value = getattr(red, f.name)
        if f.name != "basis":
            assert [n for n, v in held.items() if v is value or _same_value(v, value)] == [], f.name


def test_no_cli_handler_reads_a_key_with_a_default_of_its_own():
    """Every default the CLI applies lives in its _OPTIONS row: a handler reads the resolved mapping, and
    calls no .get(key, default)."""
    from hypokit import cli

    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    handlers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    assert sorted(fn.name for fn in handlers) == sorted(f"_cmd_{name}" for name in cli._COMMANDS)
    defaulted = [f"{fn.name} line {node.lineno}" for fn in handlers for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                 and len(node.args) + len(node.keywords) > 1]
    assert defaulted == []
