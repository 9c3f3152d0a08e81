"""Every exported name resolves, so deleting code cannot leave a stale export, and
every parameter is read, so no argument looks like a setting that changes nothing."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import besovcalc

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(besovcalc.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"besovcalc.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_names_resolve_and_are_public():
    """Each name the package re-exports exists and, where its home module has
    an __all__, is listed there."""
    tree = ast.parse(pathlib.Path(besovcalc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        public = getattr(importlib.import_module(f"besovcalc.{node.module}"), "__all__", None)
        for alias in node.names:
            assert hasattr(besovcalc, alias.asname or alias.name)
            assert public is None or alias.name in public, f"{node.module}.{alias.name}"


def _unread_parameters():
    """(module, class, function, parameter) for each parameter of a `def` in the
    package that its body never reads; class is None outside a class body."""
    found = []
    for path in sorted(pathlib.Path(besovcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            cls = owner.get(id(node))
            found += [(path.stem, cls, node.name, p) for p in params if p not in read]
    return found


def test_every_parameter_is_read():
    """A parameter that no code path reads looks like a setting and changes nothing."""
    from besovcalc import quadrature
    from besovcalc.suite import VALIDATORS

    envelopes = {
        name
        for name, obj in vars(quadrature).items()
        if isinstance(obj, type) and issubclass(obj, quadrature.DecayEnvelope)
    }
    runners = {runner.__name__ for runner, _ in VALIDATORS.values()}

    def exempt(module, cls, func, param):
        # DecayEnvelope's stubs and their overrides keep the signature their callers use
        if module == "quadrature" and cls in envelopes and func in vars(quadrature.DecayEnvelope):
            return True
        # perfbench/workloads.py passes the calculus a config positionally
        if (module, cls, func, param) == ("operators", None, "apply_calculus_report", "cfg"):
            return True
        # run_suite and perfbench call every registered runner as runner(params, cfg)
        return module == "suite" and cls is None and func in runners and param == "cfg"

    assert [p for p in _unread_parameters() if not exempt(*p)] == []


def test_least_squares_solver_only_in_the_jordan_oracle():
    """Slope fits are closed-form (`norms.fitted_slope`) and the oracle takes
    defective operators by circle integrals, so `polyfit` and `lstsq` occur nowhere."""
    found = set()
    for path in sorted(pathlib.Path(besovcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for n in ast.walk(top):
                # attribute, bare name, imported alias or def of that name
                name = next((getattr(n, k) for k in ("attr", "id", "name") if hasattr(n, k)), None)
                if isinstance(name, str) and name.rsplit(".", 1)[-1] in ("polyfit", "lstsq"):
                    found.add((path.stem, owner, name))
    assert found == set()
