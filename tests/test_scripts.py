"""The evidence sections that replace the experiment scripts, and
program-wide checks on the package's source.

The coefficient table runs in full (it is cheap), and so do the residual
orders on a coarse eps sweep off the default carrier.  Three more checks read
the package's source: program code (the package and pyproject.toml's entry
points) reaches every public function, every private function and every
method, and some call in the package or the benchmark omits every parameter
default.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from fput2d.cli import _coefficient_section, _residual_section, main
from fput2d.config import load_plan

ROOT = Path(__file__).resolve().parents[1]


def test_coefficients_table_runs(capsys):
    _, rows, gate = _coefficient_section(load_plan())
    assert gate is None
    assert capsys.readouterr().out.startswith("coefficients: 24 carriers, ")
    assert main(["coeffs"]) == 0
    keys = list(json.loads(capsys.readouterr().out))
    # every carrier (pi i/4, pi j/4) but (0, 0), each with coeffs' keys
    assert [(row["k0_pi"], row["l0_pi"]) for row in rows] == [
        (i / 4, j / 4) for i in range(5) for j in range(5) if i or j]
    assert all(list(row) == ["k0_pi", "l0_pi", *keys] for row in rows)


@pytest.mark.parametrize("variant", ["strain", "displacement"])
def test_residual_orders_off_default_carrier(variant):
    # criterion 6's bars at (pi/2, pi/3), where the v field's cross term is live
    plan = load_plan(None, ["eps_list=0.45,0.4,0.35", f"variant={variant}",
                            "carrier_k_pi=0.5", "carrier_l_pi=0.3333333333333333"])
    _, report, gate = _residual_section(plan)
    assert report["order_with_corrections"] >= 3.6
    assert report["order_without_corrections"] >= 2.7
    assert gate["pass"] is True


# io.read_snapshot is the snapshot format's reader for users: the program
# writes snapshots and never reads them back
USER_ENTRY_POINTS = {"read_snapshot"}


PACKAGE = ROOT / "src" / "fput2d"


def _reached_by_program_code() -> set[str]:
    """Every name the package reads, and the functions of pyproject.toml's
    entry points; tests do not count."""
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for path in PACKAGE.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.Name, ast.Attribute))}
    # pyproject.toml's entry points, name = "module:function"
    return referenced | set(re.findall(r'^\w+ = "[\w.]+:(\w+)"$',
                                       (ROOT / "pyproject.toml").read_text(), flags=re.M))


def test_every_public_function_is_reached_by_program_code():
    # a public function only tests reach is a second path that runs never take
    defined = {node.name: path.name
               for path in PACKAGE.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    reached = _reached_by_program_code() | USER_ENTRY_POINTS
    unreached = {name: module for name, module in defined.items() if name not in reached}
    assert unreached == {}


def test_every_private_function_and_method_is_reached_by_program_code():
    # a private helper or a method kept only for its tests is code no run
    # executes; dunder methods are called by Python itself
    defined = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined[node.name] = path.name
            elif isinstance(node, ast.ClassDef):
                defined.update({f"{node.name}.{f.name}": path.name for f in node.body
                                if isinstance(f, ast.FunctionDef)
                                and not f.name.startswith("__")})
    reached = _reached_by_program_code()
    unreached = {name: module for name, module in defined.items()
                 if name.rpartition(".")[2] not in reached}
    assert unreached == {}


# defaults that no program call omits but that stay, each with its reason
KEPT_DEFAULTS = {
    ("load_plan", "path"): "a user entry point: no config file means the defaults",
    ("load_plan", "overrides"): "a user entry point: no --set overrides",
    ("evolve", "on_sample"): "_solve_envelope passes its own, None for residual_sweep",
}


def _defaults(tree):
    """(function name, parameter, positional index or None) of every default
    of the module-level functions and the methods of module-level classes;
    a method's index does not count self."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node, 0)]
        elif isinstance(node, ast.ClassDef):
            functions = [(f, 1) for f in node.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for f, bound in functions:
            if f.name.startswith("__"):
                continue
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield f.name, arg.arg, i - bound
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield f.name, arg.arg, None


def _omits(call, param, index):
    """Whether the call surely leaves param to its default: neither a
    keyword nor a positional argument nor an unpacked one can carry it."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return False
    return index is None or len(call.args) <= index


def test_every_parameter_default_is_omitted_by_program_code():
    # a default that every call overrides is a second call shape only tests
    # take; calls are matched by name, so a method's calls are those of any
    # attribute of that name
    defaults = [d for path in PACKAGE.glob("*.py") for d in _defaults(ast.parse(path.read_text()))]
    calls = {}
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never_omitted = {(name, param) for name, param, index in defaults
                     if not any(_omits(c, param, index) for c in calls.get(name, []))}
    assert never_omitted == set(KEPT_DEFAULTS)
