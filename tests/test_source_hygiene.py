"""Source-level checks over every module of the package."""

import ast
import doctest
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import qaff

SRC = Path(qaff.__file__).resolve().parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (outside ``__future__``) -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, unused


def test_module_doctests_pass():
    results = {
        path.stem: doctest.testmod(importlib.import_module(f"qaff.{path.stem}"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert sum(r.attempted for r in results.values()) > 0
    assert {name: r.failed for name, r in results.items() if r.failed} == {}


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in mods
                      if m.split(".")[0] == "dataclasses"]
    assert not found, found


def test_import_does_not_load_dataclasses_or_inspect():
    # against the interpreter's own start-up set, since site may preload modules
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qaff, qaff.affine, qaff.neighborhoods, qaff.quantum, qaff.toda\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    added = set(proc.stdout.split())
    assert "qaff.toda" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


BENCH = Path(__file__).resolve().parents[1] / "perfbench"

def _definitions(tree: ast.Module):
    """Module-level functions and classes, and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item


def _tracer_targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _references(node: ast.AST, owner, defs: set):
    """``(owner, name)`` per name read; the owner is the innermost definition."""
    if node in defs:
        owner = node
    if isinstance(node, ast.Name):
        yield owner, node.id
    elif isinstance(node, ast.Attribute):
        yield owner, node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, owner, defs)


def _unread(named: set) -> list:
    """``(file, node)`` per definition whose name is read only by dead
    definitions, counting the names in ``named`` as read from outside."""
    defs, readers = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = list(_definitions(tree))
        defs += [(path.name, node) for node in found]
        for owner, name in _references(tree, None, set(found)):
            readers.setdefault(name, set()).add(owner)
    dead: set = set()
    changed = True
    while changed:
        changed = False
        for _, node in defs:
            if (node not in dead and node.name not in named
                    and readers.get(node.name, set()) <= dead | {node}):
                dead.add(node)
                changed = True
    return [(file, node) for file, node in defs if node in dead]


def test_every_definition_is_referenced():
    # A definition is live when its name is read outside every dead
    # definition, so code that only dead code reads is dead as well.
    named = set(qaff.__all__)
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named.update(name for _, name in _references(tree, None, set()))
    for _, _, target, _ in _tracer_targets():
        named.update(target.split("."))
    unread = sorted(f"{file}:{node.lineno} {node.name}" for file, node in _unread(named))
    assert not unread, "\n".join(unread)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _bound_here(fn) -> list:
    """``(name, line)`` per name that ``fn`` binds in its own scope: assignment and
    loop targets, ``as`` names and nested definitions, but not its parameters."""
    out, stack = [], list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if not isinstance(node, (*_SCOPES, ast.arguments)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_local_is_read():
    # A local counts as read when it is loaded anywhere in its function, nested
    # functions included, or declared nonlocal or global there.
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
                elif isinstance(node, (ast.Nonlocal, ast.Global)):
                    read.update(node.names)
            unread += [f"{path.name}:{line} {fn.name}: {name}"
                       for name, line in _bound_here(fn)
                       if name not in read and not name.startswith("_")]
    assert not unread, "\n".join(sorted(set(unread)))


# the module-level factories and caches keyed by a Lie label; the test below
# must find each of them, so it cannot pass by matching nothing
LABEL_CACHES = {"build_root_system", "affinize", "affine_weyl", "finite_weyl",
                "finite_schubert", "chevalley_root_set", "quantum_aff", "ordinary_qh",
                "affine_coh", "_relation_set"}


def _lru_typed(decorator) -> bool | None:
    """Whether an ``lru_cache`` decorator is ``typed=True``; None for any other."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return False
    if name != "lru_cache":
        return None
    return any(kw.arg == "typed" and isinstance(kw.value, ast.Constant)
               and kw.value.value is True for kw in (call.keywords if call else []))


def test_label_keyed_caches_are_typed():
    # An untyped cache keyed by (letter, rank) hands the entry of 2 to a rank of
    # 2.0 or True, past the label check that runs only on a miss.
    found, untyped = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if [a.arg for a in node.args.args[:2]] != ["letter", "rank"]:
                continue
            for decorator in node.decorator_list:
                typed = _lru_typed(decorator)
                if typed is not None:
                    found.add(node.name)
                    if not typed:
                        untyped.append(f"{path.name}:{node.lineno} {node.name}")
    assert untyped == []
    assert sorted(LABEL_CACHES - found) == []


# the one owner of each index rule and of the element ids of both groups, as (file, function)
INDEX_OWNERS = [("roots.py", "affine_index"), ("roots.py", "finite_index"),
                ("weyl.py", "_parse_word"), ("weyl.py", "check_element_ids")]
# the one owner of the refusal of a class of another ring, and the one function that
# checks a class's ids, as (file, function)
RING_OWNERS = [("polynomials.py", "_check_ring")]
CLASS_ID_READERS = [("polynomials.py", "check_classes")]


def _raises(node: ast.AST, owner: str | None):
    """``(owner, raise)`` per raise statement; the owner is the innermost function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Raise):
        yield owner, node
    for child in ast.iter_child_nodes(node):
        yield from _raises(child, owner)


def _value_error_text(node: ast.Raise) -> str | None:
    """The literal text of a ``raise ValueError(...)`` message, f-string parts
    included; None for any other raise."""
    exc = node.exc
    if not (isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValueError"):
        return None
    return "".join(n.value for arg in exc.args for n in ast.walk(arg)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_index_and_id_refusals_have_one_owner_each():
    # An operator that checks its own index or ids grows a second copy of a rule,
    # with its own message and its own gaps (a bool, a float, 0 read as n).
    found = []
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _raises(ast.parse(path.read_text(encoding="utf-8")), None):
            text = _value_error_text(node)
            if text is not None and re.search(r"\bindex\b|element id", text, re.IGNORECASE):
                found.append((path.name, owner))
    assert sorted(found) == INDEX_OWNERS


def test_ring_membership_has_one_owner():
    # A ring that tests another ring's group or nq itself grows a second copy of the
    # rule; every refusal of a foreign class is raised by the ring's one test.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _raises(ast.parse(path.read_text(encoding="utf-8")), None):
            text = _value_error_text(node)
            if text is not None and "is not a class of" in text:
                found.append((path.name, owner))
    assert sorted(found) == RING_OWNERS


def _calls(node: ast.AST, owner: str | None):
    """``(owner, call)`` per call; the owner is the innermost function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Call):
        yield owner, node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, owner)


def test_only_the_ring_checks_a_classs_ids():
    # ``check_ids(a.terms)`` or ``check_ids(a.support())`` tests the range of the ids
    # alone, so an operator that runs it on a class takes a class of another ring whose
    # ids are in range; the ring's membership method tests the ring first.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "weyl.py":
            continue
        for owner, node in _calls(ast.parse(path.read_text(encoding="utf-8")), None):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "check_ids"
                    and any(_is_terms(arg) or _is_support(arg) for arg in node.args)):
                found.append((path.name, owner))
    assert found == CLASS_ID_READERS


_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _is_terms(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _is_support(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "support")


def test_no_terms_are_changed_in_place():
    # ``basis(w)`` hands out one unit ``Poly`` per ring, and memo rows hand out
    # their classes' coefficients, so a ``Poly`` changed in place would change
    # every class that shares it.  A class's ``terms`` hold such ``Poly``s too.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                hit = _is_terms(node.value)  # item assignment, augmented or not, and del
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                hit = node.func.attr in _MUTATORS and _is_terms(node.func.value)
            else:
                hit = False
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
