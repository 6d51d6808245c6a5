"""Source hygiene: every module parses under the oldest supported Python,
every import in a `separoid` module is used there
(`__init__.py` is skipped, since its imports are the package's re-exports),
every private definition, method and instance attribute is read
somewhere in the package, and a module imports another inside a function
only where a module-level import would close a cycle."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "separoid"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    """``requires-python = ">=3.10"``: no module uses later grammar.  Only
    the grammar is checked, not the standard library the module calls."""
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def private_definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level ``_private`` functions and classes (dunders excluded)."""
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere under node."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def test_no_unreferenced_private_definitions():
    """Every module-level private function or class in the package is used
    somewhere in the package outside its own definition."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for d in private_definitions(tree):
            elsewhere = any(
                d.name in referenced_names(node)
                for other, t in trees.items()
                for node in t.body
                if node is not d
            )
            if not elsewhere:
                unused.append(f"{name}:{d.lineno} {d.name}")
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def attribute_reads(node: ast.AST) -> Counter:
    """How often each attribute is read under node.  The base of a
    subscript store (``self._memo[k] = v``) writes into the attribute and is
    not a read."""
    written = {
        id(n.value) for n in ast.walk(node)
        if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)
    }
    return Counter(
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and id(n) not in written
    )


def test_no_unread_private_members():
    """Every private method of a class in the package is read outside its
    own body, and every private ``self._attr`` a class stores is read,
    anywhere in the package."""
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    reads = sum((attribute_reads(t) for t in trees), Counter())
    unread = []
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for d in cls.body:
                if (isinstance(d, ast.FunctionDef) and _private(d.name)
                        and reads[d.name] <= attribute_reads(d)[d.name]):
                    unread.append(f"{cls.name}.{d.name}")
            unread += sorted({
                f"{cls.name}.{n.attr}" for n in ast.walk(cls)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"
                and _private(n.attr) and not reads[n.attr]
            })
    assert unread == []


def self_calling_closures(tree: ast.Module, module: str) -> list[str]:
    """Nested functions that name themselves in their own body: a closure
    that calls itself holds its own cell, a reference cycle that lives until
    the cyclic collector runs."""
    found = []

    def walk(node: ast.AST, path: tuple[str, ...], nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if nested and any(
                    isinstance(n, ast.Name) and n.id == child.name
                    for stmt in child.body for n in ast.walk(stmt)
                ):
                    found.append(".".join((module, *path, child.name)))
                walk(child, (*path, child.name), True)
            elif isinstance(child, ast.ClassDef):
                walk(child, (*path, child.name), False)
            else:
                walk(child, path, nested)

    walk(tree, (), False)
    return found


def test_no_self_calling_closures():
    assert self_calling_closures(ast.parse("""
def outer():
    def visit(n):
        return [visit(c) for c in n]
    def leaf(n):
        return n
    return visit, leaf

def module_level(n):
    return module_level(n - 1) if n else 0

class C:
    def method(self):
        return self.method
"""), "m") == ["m.outer.visit"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += self_calling_closures(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == []


def package_imports(node: ast.ImportFrom) -> set[str]:
    """The package modules a relative import names: ``from .dsl import f``
    names dsl, ``from . import causal, engine`` names both."""
    return {node.module.split(".")[0]} if node.module else {a.name for a in node.names}


def test_function_level_imports_only_break_cycles():
    """Every import of a package module made inside a function would close
    a cycle at module level: the imported module reaches the importer
    through the package's module-level imports."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}

    def relative(nodes):
        return [n for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 1]

    graph = {m: set().union(*map(package_imports, relative(t.body))) for m, t in trees.items()}

    def reaches(a: str, b: str) -> bool:
        seen, todo = set(), [a]
        while todo:
            m = todo.pop()
            if m == b:
                return True
            if m not in seen:
                seen.add(m)
                todo.extend(graph.get(m, ()))
        return False

    local = sorted((m, n) for m, t in trees.items()
                   for node in relative(ast.walk(t)) if node not in t.body
                   for n in package_imports(node))
    assert [f"{m} imports {n}" for m, n in local if not reaches(n, m)] == []
    assert local == [("universe", "dsl")]  # CIStatement.__repr__: dsl imports universe


def test_rule_instances_come_from_expand_alone():
    """No module but engine.py reads ``unary``, ``binary`` or ``implicit``,
    and in engine.py no function but ``_Engine.expand`` reads ``unary`` or
    ``binary``: every rule instance with premises that the package draws
    comes from ``expand`` (the premise-free ones from ``spontaneous``)."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name != "engine.py":
            scopes, names = [(path.name, tree)], {"unary", "binary", "implicit"}
        else:
            scopes = [(f"engine.py:{fn.name}", fn) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and fn.name != "expand"]
            names = {"unary", "binary"}
        readers += [f"{where} reads {name}" for where, node in scopes
                    for name in sorted(names & set(attribute_reads(node)))]
    assert readers == []


def test_kernel_internals_are_read_in_models_alone():
    """No module but models.py reads a private attribute that ``MaskKernel``
    stores (every ``self._x = ...`` in the class): the cell-code format of
    tables and decision maps is known to models alone."""
    models = ast.parse((SRC / "models.py").read_text())
    kernel = next(n for n in models.body if isinstance(n, ast.ClassDef) and n.name == "MaskKernel")
    private = {
        t.attr for n in ast.walk(kernel) if isinstance(n, (ast.Assign, ast.AnnAssign))
        for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
        for t in ast.walk(target)
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
        and t.value.id == "self" and _private(t.attr)
    }
    assert {"_codes", "_cols", "_bit", "_resolved"} <= private
    readers = [f"{path.name} reads {name}" for path in MODULES if path.name != "models.py"
               for name in sorted(private & set(attribute_reads(ast.parse(path.read_text()))))]
    assert readers == []


def test_eci_statement_resolution_is_read_in_models_alone():
    """An ECI statement is resolved to its slot masks in models.py alone:
    every other module asks ``check_eci``, so there is one ECI verdict path
    per statement."""
    private = {"_validate_eci_statement", "_slot_masks"}
    readers = [f"{path.name} references {name}" for path in MODULES if path.name != "models.py"
               for name in sorted(private & referenced_names(ast.parse(path.read_text())))]
    assert readers == []


def test_premise_free_rules_are_named_in_tautology_alone():
    """The P2 family is defined once: in engine.py the literals "P2", "P2'"
    and "P2g" occur only in ``RULES``, ``_RULE_SETS`` and
    ``_Engine.tautology``, so ``spontaneous`` takes its rule names from
    ``tautology`` and has no branch of its own per rule set."""
    names = {"P2", "P2'", "P2g"}
    tree = ast.parse((SRC / "engine.py").read_text())
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Engine")
    tautology = next(n for n in engine.body
                     if isinstance(n, ast.FunctionDef) and n.name == "tautology")
    tables = [n for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
              and {t.id for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                   if isinstance(t, ast.Name)} & {"RULES", "_RULE_SETS"}]
    assert len(tables) == 2
    allowed = {id(n) for scope in (*tables, tautology) for n in ast.walk(scope)}
    literals = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value in names]
    assert {n.value for n in ast.walk(tautology) if isinstance(n, ast.Constant)} >= names
    assert [f"line {n.lineno}: {n.value!r}" for n in literals if id(n) not in allowed] == []


def test_search_models_come_from_models_alone():
    """search.py draws or enumerates models in ``_models`` alone: no other
    code there names random_distribution, random_decmap, random_family or
    grid_distributions, so the counterexample search and every soundness
    scan read one model source."""
    sources = {"random_distribution", "random_decmap", "random_family", "grid_distributions"}
    tree = ast.parse((SRC / "search.py").read_text())
    models = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_models")
    inside = {id(n) for n in ast.walk(models)}
    named = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in sources]
    assert {n.id for n in named if id(n) in inside} == sources
    assert [f"line {n.lineno}: {n.id}" for n in named if id(n) not in inside] == []


def test_independence_is_tested_by_sci_alone():
    """``MaskKernel.sci`` is the one independence test: the attribute ``sci``
    is read only in ``check_sci`` and ``RegimeFamily.eci`` (SCI on a table's
    kernel and on a family's stacked kernel) and in ``search._sci_model``,
    so ECI has no verdict path of its own."""
    def name(node: ast.AST) -> str:
        return getattr(node, "name", f"line {node.lineno}")

    readers = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            scopes = [(name(node), node)]
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.{name(d)}", d) for d in node.body]
            readers |= {f"{path.stem}.{where}" for where, scope in scopes
                        if attribute_reads(scope)["sci"]}
    assert readers == {"models.check_sci", "models.RegimeFamily.eci", "search._sci_model"}
