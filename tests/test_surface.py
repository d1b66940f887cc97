"""Every top-level function and class in src/kolgas has a caller beyond
the unit tests: its own module, another kolgas module, the benchmark, or
an acceptance criterion.  A helper only a unit test calls belongs in
that test file.  Each has one name, its module's: the package binds no
second one."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(tree, skip=None):
    """Identifiers (and exact string constants) in ``tree``, outside the
    subtree ``skip``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_definition_has_a_caller():
    modules = {p: _tree(p) for p in sorted((ROOT / "src" / "kolgas").glob("*.py"))
               if p.name != "__init__.py"}
    callers = [ROOT / "tests" / "test_acceptance.py",
               *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                 if not p.name.startswith("test_"))]
    outside = set().union(*(_names(_tree(p)) for p in callers))
    orphans = []
    for path, tree in modules.items():
        seen = outside.union(*(_names(t) for p, t in modules.items() if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in seen | _names(tree, skip=node)):
                orphans.append(f"{path.stem}.{node.name}")
    assert orphans == []


def test_package_binds_no_second_names():
    # every public object has one name, its module's (kolgas.sim.simulate),
    # so the package itself holds its docstring and __version__ alone
    docstring, *body = _tree(ROOT / "src" / "kolgas" / "__init__.py").body
    assert isinstance(docstring, ast.Expr)
    others = [ast.unparse(node) for node in body
              if not (isinstance(node, ast.Assign)
                      and [ast.unparse(t) for t in node.targets]
                      == ["__version__"])]
    assert others == []


def test_only_the_handoff_module_forks():
    # one hand-off to the second CPU: no other module imports
    # multiprocessing or mmap, or reaches os.fork
    found = []
    for path in sorted((ROOT / "src" / "kolgas").glob("*.py")):
        if path.name == "handoff.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [f"{ast.unparse(node.value)}.{node.attr}"]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.split(".")[0] in ("multiprocessing", "mmap")
                      or name == "os.fork"]
    assert found == []
