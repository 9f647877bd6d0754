"""API-surface guard: every public top-level function and class of the
library has a caller inside ``src/skewext``, or is one of the few kept
without one, each for a stated reason (``KEPT``).

A name counts as called when some module of the package loads it, as an
attribute of a module of the package or as a bare name that no local
binding shadows, anywhere but in its own definition; an import alone does
not count, and neither does a local variable, argument or loop target that
shares the name.  A mention in ``README.md`` does not count either.
``KEPT`` is exact: a kept name that gains a caller leaves the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewext"

#: Public names with no caller in the package, each with why it stays.
KEPT = {
    "relation.domain": "relation anatomy, to be reported by analyze: whether "
    "the input is an operator",
    "relation.kernel": "relation anatomy, to be reported by analyze",
    "relation.mul_part": "relation anatomy; the adjoint of a Laguerre section "
    "has the multivalued part span{1}",
    "halfline.existence_summary": "the exact counterpart of analyze's "
    "existence booleans, for a halfline existence subcheck",
    "halfline.adjoint_injectivity_check": "the maximality half of the "
    "canonical extension, for the dissipative subcheck",
    "subspace.span_matrix": "public constructor: the span of given columns",
    "subspace.zero": "public constructor: the zero subspace",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _modules():
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def _public_definitions(modules):
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield module, node.name


def _module_aliases(tree, modules):
    """The names under which a module binds modules of the package."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            aliases |= {a.asname or a.name for a in node.names if a.name in modules}
    return aliases


def _local_bindings(scope):
    """The names a function, lambda or comprehension binds in its own scope:
    arguments, assignment, loop and ``with`` targets, imports and nested
    definitions, less those declared ``global``."""
    bound, declared_global = set(), set()
    if isinstance(scope, _COMPREHENSIONS):
        roots = [g.target for g in scope.generators]
    else:
        a = scope.args
        args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        bound |= {arg.arg for arg in args if arg is not None}
        roots = [scope.body] if isinstance(scope, ast.Lambda) else scope.body
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global |= set(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue  # a nested scope binds its own names
        if isinstance(node, (ast.Lambda, *_COMPREHENSIONS)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return bound - declared_global


def _called_names(modules):
    names = set()
    for tree in modules.values():
        aliases = _module_aliases(tree, modules)

        def visit(node, shadowed, own):
            if isinstance(node, (*_SCOPES, *_COMPREHENSIONS)):
                shadowed = shadowed | _local_bindings(node)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in shadowed and node.id != own:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Name) and value.id in aliases:
                    if node.attr != own:
                        names.add(node.attr)
            for child in ast.iter_child_nodes(node):
                visit(child, shadowed, own)

        for node in tree.body:
            defined = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            visit(node, frozenset(), node.name if defined else None)
    return names


def test_every_public_name_has_a_caller_or_a_reason_to_stay():
    modules = _modules()
    called = _called_names(modules)
    orphans = {
        f"{module}.{name}"
        for module, name in _public_definitions(modules)
        if name not in called
    }
    assert orphans == set(KEPT)


def test_a_local_variable_of_the_same_name_is_not_a_call():
    tree = ast.parse(
        "def domain():\n    pass\n\n"
        "def kernel():\n    pass\n\n"
        "def user(domain):\n"
        "    kernel = [x for x in range(3)]\n"
        "    for span in kernel:\n"
        "        pass\n"
        "    return domain, kernel, span\n"
    )
    assert _called_names({"module": tree}) == {"range"}
