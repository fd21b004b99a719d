"""Budgets on the shape of the package source, read from its syntax tree."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ballbodies"
SETTABLE_VALUES_BUDGET = 32


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def settable_values(tree: ast.AST) -> list[str]:
    """Every function parameter with a default, and every dataclass field with a
    default or a default factory, except fields set with ``field(init=False)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults) :]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{getattr(node, 'name', 'lambda')}({a.arg})" for a in named]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [
                f"{node.name}.{ast.unparse(item.target)}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and item.value is not None and not _init_false(item.value)
            ]
    return found


def test_settable_values_do_not_grow():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name in settable_values(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(found) <= SETTABLE_VALUES_BUDGET, (
        f"{len(found)} settable values, over the budget of {SETTABLE_VALUES_BUDGET}. ROADMAP aim 2: "
        "no option that no caller sets; an option comes back only when two non-test callers need "
        "different values.\n" + "\n".join(found)
    )


def _numeric_literals(node: ast.AST) -> list[str]:
    return [
        ast.unparse(n)
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, (int, float)) and not isinstance(n.value, bool)
    ]


def test_no_net_error_bound_takes_a_hand_set_norm_bound_or_curvature():
    # ROADMAP aim 3: vacuity gates come from the bodies the code compares, not from hand-edited numbers
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    (definition,) = [
        node for node in ast.walk(trees["support.py"]) if getattr(node, "name", None) == "net_error_bound"
    ]
    params = [a.arg for a in definition.args.args]
    checked = {"norm_bounds", "curvatures"} & set(params)
    assert checked, params
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", getattr(node.func, "attr", None)) != "net_error_bound":
                continue
            args = [a for a, p in zip(node.args, params) if p in checked]
            args += [kw.value for kw in node.keywords if kw.arg in checked]
            found += [f"{name}:{node.lineno}: {lit}" for arg in args for lit in _numeric_literals(arg)]
    assert not found, "net_error_bound called with literal norm bounds or curvatures:\n" + "\n".join(found)


def _mentions_mesh(node: ast.AST) -> bool:
    return any(getattr(n, "id", getattr(n, "attr", None)) == "mesh" for n in ast.walk(node))


def test_lab_leaves_certified_net_arithmetic_to_support():
    # ROADMAP aim 2: one place per algorithm.  Net distances take their
    # certified ends from `support.net_distance` and farthest distances from
    # `support.farthest_distances`, so a tighter bound lands in one function
    tree = ast.parse((SOURCE / "lab.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            names = [getattr(node.func, "id", getattr(node.func, "attr", None))]
        else:
            names = []
        found += [f"lab.py:{node.lineno}: {name}" for name in names if name in {"hausdorff", "net_error_bound"}]
        squares = isinstance(node, ast.BinOp) and (
            isinstance(node.op, ast.Pow)
            and _mentions_mesh(node.left)
            or isinstance(node.op, ast.Mult)
            and ast.dump(node.left) == ast.dump(node.right)
            and _mentions_mesh(node.left)
        )
        if squares:
            found.append(f"lab.py:{node.lineno}: {ast.unparse(node)}")
    assert not found, "lab.py does its own certified net arithmetic:\n" + "\n".join(found)


BODY_NODE_TYPES = {"Generators", "CDual", "Combine", "Motion"}


def _node_types_checked(function: ast.AST) -> set[str]:
    """The body node types a function tells apart, by ``isinstance`` or by a ``match`` class pattern."""
    found = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            found |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
        elif isinstance(node, ast.MatchClass):
            found.add(getattr(node.cls, "id", getattr(node.cls, "attr", None)))
    return found & BODY_NODE_TYPES


def test_support_walks_body_trees_in_one_function():
    # ROADMAP aim 2: one tree walker for support evaluation.  `sweep` serves
    # one body or many through `_queue`, so a second walker beside it would
    # be a second copy of the node arithmetic
    tree = ast.parse((SOURCE / "support.py").read_text(encoding="utf-8"))
    walkers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and len(_node_types_checked(node)) >= 2
    ]
    assert walkers == ["_queue"], f"functions of support.py that dispatch on body node types: {walkers}"


LEAF_SOLVERS = {"support_batch", "arc_support_batch"}


def _called_names(node: ast.AST) -> set[str]:
    return {
        getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(node) if isinstance(n, ast.Call)
    }


def test_every_support_sweep_goes_through_sweep():
    # ROADMAP aim 2: one evaluator.  Only `support.sweep` hands leaves to the
    # solver, and `SupportEval` is a memo whose two ways in call `sweep`
    callers = [
        f"{path.name}: {node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _called_names(node) & LEAF_SOLVERS
    ]
    assert callers == ["support.py: sweep"], f"functions that call the leaf solvers: {callers}"
    tree = ast.parse((SOURCE / "support.py").read_text(encoding="utf-8"))
    (oracle,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SupportEval"]
    methods = {node.name: _called_names(node) for node in oracle.body if isinstance(node, ast.FunctionDef)}
    evaluating = {name for name, called in methods.items() if "sweep" in called or called & LEAF_SOLVERS}
    for _ in methods:  # and every method that evaluates through one of those
        evaluating |= {name for name, called in methods.items() if called & evaluating}
    assert sorted(evaluating) == ["__call__", "on_net"], f"methods of SupportEval that evaluate supports: {evaluating}"


def _raised_names(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return found


def test_every_library_error_is_raised_and_mapped():
    # no error type or exit mapping outlives its last raise, and no library
    # error leaves the CLI as a traceback
    from ballbodies import cli, errors

    tree = ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    classes.remove("BallBodiesError")
    raised = set()
    for path in SOURCE.glob("*.py"):
        raised |= _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    mapped = {exc for types, _ in cli._ERROR_EXITS for exc in types}
    assert classes
    assert [name for name in classes if name not in raised] == [], "error types that nothing raises"
    assert [name for name in classes if getattr(errors, name) not in mapped] == [], "error types with no exit"


def _owners(tree: ast.AST, wanted) -> set[str]:
    """The innermost function, lambda or module around each node for which `wanted` is true."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "lambda")
        if wanted(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_documents_are_read_by_one_node_rule_and_one_json_reader():
    # ROADMAP aim 2: the document boundary is stated once.  Only
    # `bodies.read_node` turns a body or map node's failures into
    # DocumentError, and one function of `cli` parses JSON text
    handlers = {
        f"{name}: {owner}"
        for name in ("bodies.py", "maps.py")
        for owner in _owners(
            ast.parse((SOURCE / name).read_text(encoding="utf-8")), lambda n: isinstance(n, ast.ExceptHandler)
        )
    }
    assert handlers == {"bodies.py: read_node"}, f"functions of bodies.py and maps.py that catch: {handlers}"
    readers = _owners(
        ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8")),
        lambda n: isinstance(n, ast.Call) and ast.unparse(n.func) == "json.loads",
    )
    assert len(readers) == 1, f"functions of cli.py that call json.loads: {readers}"
