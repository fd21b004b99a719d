"""Budgets on the shape of the package source, read from its syntax tree."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ballbodies"
SETTABLE_VALUES_BUDGET = 40


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
