"""Generated operands: every CLI run ends in a strict-JSON report or a documented exit.

Body and map documents are drawn from the document format with some values
replaced by junk (objects, strings, None, integers and floats beyond float
range, deep lists, a node type that cannot be hashed), and run in-process
through the commands that read them.  No exception may escape a command.
"""

import json
from functools import reduce

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ballbodies.cli import _ERROR_EXITS, main

DOCUMENTED_EXITS = {code for _, code in _ERROR_EXITS}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", "1.5", {}, {"a": 1}, [], 10**400, -(10**400), 1e308, -1e308, float("nan"), float("inf")]),
    st.integers(1, 80).map(lambda depth: reduce(lambda inner, _: [inner], range(depth), 0.5)),
)


def sometimes_junk(strategy):
    """`strategy`, or junk about one time in twelve."""
    return st.sampled_from(range(12)).flatmap(lambda i: JUNK if i == 11 else strategy)


COORDINATE = sometimes_junk(st.one_of(st.floats(-0.5, 0.5), st.integers(-1, 1)))


def vector(dim):
    return sometimes_junk(st.lists(COORDINATE, min_size=dim, max_size=dim))


ROTATIONS = {
    2: [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[1, 0], [0, -1]]],
    3: [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, -1, 0], [1, 0, 0], [0, 0, -1]]],
}


def rotation(dim):
    return sometimes_junk(st.sampled_from(ROTATIONS[dim]))


@st.composite
def spoiled(draw, nodes, key):
    """A node with, at times, its kind replaced by junk or one of its fields dropped."""
    node = dict(draw(nodes))
    how = draw(st.sampled_from(["keep"] * 6 + ["kind", "drop"]))
    if how == "kind":
        node[key] = draw(st.one_of(JUNK, st.just(["generators"]), st.just("nonesuch")))
    elif how == "drop" and len(node) > 1:
        del node[draw(st.sampled_from(sorted(set(node) - {key})))]
    return node


def bodies(dim):
    leaf = st.builds(
        lambda centers: {"type": "generators", "centers": centers},
        sometimes_junk(st.lists(vector(dim), min_size=1, max_size=3)),
    )

    def extend(children):
        children = sometimes_junk(children)
        return st.one_of(
            st.builds(lambda of: {"type": "cdual", "of": of}, children),
            st.builds(
                lambda lam, a, b: {"type": "combine", "lambda": lam, "a": a, "b": b},
                sometimes_junk(st.floats(0, 1)),
                children,
                children,
            ),
            st.builds(
                lambda q, t, of: {"type": "motion", "rotation": q, "translation": t, "of": of},
                rotation(dim),
                vector(dim),
                children,
            ),
        )

    return spoiled(st.recursive(leaf, extend, max_leaves=3), "type")


def body_maps(dim):
    simple = st.one_of(
        st.builds(lambda q, t: {"map": "motion", "rotation": q, "translation": t}, rotation(dim), vector(dim)),
        st.just({"map": "cdual"}),
        st.builds(lambda body: {"map": "constant", "body": body}, bodies(dim)),
        st.builds(lambda f: {"map": "scale_centers", "factor": f}, sometimes_junk(st.floats(0.5, 2))),
    )

    def compose(parts):
        parts = sometimes_junk(st.lists(parts, min_size=1, max_size=2))
        return st.builds(lambda of: {"map": "compose", "of": of}, parts)

    return spoiled(st.recursive(simple, compose, max_leaves=3), "map")


PLANAR_MAPS = spoiled(
    st.one_of(
        st.builds(lambda q, t: {"map": "planar_rigid", "rotation": q, "translation": t}, rotation(2), vector(2)),
        st.builds(
            lambda a, s: {"map": "planar_perturbed", "amplitude": a, "seed": s},
            sometimes_junk(st.floats(0, 0.3)),
            sometimes_junk(st.integers(0, 3)),
        ),
        st.just({"map": "planar_radial_hole"}),
    ),
    "map",
)


def operands(docs):
    """Command-line texts of `docs`, now and then a run of "[" instead, which may nest too deep to parse."""
    deep = st.integers(1, 5000).map(lambda n: "[" * n)
    return st.sampled_from(range(8)).flatmap(lambda i: deep if i == 7 else docs.map(json.dumps))


@st.composite
def invocations(draw):
    dim = draw(st.sampled_from([2, 3]))
    body = operands(bodies(dim))
    command = draw(st.sampled_from(["dist", "support", "circ", "cdual-check", "classify", "surjectivity"]))
    if command == "dist":
        return [command, draw(body), draw(body)]
    if command == "support":
        return [command, draw(body), "-u", draw(operands(vector(dim)))]
    if command in ("circ", "cdual-check"):
        return [command, draw(body)]
    if command == "classify":
        return [command, draw(operands(st.one_of(body_maps(dim), PLANAR_MAPS)))]
    return [command, draw(operands(st.one_of(PLANAR_MAPS, body_maps(2)))), "--target", draw(operands(vector(2)))]


def _strict(constant):
    raise ValueError(f"report holds {constant}, which is not JSON")


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_every_generated_invocation_reports_or_exits_with_the_json_error(args):
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    if result.exit_code == 0:
        report = json.loads(result.stdout, parse_constant=_strict)
        assert report["command"] == args[0] and "result" in report
    else:
        assert result.exit_code in DOCUMENTED_EXITS, (args, result.exit_code)
        assert result.stdout == ""
        assert set(json.loads(result.stderr)["error"]) == {"type", "message"}
