"""Where the per-kind game formulas live, where the states are enumerated
and decoded, and where the state space is split into blocks.

The neighbour lists of :mod:`conflictgames.games` are the per-kind form of a
game; every other module reads the kind-free tables of
:class:`conflictgames.fastpath.StateEvaluator`, so each formula is written
once as Fraction arithmetic and once as scaled integers.  The passes read
whole per-state columns from :func:`conflictgames.oracle.state_columns`, the
one place that iterates over the blocks and the only source of state tables.
The column domain is :mod:`conflictgames.oracle`'s alone: the digits of
every column, a state or the restricted growth string of an orbit, and the
blocks they are cut into come from :class:`conflictgames.oracle.Orbits`,
and every one of those from :func:`conflictgames.oracle.orbits_of`, the one
cache that keeps them per shape; :mod:`conflictgames.fastpath` only
evaluates the grids it is handed, and keeps no cache of its own.  The
command line builds instances through
:data:`conflictgames.instances.GENERATORS` alone.

The paper's bound formulas are written once, in
:mod:`conflictgames.smoothness`: the CCE bound that (lambda, mu) implies,
the certified pure-PoA coefficient of the cost kinds and the two-machine
strong-PoA bound.  The tight families split the players of their m parts
into pairs within and across parts once, in :mod:`conflictgames.instances`.

The Fraction formulas of :mod:`conflictgames.games` are the paper's two
families: the cost kinds' (alpha, beta, gamma) formula and one payoff
formula, whose only per-kind fact is that SwF's edges pay together.  An
instance document's values are checked once, by
:func:`conflictgames.games.make_instance`:
:func:`conflictgames.instances.parse_instance` checks only the document's
shape.

One state is evaluated in one place: :class:`conflictgames.fastpath.Walk`,
the move table.  ``StateEvaluator.analyze``, ``social`` and ``potential``
only read a walk, and the pointwise formulas are the test suite's own
reference, in ``reference_evaluator``.  The per-instance
structure of the Fraction API lives on the instance, so no process-wide
cache keeps it.
"""

import ast
import pathlib
import re

import conflictgames
from conflictgames.instances import GENERATORS

PER_KIND_HELPERS = re.compile(
    r"\b(conflict_neighbors|friendship_neighbors|weighted_neighbors|sharing_weights)\b"
)


def _naming(pattern: str) -> list[str]:
    package = pathlib.Path(conflictgames.__file__).parent
    return sorted(
        path.name for path in package.glob("*.py") if re.search(pattern, path.read_text())
    )


def test_only_games_names_the_neighbour_helpers():
    assert _naming(PER_KIND_HELPERS.pattern) == ["games.py"]


def test_only_oracle_names_the_state_blocks():
    # the split of the columns, states or orbit strings, into blocks is
    # decided in oracle alone: every other pass reads whole columns
    assert _naming(r"\bcolumn_blocks\b") == ["oracle.py"]


def test_only_oracle_enumerates_or_decodes_states():
    # every column, a state or an orbit string, is decoded from the digits
    # of oracle.Orbits: a second decoder fails here
    assert _naming(r"\bnp\.indices\b|\blex_states\b") == ["oracle.py"]


def test_fastpath_keeps_no_cache_across_evaluators():
    # the one per-shape cache is oracle.orbits_of: fastpath evaluates the
    # grids it is handed and keeps nothing between evaluators
    assert "fastpath.py" not in _naming(r"\blru_cache\b")


def test_only_oracle_builds_state_tables():
    # every table comes from oracle._whole, behind state_columns, which also
    # widens a pass's table to object when the pass's factor needs that
    assert _naming(r"\.table\(") == ["oracle.py"]
    assert "smoothness.py" not in _naming(r"astype\(object\)")


def test_only_the_accessor_builds_orbits():
    # every Orbits comes from oracle.orbits_of, which keeps one per shape
    # with its index: a second constructor call would build an unshared one
    package = pathlib.Path(conflictgames.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = {name: len(_orbits_calls(tree)) for name, tree in trees.items()}
    assert {name: count for name, count in calls.items() if count} == {"oracle.py": 1}
    accessor = [
        node for node in ast.walk(trees["oracle.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "orbits_of"
    ]
    assert len(accessor) == 1 and len(_orbits_calls(accessor[0])) == 1


def _orbits_calls(tree) -> list:
    """The calls of ``Orbits`` (by name or as an attribute) under ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Orbits"
    ]


def test_only_the_registry_dispatches_to_generators():
    # cli calls every generator through instances.GENERATORS: a per-generator
    # branch names a gen_ function and fails here
    assert all(fn.__name__.startswith("gen_") for fn in GENERATORS.values())
    assert "cli.py" not in _naming(r"\bgen_\w+")


def test_only_smoothness_writes_the_bound_formulas():
    # the CCE bound 1/rho, the pure-PoA coefficient 2 - m/n and the strong
    # bound 4/3 + 2/(3n): a second copy of any of them fails here
    assert _naming(r"1 / params\.rho\b") == ["smoothness.py"]
    assert _naming(r"\b2 - Fraction\(") == ["smoothness.py"]
    scripts = pathlib.Path(__file__).resolve().parents[1] / "scripts"
    assert not [p.name for p in scripts.glob("*.py") if "Fraction(m, n)" in p.read_text()]
    assert _naming(r"Fraction\(4, 3\)|Fraction\(2, 3 \* \w+\)") == ["smoothness.py"]


def test_one_part_split():
    # the m-part families read one split of their pairs: a player's part,
    # ``(p - 1) // m``, is computed on one line of the package
    package = pathlib.Path(conflictgames.__file__).parent
    found = {
        path.name: len(re.findall(r"^.*\(\w+ - 1\) // m\b", path.read_text(), re.M))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: count for name, count in found.items() if count} == {"instances.py": 1}


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    """The module-level functions of one package module, by name."""
    package = pathlib.Path(conflictgames.__file__).parent
    tree = ast.parse((package / module).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _callee(call: ast.Call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_the_formulas_are_two_families():
    # a branch per payoff kind names its GameKind member and fails here
    games = _functions("games.py")
    for name in ("_player_value_unchecked", "_social_value_unchecked", "potential"):
        members = {
            node.attr for node in ast.walk(games[name])
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "GameKind"
        }
        assert members <= {"SWF"}, (name, members)


def test_parse_instance_checks_no_value():
    # the rationals are coerced and checked in make_instance alone: neither
    # parse_instance nor a helper of its module that it calls reads one
    defs = _functions("instances.py")
    called, todo = set(), ["parse_instance"]
    while todo:
        name = todo.pop()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call) and _callee(node) not in called:
                called.add(_callee(node))
                if _callee(node) in defs:
                    todo.append(_callee(node))
    assert not called & {"Fraction", "as_fraction"}


def _methods(module: str, cls: str) -> dict[str, ast.FunctionDef]:
    """The methods of one class of one package module, by name."""
    package = pathlib.Path(conflictgames.__file__).parent
    tree = ast.parse((package / module).read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    return {n.name: n for n in node.body if isinstance(n, ast.FunctionDef)}


def test_one_state_is_evaluated_by_the_move_table():
    # a second pointwise evaluator in the package fails here: the three
    # per-state methods left are one-line reads of self.walk
    methods = _methods("fastpath.py", "StateEvaluator")
    assert not {"loads", "_edge_term", "value", "values"} & methods.keys()
    for name in ("analyze", "social", "potential"):
        body = methods[name].body
        assert len(body) == 1 and isinstance(body[0], ast.Return), name
        calls = [node for node in ast.walk(body[0]) if isinstance(node, ast.Call)]
        assert [(_callee(c), getattr(c.func.value, "id", None)) for c in calls] == [
            ("walk", "self")
        ], name


def test_instances_keep_their_own_structure():
    # the neighbour lists are cached on each instance: no process-wide cache,
    # and no memoized hash for one to look up
    assert "games.py" not in _naming(r"\blru_cache\b")
    assert "__hash__" not in _methods("games.py", "Instance")
