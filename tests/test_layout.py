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

The Fraction formulas of :mod:`conflictgames.games` and the evaluator's
set-up in :mod:`conflictgames.fastpath` are the paper's two families: the
cost kinds' (alpha, beta, gamma) formula and one payoff formula, the cut
game being conflict sharing without machine values.  Which edge set a kind
plays on, and so which way a payoff kind's edges pay, is one fact,
``GameKind.friends``: the payoff formulas name no member of the kind, and
neither :mod:`conflictgames.fastpath` nor :mod:`conflictgames.dynamics`
names the kind at all.  An
instance document's values are checked once, by
:func:`conflictgames.games.make_instance`:
:func:`conflictgames.instances.parse_instance` checks only the document's
shape.

One state is evaluated in one place: :class:`conflictgames.fastpath.Walk`,
the move table.  ``StateEvaluator.analyze``, ``social`` and ``potential``
only read a walk, and the pointwise formulas are the test suite's own
reference, in ``reference_evaluator``.  The per-instance
structure of the Fraction API lives on the instance, so no process-wide
cache keeps it, and so does the evaluator: ``StateEvaluator.of`` builds each
instance's one evaluator and keeps it there, and it is the package's only
constructor call.  The kept state table holds no evaluator, the evaluator
holds no instance (no reference cycle), and the edge arrays every run on the
instance reads are read-only.

The exact LP has one tableau: the certificate of
:mod:`conflictgames.simplex` checks its basis on the Bareiss tableau of the
LP's own rows and prices it with the solver's phase-2 helper.

The evaluator's signed edges have one form, the arrays ``ends`` and ``w``
and the per-player ``_sep``, in units of ``unit``: the state table, the move
table and the product-profile expectation ``StateEvaluator.expected`` all
read them, and no second form (``edges`` triples, a ``base`` list, a
``w_sep`` int) is kept.  Only :mod:`conflictgames.fastpath` reads the
evaluator's representation (``mach``, ``pot``, ``ends``, ``w``, ``unit``,
``_sep``, ``_touching``): every other module reads the scales, the tables,
the walks, ``StateEvaluator.expected`` and ``StateEvaluator.symmetric``.
The set-up sums ``_sep`` and ``_touching`` by each edge's sign, with no
counter of where the positive edge groups end.

Every pass reads only the table's columns, the strong scan included: it
tests the states of its candidates' orbits against the columns, and reads
neither every state's digits nor a state-to-column map; only
``Orbits.expand`` reads the states' digits, to list equilibria.
"""

import ast
import pathlib
import random
import re
from fractions import Fraction

import pytest

import conflictgames
from conflictgames import dynamics, oracle
from conflictgames.fastpath import StateEvaluator
from conflictgames.games import GameKind, Instance
from conflictgames.instances import GENERATORS, gen_random

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
    for name in ("_player_value_unchecked", "_social_value_unchecked", "potential",
                 "_paying_weight"):
        members = {
            node.attr for node in ast.walk(games[name])
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "GameKind"
        }
        assert not members, (name, members)


def test_the_evaluator_and_the_dynamics_name_no_kind():
    # which edge set a kind plays on, and which way its edges pay, is
    # GameKind.friends, which the evaluator's set-up reads; the dynamics'
    # sandwich constant reads whether the instance has machine values
    assert not {"fastpath.py", "dynamics.py"} & set(_naming(r"\bGameKind\b"))


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


def test_the_signed_edges_have_one_form():
    # a second form of the edges on the evaluator, or a reader of one in any
    # module, fails here
    forms = {"edges", "base", "w_sep"}
    assert not forms & _methods("fastpath.py", "StateEvaluator").keys()
    assert _reading(forms) == set()


def _reading(attributes: set[str]) -> set[str]:
    """The package modules that read an attribute named in ``attributes``."""
    package = pathlib.Path(conflictgames.__file__).parent
    return {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in attributes
    }


def test_the_lp_has_one_tableau():
    # the certificate pivots the LP's own rows with the solver's
    # fraction-free step and prices them with the solver's phase-2 helper:
    # a second exact solve in simplex fails here
    functions = _functions("simplex.py")
    assert "_fraction_free_solve" not in functions

    def callees(name):
        return {_callee(node) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}

    assert {"_bareiss", "_priced"} <= callees("_certify")
    assert "_priced" in callees("_bland")


def test_only_fastpath_reads_the_evaluator_arrays():
    # the machine terms, the signed edges and their per-player sums are read
    # in fastpath alone: every other module reads the scales, the tables,
    # the walks, StateEvaluator.expected and StateEvaluator.symmetric
    arrays = {"mach", "pot", "ends", "w", "unit", "_sep", "_touching"}
    assert _reading(arrays) == {"fastpath.py"}
    # the set-up reads each edge's sign, not where its group ends
    init = _methods("fastpath.py", "StateEvaluator")["__init__"]
    assert "split" not in {node.id for node in ast.walk(init) if isinstance(node, ast.Name)}


def test_only_the_accessor_builds_evaluators():
    # every evaluator of the package is kept on its instance by
    # StateEvaluator.of: a constructor call anywhere else would build one that
    # no later pass or run finds
    package = pathlib.Path(conflictgames.__file__).parent
    built = {
        path.name: [
            node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and _callee(node) in {"StateEvaluator", "cls"}
        ]
        for path in sorted(package.glob("*.py"))
    }
    of = _methods("fastpath.py", "StateEvaluator")["of"]
    inside = [node.lineno for node in ast.walk(of)
              if isinstance(node, ast.Call) and _callee(node) == "cls"]
    assert len(inside) == 1
    assert {name: lines for name, lines in built.items() if lines} == {"fastpath.py": inside}


def test_the_kept_evaluator_lives_on_its_instance(monkeypatch):
    # the instance holds its evaluator and no reference leads back: the kept
    # table holds no evaluator, the evaluator no instance; and the arrays
    # every run on the instance reads cannot be written
    monkeypatch.setattr(oracle, "_kept", None)
    inst = gen_random(6, 3, GameKind.SWC, Fraction(1, 2), seed=1, weighted=True)
    oracle.optimum(inst)
    dynamics.run_br(inst, dynamics.random_start(inst, random.Random(1)))
    assert len(oracle._kept) == 3 and oracle._kept[0] is inst
    assert not any(isinstance(part, StateEvaluator) for part in oracle._kept)
    ev = StateEvaluator.of(inst)
    assert not hasattr(ev, "inst")
    assert not any(isinstance(value, Instance) for value in vars(ev).values())
    for name in ("ends", "w", "_sep", "_touching"):
        array = getattr(ev, name)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def _names(tree) -> set[str]:
    """Every attribute, variable and definition named in ``tree``."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
    return named


def test_the_strong_scan_reads_only_the_columns():
    # the strong scan tests its candidates' orbits against the columns: a
    # read of every state's digits or of a state-to-column map fails here
    strong = _functions("oracle.py")["strong_nash_set"]
    assert not {"state_digits", "orbit_map", "_index", "_map"} & _names(strong)
    assert not {"orbit_map", "lex"} & _methods("oracle.py", "Orbits").keys()


def test_each_orbits_stands_alone():
    # each oracle cache holds only its own key's data: an Orbits reads no
    # second shape, a string shape's index carries its own states (no
    # states' digits or map read apart from it), the kept table is the
    # instance object's own, and the strong scan lists through no index
    assert not any(
        isinstance(node, ast.Call) and _callee(node) == "orbits_of"
        for method in _methods("oracle.py", "Orbits").values()
        for node in ast.walk(method)
    )
    package = pathlib.Path(conflictgames.__file__).parent
    for path in package.glob("*.py"):
        assert not {"state_digits", "_map"} & _names(ast.parse(path.read_text())), path.name
    ops = {
        type(op)
        for node in ast.walk(_functions("oracle.py")["_whole_table"])
        if isinstance(node, ast.Compare) and "_kept" in _names(node)
        for op in node.ops
    }
    assert ast.Is in ops and not {ast.Eq, ast.NotEq} & ops
    assert "_index" not in _names(_functions("oracle.py")["strong_nash_set"])
