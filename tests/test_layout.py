"""Where the per-kind game formulas live, and where the state space is split
into blocks.

The neighbour lists of :mod:`conflictgames.games` are the per-kind form of a
game; every other module reads the kind-free tables of
:class:`conflictgames.fastpath.StateEvaluator`, so each formula is written
once as Fraction arithmetic and once as scaled integers.  The passes read
whole per-state columns from :func:`conflictgames.oracle.state_columns`, the
one place that iterates over the blocks.
"""

import pathlib
import re

import conflictgames

PER_KIND_HELPERS = re.compile(
    r"\b(conflict_neighbors|friendship_neighbors|weighted_neighbors|sharing_weights)\b"
)


def test_only_games_names_the_neighbour_helpers():
    package = pathlib.Path(conflictgames.__file__).parent
    naming = sorted(
        path.name
        for path in package.glob("*.py")
        if PER_KIND_HELPERS.search(path.read_text())
    )
    assert naming == ["games.py"]


def test_only_fastpath_and_oracle_name_the_state_blocks():
    # the split of the states, or of the orbit strings, into blocks is
    # decided in oracle alone: every other pass reads whole columns
    package = pathlib.Path(conflictgames.__file__).parent
    naming = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"\b(state_blocks|string_blocks)\b", path.read_text())
    )
    assert naming == ["fastpath.py", "oracle.py"]
