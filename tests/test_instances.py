"""Generators and the instance document format."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import conflictgames
from conflictgames.games import GameKind
from conflictgames.instances import (
    InstanceFormatError,
    gen_bwc_multipartite,
    gen_bwcf_lower,
    gen_bwf_cliques,
    gen_maxcut_edge,
    gen_path4,
    gen_random,
    gen_swc_pos,
    gen_swf_nostrong,
    parse_instance,
    write_instance,
)

from conftest import ALL_KINDS, kind_pool
from reference_instances import gen_random_reference

F = Fraction

# edge probabilities of the stream grid: both ends, powers of two (where
# randrange rejects up to half its words), and dens that are not
STREAM_PROBS = (F(0), F(1), F(1, 2), F(1, 3), F(3, 4), F(1, 16), F(7, 10), F(99, 100), F(1, 1000))

# sha256 over write_instance of every _stream_grid instance, in grid order, as
# the one-randrange-per-trial generator wrote them
STREAM_DIGEST = "0b24281a7cd32424621eb3befbf27c9fec2bd53301a7657450c0ea4eb426c030"


def _stream_grid():
    """(args, kwargs) of gen_random: every kind, n up to 30, m 2-5, the
    STREAM_PROBS, weighted sharing, BwCF with drawn and with given weights,
    seeds 0 and 1; 3150 instances."""
    for kind in ALL_KINDS:
        variants = [{}]
        if kind.sharing:
            variants.append({"weighted": True})
        if kind is GameKind.BWCF:
            variants.append(dict(alpha=1, beta=1, gamma=F(1, 2)))
        for n in (1, 2, 3, 5, 8, 13, 30):
            for m in (2,) if kind is GameKind.MAXCUT else (2, 3, 5):
                for prob in STREAM_PROBS:
                    for kwargs in variants:
                        for seed in (0, 1):
                            yield (n, m, kind, prob, seed), kwargs


class TestNamedGenerators:
    def test_multipartite_structure(self):
        inst = gen_bwc_multipartite(2)
        assert (inst.n, inst.m) == (4, 2)
        assert inst.conflict_edges == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})

    def test_multipartite_m3_edge_count(self):
        inst = gen_bwc_multipartite(3)
        assert inst.n == 9
        assert len(inst.conflict_edges) == 27  # 9*6/2 cross-part pairs

    def test_cliques_structure(self):
        assert gen_bwf_cliques(2).friendship_edges == frozenset({(1, 2), (3, 4)})
        assert len(gen_bwf_cliques(3).friendship_edges) == 9

    def test_bwcf_lower_combines_both(self):
        inst = gen_bwcf_lower(2, 1, 1, 1)
        assert len(inst.friendship_edges) == 2
        assert len(inst.conflict_edges) == 4
        assert not inst.friendship_edges & inst.conflict_edges

    def test_path4(self):
        inst = gen_path4()
        assert inst.conflict_edges == frozenset({(1, 2), (2, 3), (3, 4)})
        assert (inst.n, inst.m) == (4, 2)

    def test_swc_pos_values(self):
        inst = gen_swc_pos(3, F(1, 10))
        assert inst.machine_values == (F(61, 10), F(0), F(0))
        assert len(inst.conflict_edges) == 3  # K_3

    def test_swf_nostrong_values(self):
        inst = gen_swf_nostrong(F(1, 10))
        assert inst.machine_values == (F(21, 10), F(43, 10))
        assert inst.friendship_edges == frozenset({(1, 2), (3, 4)})

    def test_maxcut_edge(self):
        inst = gen_maxcut_edge()
        assert (inst.n, inst.m) == (2, 2)
        assert inst.conflict_edges == frozenset({(1, 2)})

    def test_parameter_validation(self):
        from conflictgames.games import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            gen_bwc_multipartite(1)
        with pytest.raises(InvalidInstanceError):
            gen_swc_pos(3, 0)
        with pytest.raises(InvalidInstanceError):
            gen_swc_pos(3, F(-1, 2))


class TestRandomGenerator:
    def test_deterministic(self):
        a = gen_random(5, 3, GameKind.BWC, F(1, 2), seed=7)
        b = gen_random(5, 3, GameKind.BWC, F(1, 2), seed=7)
        assert a == b

    def test_zero_probability_empty(self):
        inst = gen_random(5, 2, GameKind.BWC, 0, seed=1)
        assert not inst.conflict_edges

    def test_full_probability_complete(self):
        inst = gen_random(5, 2, GameKind.BWC, 1, seed=1)
        assert len(inst.conflict_edges) == 10

    def test_kind_routing_of_edges(self):
        bwf = gen_random(5, 2, GameKind.BWF, F(1, 2), seed=3)
        assert not bwf.conflict_edges and bwf.friendship_edges
        swc = gen_random(5, 2, GameKind.SWC, F(1, 2), seed=3)
        assert swc.machine_values is not None and not swc.friendship_edges

    def test_bwcf_disjoint_and_covers_both_branches(self):
        seen_lo, seen_hi = False, False
        for seed in range(30):
            inst = gen_random(4, 2, GameKind.BWCF, F(1, 2), seed=seed)
            assert not inst.conflict_edges & inst.friendship_edges
            if inst.alpha >= inst.gamma:
                seen_hi = True
            else:
                seen_lo = True
        assert seen_hi and seen_lo

    def test_weighted_sharing(self):
        inst = gen_random(4, 2, GameKind.SWF, 1, seed=5, weighted=True)
        assert inst.edge_weights
        assert all(w > 0 for _, w in inst.edge_weights)

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if not k.sharing],
                             ids=lambda k: k.value)
    def test_weights_only_on_sharing_kinds(self, kind, monkeypatch):
        from conflictgames import instances
        from conflictgames.games import InvalidInstanceError

        def _no_stream(seed):
            raise AssertionError("drew from the stream")

        monkeypatch.setattr(instances.random, "Random", _no_stream)
        m = 2 if kind is GameKind.MAXCUT else 3
        with pytest.raises(InvalidInstanceError) as err:
            gen_random(6, m, kind, 1, seed=1, weighted=True)
        assert err.value.field == "weighted"
        assert str(err.value) == f"weighted: only the sharing kinds take weights, not {kind.value}"

    def test_invalid_probability(self):
        from conflictgames.games import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            gen_random(3, 2, GameKind.BWC, F(3, 2), seed=0)

    def test_documents_are_pinned(self):
        h = hashlib.sha256()
        for args, kwargs in _stream_grid():
            h.update(write_instance(gen_random(*args, **kwargs)).encode())
        assert h.hexdigest() == STREAM_DIGEST

    def test_equals_the_randrange_reference(self):
        # machine values, weights and BwCF's drawn weights read the stream
        # after the edges, so they check where the edges left it
        for args, kwargs in _stream_grid():
            assert gen_random(*args, **kwargs) == gen_random_reference(*args, **kwargs), (
                args, kwargs,
            )

    def test_test_pools_ignore_the_hash_seed(self):
        code = ("from conftest import ALL_KINDS, kind_pool\n"
                "from conflictgames.instances import write_instance\n"
                "print([write_instance(i) for k in ALL_KINDS for i in kind_pool(k, 6)])")
        path = os.pathsep.join([str(Path(__file__).parent),
                                str(Path(conflictgames.__file__).parents[1])])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(outputs) == 1


class TestDocumentFormat:
    def test_round_trip_named(self):
        for inst in (
            gen_path4(),
            gen_bwc_multipartite(3),
            gen_bwf_cliques(2),
            gen_bwcf_lower(2, F(1, 2), 1, 2),
            gen_swc_pos(3, F(1, 10)),
            gen_swf_nostrong(F(1, 10)),
            gen_maxcut_edge(),
        ):
            assert parse_instance(write_instance(inst)) == inst

    def test_round_trip_random_pool(self):
        for kind in ALL_KINDS:
            for inst in kind_pool(kind, 5):
                assert parse_instance(write_instance(inst)) == inst

    def test_exact_rational_survives(self):
        inst = gen_swc_pos(3, F(1, 10))
        text = write_instance(inst)
        assert "61/10" in text
        assert parse_instance(text).machine_values[0] == F(61, 10)

    def test_zero_machine_count_names_field(self):
        text = write_instance(gen_maxcut_edge()).replace('"m": 2', '"m": 0')
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert err.value.field == "m"

    def test_float_value_rejected(self):
        text = write_instance(gen_swc_pos(2, 1)).replace('"3/1"', "3.0")
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_unknown_field_rejected(self):
        text = write_instance(gen_path4()).replace('"kind"', '"extra": 1, "kind"')
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert err.value.field == "extra"

    def test_one_weight_per_edge(self):
        doc = json.loads(write_instance(gen_random(4, 2, GameKind.SWC, 1, seed=3, weighted=True)))
        (a, b, w), rest = doc["edge_weights"][0], doc["edge_weights"][1:]
        for second, field, message in (
            ([b, a, "5/1"], "edge_weights", f"two weights for edge ({a}, {b})"),
            ([a, b, "5/1"], "edge_weights[1]", f"two weights for edge ({a}, {b})"),
        ):
            doc["edge_weights"] = [[a, b, w], second] + rest
            with pytest.raises(InstanceFormatError) as err:
                parse_instance(json.dumps(doc))
            assert err.value.field == field
            assert str(err.value).endswith(f"{field}: {message}")

    @pytest.mark.parametrize("field, edit", [
        ("n", lambda doc: doc.update(n=0)),
        ("n", lambda doc: doc.update(n="3")),
        ("n", lambda doc: doc.update(n=True)),
        ("machine_values[1]", lambda doc: doc["machine_values"].__setitem__(1, 1.5)),
        ("alpha", lambda doc: doc.update(alpha=0.5)),
        ("alpha", lambda doc: doc.update(alpha=None)),
        ("machine_values", lambda doc: doc.update(machine_values=None)),
        ("conflict_edges", lambda doc: doc["conflict_edges"].__setitem__(0, ["1", 2])),
        ("conflict_edges", lambda doc: doc.update(conflict_edges=5)),
        ("edge_weights[0]", lambda doc: doc["edge_weights"][0].pop()),
        ("edge_weights[6]", lambda doc: doc["edge_weights"].append(doc["edge_weights"][0])),
        ("kind", lambda doc: doc.update(kind="SwX")),
    ], ids=[
        "n-zero", "n-string", "n-bool", "float-value", "float-alpha", "null-alpha",
        "null-values", "string-endpoint", "edges-not-a-list", "two-entry-triple",
        "edge-weighted-twice", "unknown-kind",
    ])
    def test_malformed_document_names_its_field_once(self, field, edit):
        doc = json.loads(write_instance(gen_random(4, 2, GameKind.SWC, 1, seed=3, weighted=True)))
        assert len(doc["edge_weights"]) == 6  # K_4, every edge weighted
        edit(doc)
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(json.dumps(doc))
        assert err.value.field == field
        assert str(err.value).count(f"{field}: ") == 1

    def test_not_json(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("kind: BwC")

    def test_missing_required_field(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance('{"kind": "BwC", "n": 2}')
        assert err.value.field == "m"

    def test_write_is_deterministic(self):
        a = write_instance(gen_random(5, 3, GameKind.SWC, F(1, 2), seed=9, weighted=True))
        b = write_instance(gen_random(5, 3, GameKind.SWC, F(1, 2), seed=9, weighted=True))
        assert a == b
