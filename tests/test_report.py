"""The reproduction batteries and verdict rendering."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conflictgames.report import reproduce_bound_table, reproduce_named_examples
from conflictgames.verdicts import (
    CSV_HEADER,
    frac_str,
    make_verdict,
    render_csv,
    render_text,
)

F = Fraction


# every row of the named battery, in order: (claim id, instance, relation,
# bound).  A closed form that moves and changes a bound, or a row dropped,
# added or reordered, fails here.
NAMED_ROWS = (
    ("bwc.multipartite.m2.opt", "bwc-multipartite(m=2)", "==", "8/1"),
    ("bwc.multipartite.m2.worst_pure_ne", "bwc-multipartite(m=2)", "==", "12/1"),
    ("bwc.multipartite.m2.pure_poa", "bwc-multipartite(m=2)", "==", "3/2"),
    ("bwc.multipartite.m2.uniform_value", "bwc-multipartite(m=2)", "==", "0/1"),
    ("bwc.multipartite.m2.uniform_is_mixed_ne", "bwc-multipartite(m=2)", "==", "1/1"),
    ("bwc.multipartite.m2.semi_smooth", "bwc-multipartite(m=2)", "==", "1/1"),
    ("bwc.multipartite.m2.worst_cce", "bwc-multipartite(m=2)", "==", "14/1"),
    ("bwc.multipartite.m2.cce_ratio", "bwc-multipartite(m=2)", "==", "7/4"),
    ("bwc.multipartite.m3.opt", "bwc-multipartite(m=3)", "==", "27/1"),
    ("bwc.multipartite.m3.worst_pure_ne", "bwc-multipartite(m=3)", "==", "45/1"),
    ("bwc.multipartite.m3.pure_poa", "bwc-multipartite(m=3)", "==", "5/3"),
    ("bwc.multipartite.m3.uniform_value", "bwc-multipartite(m=3)", "==", "0/1"),
    ("bwc.multipartite.m3.uniform_is_mixed_ne", "bwc-multipartite(m=3)", "==", "1/1"),
    ("bwc.multipartite.m3.semi_smooth", "bwc-multipartite(m=3)", "==", "1/1"),
    ("bwf.cliques.m2.opt", "bwf-cliques(m=2)", "==", "8/1"),
    ("bwf.cliques.m2.worst_pure_ne", "bwf-cliques(m=2)", "==", "12/1"),
    ("bwf.cliques.m2.pure_poa", "bwf-cliques(m=2)", "==", "3/2"),
    ("bwcf.lower.m2.opt", "bwcf-lower(m=2,a=1,b=1,g=1)", "==", "8/1"),
    ("bwcf.lower.m2.uniform_value", "bwcf-lower(m=2,a=1,b=1,g=1)", "==", "4/1"),
    ("bwcf.lower.m2.uniform_value_mismatches", "bwcf-lower(m=2,a=1,b=1,g=1)", "==", "0/1"),
    ("bwcf.lower.m2.uniform_is_mixed_ne", "bwcf-lower(m=2,a=1,b=1,g=1)", "==", "1/1"),
    ("bwcf.lower.m2.mixed_ratio_tight", "bwcf-lower(m=2,a=1,b=1,g=1)", "==", "2/1"),
    ("bwcf.lower.m2.semi_smooth", "bwcf-lower(m=2,a=1,b=1,g=1)", "==", "1/1"),
    ("path4.opt", "path4", "==", "8/1"),
    ("path4.strong_has_opt", "path4", "==", "1/1"),
    ("path4.worst_strong_value", "path4", "==", "10/1"),
    ("path4.strong_poa", "path4", "==", "5/4"),
    ("path4.strong_poa_bound", "path4", "<=", "3/2"),
    ("bwc.strong.n2.poa_is_one", "all conflict graphs, n=2, m=2", "==", "0/1"),
    ("bwc.strong.n3.poa_is_one", "all conflict graphs, n=3, m=2", "==", "0/1"),
    ("bwc.strong.n2.opt_is_strong", "random BwC m=2 n=2 x3", "==", "0/1"),
    ("bwc.strong.n2.poa_bound", "random BwC m=2 n=2 x3", "<=", "5/3"),
    ("bwc.strong.n3.opt_is_strong", "random BwC m=2 n=3 x3", "==", "0/1"),
    ("bwc.strong.n3.poa_bound", "random BwC m=2 n=3 x3", "<=", "14/9"),
    ("bwc.strong.n4.opt_is_strong", "random BwC m=2 n=4 x3", "==", "0/1"),
    ("bwc.strong.n4.poa_bound", "random BwC m=2 n=4 x3", "<=", "3/2"),
    ("bwc.strong.n5.opt_is_strong", "random BwC m=2 n=5 x3", "==", "0/1"),
    ("bwc.strong.n5.poa_bound", "random BwC m=2 n=5 x3", "<=", "22/15"),
    ("bwc.strong.n6.opt_is_strong", "random BwC m=2 n=6 x3", "==", "0/1"),
    ("bwc.strong.n6.poa_bound", "random BwC m=2 n=6 x3", "<=", "13/9"),
    ("bwc.strong.n7.opt_is_strong", "random BwC m=2 n=7 x3", "==", "0/1"),
    ("bwc.strong.n7.poa_bound", "random BwC m=2 n=7 x3", "<=", "10/7"),
    ("bwc.strong.n8.opt_is_strong", "random BwC m=2 n=8 x3", "==", "0/1"),
    ("bwc.strong.n8.poa_bound", "random BwC m=2 n=8 x3", "<=", "17/12"),
    ("swc.pos.eps2.unique_ne", "swc-pos(m=3,eps=1/2)", "==", "1/1"),
    ("swc.pos.eps2.ne_state", "swc-pos(m=3,eps=1/2)", "==", "1/1"),
    ("swc.pos.eps2.pos", "swc-pos(m=3,eps=1/2)", "==", "25/13"),
    ("swc.pos.eps10.unique_ne", "swc-pos(m=3,eps=1/10)", "==", "1/1"),
    ("swc.pos.eps10.ne_state", "swc-pos(m=3,eps=1/10)", "==", "1/1"),
    ("swc.pos.eps10.pos", "swc-pos(m=3,eps=1/10)", "==", "121/61"),
    ("swc.pos.eps100.unique_ne", "swc-pos(m=3,eps=1/100)", "==", "1/1"),
    ("swc.pos.eps100.ne_state", "swc-pos(m=3,eps=1/100)", "==", "1/1"),
    ("swc.pos.eps100.pos", "swc-pos(m=3,eps=1/100)", "==", "1201/601"),
    ("swc.pos.monotone_to_2", "swc-pos(m=3) eps sweep", "==", "1/1"),
    ("swf.nostrong.strong_ne_count", "swf-nostrong(eps=1/10)", "==", "0/1"),
    ("swf.nostrong.has_pure_ne", "swf-nostrong(eps=1/10)", "==", "1/1"),
    ("maxcut.edge.opt", "maxcut-edge", "==", "2/1"),
    ("maxcut.edge.lhs_is_edge_count", "maxcut-edge", "==", "0/1"),
    ("maxcut.edge.semi_smooth_half", "maxcut-edge", "==", "1/1"),
    ("maxcut.edge.pure_sigma_rho", "maxcut-edge", "==", "1/3"),
    ("maxcut.edge.worst_cce", "maxcut-edge", "==", "1/1"),
)


@pytest.fixture(scope="module")
def named_rows():
    return reproduce_named_examples()


class TestNamedBattery:
    def test_zero_failures(self, named_rows):
        failures = [r for r in named_rows if not r.passed]
        assert failures == []

    def test_key_rows_present_with_expected_values(self, named_rows):
        by_id = {r.claim_id: r for r in named_rows}
        assert by_id["bwc.multipartite.m2.worst_cce"].measured == 14
        assert by_id["bwc.multipartite.m2.cce_ratio"].measured == F(7, 4)
        assert by_id["bwc.multipartite.m3.pure_poa"].measured == F(5, 3)
        assert by_id["path4.strong_poa"].measured == F(5, 4)
        assert by_id["path4.strong_poa_bound"].bound == F(3, 2)
        assert by_id["path4.strong_poa_bound"].slack == F(1, 4)
        assert by_id["swf.nostrong.strong_ne_count"].measured == 0
        assert by_id["maxcut.edge.worst_cce"].measured == 1

    def test_pos_sweep_monotone(self, named_rows):
        by_id = {r.claim_id: r for r in named_rows}
        ratios = [
            by_id["swc.pos.eps2.pos"].measured,
            by_id["swc.pos.eps10.pos"].measured,
            by_id["swc.pos.eps100.pos"].measured,
        ]
        assert ratios[0] < ratios[1] < ratios[2] < 2
        assert ratios[1] == F(121, 61)

    def test_reproducible(self, named_rows):
        assert reproduce_named_examples() == named_rows

    def test_rows_pinned(self, named_rows):
        listed = tuple(
            (r.claim_id, r.instance, r.relation, frac_str(r.bound)) for r in named_rows
        )
        assert len(NAMED_ROWS) == 61
        assert listed == NAMED_ROWS


class TestBoundTable:
    def test_zero_failures_small_run(self):
        rows = reproduce_bound_table(trials=6, seed=1)
        assert rows and all(r.passed for r in rows)
        ids = {r.claim_id for r in rows}
        for kind in ("bwc", "bwf", "bwcf", "swc", "swf"):
            assert f"table.{kind}.semi_smooth" in ids
        assert "table.bwc.tight" in ids

    def test_tight_rows_are_the_named_rows(self, named_rows):
        # the table pins each bound with the named battery's row, under a
        # table id, and ends with them
        by_id = {r.claim_id: r for r in named_rows}
        expected = [
            replace(by_id["bwc.multipartite.m2.cce_ratio"], claim_id="table.bwc.tight"),
            replace(by_id["bwf.cliques.m2.pure_poa"], claim_id="table.bwf.tight"),
            replace(
                by_id["bwcf.lower.m2.mixed_ratio_tight"],
                claim_id="table.bwcf.lower.m2.mixed_ratio_tight",
            ),
        ] + [
            replace(r, claim_id=f"table.{r.claim_id}")
            for r in named_rows
            if r.claim_id.startswith("swc.pos.")
        ]
        rows = reproduce_bound_table(max_n=2, max_m=2, trials=1)
        assert len(expected) == 3 + 10
        assert rows[-len(expected):] == expected


class TestRendering:
    def test_csv_shape(self):
        rows = [
            make_verdict("a.b", "inst", F(3, 2), F(3, 2), "=="),
            make_verdict("c.d", "inst, with comma", 1, 0, "<="),
        ]
        text = render_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "a.b,inst,3/2,3/2,pass,0/1"
        assert lines[2].startswith('c.d,"inst, with comma",1/1,0/1,pass')

    def test_text_counts(self):
        rows = [make_verdict("x", "i", 1, 2, "==")]
        out = render_text(rows)
        assert "FAIL" in out and "0 passed" in out

    def test_frac_str(self):
        assert frac_str(F(5)) == "5/1"
        assert frac_str(None) == "undefined"

    def test_bad_relation(self):
        with pytest.raises(ValueError):
            make_verdict("x", "i", 1, 1, "<")
