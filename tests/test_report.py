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
