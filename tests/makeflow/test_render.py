"""Unit tests for the Makeflow renderer (the property suite covers the
round-trip; these cover the textual surface)."""

from __future__ import annotations

from repro.makeflow.parser import parse_makeflow
from repro.makeflow.render import render_makeflow, write_makeflow_file
from repro.workloads.blast import blast_multistage
from repro.workloads.synthetic import fan_in_out, uniform_bag
from repro.makeflow.dag import WorkflowGraph


class TestRendering:
    def test_header_comment_included(self):
        g = WorkflowGraph(uniform_bag(2))
        text = render_makeflow(g, header_comment="generated\nby tests")
        assert text.startswith("# generated\n# by tests\n")

    def test_size_lines_sorted_and_cache_flagged(self):
        g = blast_multistage((3, 1, 2))
        text = render_makeflow(g)
        size_lines = [l for l in text.splitlines() if l.startswith(".SIZE")]
        assert size_lines == sorted(size_lines)
        assert any("blast-db.tar" in l and "CACHE" in l for l in size_lines)

    def test_rules_in_topological_order(self):
        g = fan_in_out(3)
        text = render_makeflow(g)
        # The reducer's rule must come after every mapper rule.
        reduce_pos = text.index("reduce.out:")
        for i in range(3):
            assert text.index(f"map.out.{i:05d}:") < reduce_pos

    def test_attribute_blocks_not_repeated_for_same_category(self):
        g = WorkflowGraph(uniform_bag(5, category="same"))
        text = render_makeflow(g)
        assert text.count("CATEGORY=same") == 1

    def test_written_file_parses(self, tmp_path):
        g = blast_multistage((4, 2, 2))
        path = tmp_path / "wf.mf"
        write_makeflow_file(g, str(path), header_comment="BLAST export")
        reparsed = parse_makeflow(path.read_text())
        assert len(reparsed) == 8

    def test_render_parse_preserves_command(self):
        g = blast_multistage((2, 1, 1))
        reparsed = parse_makeflow(render_makeflow(g))
        original_cmds = sorted(t.command for t in g.tasks)
        reparsed_cmds = sorted(t.command for t in reparsed.tasks)
        assert original_cmds == reparsed_cmds
