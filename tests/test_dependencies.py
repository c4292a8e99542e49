"""Semantic dependency analysis (the dashed arrows of Fig. 3)."""

import pytest

from repro.adts import Counter, FifoQueue, MemoryADT, WindowStream
from repro.core import History
from repro.criteria import mandatory_edges, semantic_dependencies
from repro.criteria.explain import explain
from repro.litmus import fig3b, fig3e


class TestMemoryDependencies:
    def test_unique_write_is_mandatory(self):
        mem = MemoryADT("a")
        h = History.from_processes(
            [[mem.write("a", 5)], [mem.read("a", 5)]]
        )
        deps = semantic_dependencies(h, mem)
        assert len(deps) == 1
        assert deps[0].mandatory and (deps[0].source, deps[0].target) == (0, 1)

    def test_duplicate_writes_not_mandatory(self):
        mem = MemoryADT("a")
        h = History.from_processes(
            [[mem.write("a", 5)], [mem.write("a", 5)], [mem.read("a", 5)]]
        )
        deps = semantic_dependencies(h, mem)
        assert len(deps) == 2
        assert not any(d.mandatory for d in deps)
        assert mandatory_edges(h, mem) == []

    def test_default_reads_have_no_dependency(self):
        mem = MemoryADT("a")
        h = History.from_processes([[mem.read("a", 0)]])
        assert semantic_dependencies(h, mem) == []


class TestWindowAndQueueDependencies:
    def test_fig3b_arrows_match_the_prose(self):
        """Sec. 3.2: w(1) --> r/(0,1) and w(2) --> r/(2,1) (and w(1) -->
        r/(2,1) since value 1 is read there too)."""
        litmus = fig3b()
        edges = set(mandatory_edges(litmus.history, litmus.adt))
        h = litmus.history
        # event ids: 0=w(1), 1=r/(2,1), 2=r/(0,1), 3=w(2)
        assert (0, 2) in edges  # w(1) explains r/(0,1)
        assert (3, 1) in edges  # w(2) explains r/(2,1)
        assert (0, 1) in edges  # w(1) explains r/(2,1)

    def test_queue_pop_dependencies(self):
        litmus = fig3e()
        deps = semantic_dependencies(litmus.history, litmus.adt)
        # pops of value 1 have two candidate pushes (two push(1) events)
        pops_of_1 = [d for d in deps if d.label == "pop=1"]
        assert pops_of_1 and not any(d.mandatory for d in pops_of_1)
        # pop of 3 has a unique pusher
        pops_of_3 = [d for d in deps if d.label == "pop=3"]
        assert pops_of_3 and all(d.mandatory for d in pops_of_3)

    def test_window_stream_reads(self):
        w2 = WindowStream(2)
        h = History.from_processes(
            [[w2.write(1)], [w2.write(2)], [w2.read(1, 2)]]
        )
        edges = set(mandatory_edges(h, w2))
        assert edges == {(0, 2), (1, 2)}


class TestRendering:
    """Failure explanations draw the mandatory dependencies as arrows."""

    def test_render_contains_arrows(self):
        litmus = fig3b()
        text = explain(litmus.history, litmus.adt, "CC").render(litmus.history)
        edges = mandatory_edges(litmus.history, litmus.adt)
        assert edges and text.count(" --> ") == len(edges)

    def test_render_empty(self):
        w2 = WindowStream(2)
        h = History.from_processes([[w2.write(1), w2.read(0, 5)]])
        assert mandatory_edges(h, w2) == []
        text = explain(h, w2, "WCC").render(h)
        assert "locally inexplicable" in text and "-->" not in text

    def test_unsupported_adt_rejected(self):
        c = Counter()
        h = History.from_processes([[c.inc()]])
        with pytest.raises(TypeError):
            semantic_dependencies(h, c)
