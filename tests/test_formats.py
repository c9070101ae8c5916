"""graph6 and edge-list serialization."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import samples
from szegedtools import (
    FormatError,
    Graph,
    cycle,
    emit_edge_list,
    emit_graph6,
    graph_from_edges,
    parse_edge_list,
    parse_graph6,
    star,
)


class TestGraph6:
    def test_known_encodings(self):
        assert emit_graph6(samples.k3()) == "Bw"
        assert emit_graph6(cycle(4)) == "Cl"

    def test_known_decodings(self):
        assert parse_graph6("Bw").edges == ((0, 1), (0, 2), (1, 2))
        g = parse_graph6("Cl")
        assert (g.n, g.m) == (4, 4)

    def test_optional_header_accepted(self):
        assert parse_graph6(">>graph6<<Bw").edges == parse_graph6("Bw").edges

    def test_roundtrip_named_samples(self):
        for factory in (
            samples.k3,
            samples.c4,
            samples.c5,
            samples.paw,
            samples.butterfly,
            samples.two_triangles_bridge,
            samples.k4,
            lambda: star(10),
            lambda: graph_from_edges(1, []),
        ):
            g = factory()
            h = parse_graph6(emit_graph6(g))
            assert (h.n, h.edge_set) == (g.n, g.edge_set)

    def test_roundtrip_random_graphs(self):
        rng = random.Random(8675309)
        for _ in range(40):
            n = rng.randint(1, 30)
            all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in all_edges if rng.random() < 0.2]
            g = graph_from_edges(n, edges)
            h = parse_graph6(emit_graph6(g))
            assert (h.n, h.edge_set) == (g.n, g.edge_set)

    def test_emit_agrees_with_networkx(self):
        rng = random.Random(24601)
        for _ in range(30):
            n = rng.randint(1, 25)
            all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in all_edges if rng.random() < 0.3]
            g = graph_from_edges(n, edges)
            # node insertion order fixes the labeling networkx encodes
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            want = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert emit_graph6(g) == want

    def test_parse_agrees_with_networkx(self):
        rng = random.Random(1066)
        for _ in range(30):
            n = rng.randint(1, 25)
            h = nx.gnp_random_graph(n, 0.3, seed=rng.randrange(2**32))
            text = nx.to_graph6_bytes(h, header=False).decode().strip()
            g = parse_graph6(text)
            assert g.n == h.number_of_nodes()
            assert g.edge_set == {
                (min(u, v), max(u, v)) for u, v in h.edges()
            }

    @pytest.mark.parametrize(
        "bad",
        ["", "B", "Bw ", "Bw\x7f", "~???", ">>graph6<<", "?", "Bw\nBw"],
    )
    def test_bad_inputs_raise_format_error(self, bad):
        with pytest.raises(FormatError):
            parse_graph6(bad)

    def test_error_reports_byte_offset(self):
        with pytest.raises(FormatError, match="byte offset 1"):
            parse_graph6("B")
        with pytest.raises(FormatError, match="byte offset 2"):
            parse_graph6("Bw junk")

    def test_emit_refuses_more_vertices_than_graph6_holds(self):
        with pytest.raises(FormatError, match="n <= 258047, got n = 258048"):
            emit_graph6(Graph(258048, []))

    def test_long_form_rejected_both_ways(self):
        with pytest.raises(FormatError):
            parse_graph6("~???")
        h = nx.star_graph(69)
        want = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert emit_graph6(star(70)) == want

    @pytest.mark.parametrize("n", [63, 70, 300])
    def test_long_form_round_trip_against_networkx(self, n):
        rng = random.Random(n)
        h = nx.gnp_random_graph(n, 0.05, seed=rng.randrange(2**32))
        text = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert text.startswith("~")
        g = parse_graph6(text)
        assert g.n == n
        assert g.edge_set == {(min(u, v), max(u, v)) for u, v in h.edges()}
        assert emit_graph6(g) == text
        # The parsed graph keeps ``text``; a fresh copy is encoded.
        assert emit_graph6(graph_from_edges(g.n, g.edges)) == text

    @pytest.mark.parametrize(
        "bad,offset",
        [("~", 1), ("~?@", 3), (">>graph6<<~?", 12), ("~\x7f??", 1), ("~??}", 0), ("~~???", 0)],
    )
    def test_long_form_header_errors_report_offsets(self, bad, offset):
        with pytest.raises(FormatError, match=f"byte offset {offset}\\)"):
            parse_graph6(bad)

    def test_long_form_payload_offsets_count_the_header(self):
        text = emit_graph6(star(70))
        with pytest.raises(FormatError, match=f"byte offset {len(text)}\\)"):
            parse_graph6(text + "?")

    def test_emit_keeps_the_string_on_the_graph(self):
        g = star(70)
        text = emit_graph6(g)
        assert g._g6 is text
        assert emit_graph6(g) is text
        assert text == emit_graph6(graph_from_edges(g.n, g.edges))

    @pytest.mark.parametrize("text", ["Bw", "Cl", emit_graph6(star(70))])
    @pytest.mark.parametrize("header", ["", ">>graph6<<"])
    def test_parse_keeps_its_input_string(self, text, header):
        g = parse_graph6(header + text + "\n")
        assert g._g6 == text
        assert emit_graph6(g) == text
        assert emit_graph6(graph_from_edges(g.n, g.edges)) == text

    @pytest.mark.parametrize(
        "bad,offset",
        [
            # n = 3 has 3 pair bits and 3 padding bits in its one byte.
            ("B@", 1),
            (">>graph6<<B@", 11),
            # n = 63 has 1953 pair bits in 326 bytes: 3 padding bits.
            ("~??~" + "?" * 325 + "@", 329),
        ],
    )
    def test_nonzero_padding_bits_are_reported_at_the_last_byte(self, bad, offset):
        match = f"nonzero padding bits \\(byte offset {offset}\\)"
        with pytest.raises(FormatError, match=match):
            parse_graph6(bad)


HEADER = ">>graph6<<"


@st.composite
def graph6_texts(draw):
    """graph6 of a random graph with a non-empty payload, short or long form."""
    n = draw(st.one_of(st.integers(2, 20), st.integers(63, 70)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = rng.random()
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    return emit_graph6(graph_from_edges(n, edges))


def _offset(text: str) -> int:
    with pytest.raises(FormatError) as info:
        parse_graph6(text)
    return info.value.offset


def _head_len(text: str) -> int:
    return 4 if text.startswith("~") else 1


# Any character outside 63..126, newline included: a bad last byte that the
# trailing-newline strip removes is reported as truncation at that offset.
BAD_BYTES = st.characters().filter(lambda ch: not 63 <= ord(ch) <= 126)


class TestGraph6ErrorOffsets:
    """The documented byte offsets of ``parse_graph6`` errors, fuzzed."""

    @settings(max_examples=200, deadline=None)
    @given(graph6_texts(), st.data(), BAD_BYTES, st.booleans())
    def test_bad_payload_byte_is_reported_at_its_index(self, text, data, bad, prefixed):
        i = data.draw(st.integers(_head_len(text), len(text) - 1))
        broken = text[:i] + bad + text[i + 1 :]
        base = len(HEADER) if prefixed else 0
        assert _offset(HEADER * prefixed + broken) == base + i

    @settings(max_examples=200, deadline=None)
    @given(graph6_texts(), st.data(), st.booleans())
    def test_truncated_payload_is_reported_at_its_end(self, text, data, prefixed):
        cut = data.draw(st.integers(_head_len(text), len(text) - 1))
        short = HEADER * prefixed + text[:cut]
        assert _offset(short) == len(short)

    @settings(max_examples=200, deadline=None)
    @given(
        graph6_texts(),
        st.text(st.characters().filter(lambda ch: ch != "\n"), min_size=1),
        st.booleans(),
    )
    def test_extended_payload_is_reported_after_the_payload(self, text, extra, prefixed):
        base = len(HEADER) if prefixed else 0
        assert _offset(HEADER * prefixed + text + extra) == base + len(text)


class TestEdgeList:
    def test_emit_known(self):
        assert emit_edge_list(cycle(3)) == "3 3\n0 1\n0 2\n1 2\n"

    def test_roundtrip(self):
        for factory in (samples.paw, samples.butterfly, lambda: star(7)):
            g = factory()
            h = parse_edge_list(emit_edge_list(g))
            assert (h.n, h.edge_set) == (g.n, g.edge_set)

    def test_parse_known(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "3",
            "x y\n0 1",
            "3 1\n0 1\n0 2",
            "3 2\n0 1",
            "2 1\n0 0",
            "3 2\n0 1\n0 1",
            "3 1\n0 1 extra",
            "3 1\n0 9",
            "2 1\n0 x\n",
        ],
    )
    def test_bad_inputs_raise_format_error(self, bad):
        with pytest.raises(FormatError):
            parse_edge_list(bad)


class TestCrossFormat:
    def test_edge_list_and_graph6_agree(self):
        rng = random.Random(555)
        for _ in range(15):
            n = rng.randint(2, 12)
            edges = oracles.random_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            via_g6 = parse_graph6(emit_graph6(g))
            via_el = parse_edge_list(emit_edge_list(g))
            assert via_g6.edge_set == via_el.edge_set == g.edge_set
