"""Command-line interface: outputs, formats, and exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from spies import count_calls_on
from szegedtools import (
    BundleSpec,
    Graph,
    InfeasibleError,
    QuarterInt,
    are_isomorphic,
    bundle,
    certificate,
    cycle,
    edge_revised_szeged,
    emit_graph6,
    graph_from_edges,
    minimum_bound,
    parse_graph6,
    path,
    triangle_bundle,
)
import szegedtools
from szegedtools import enumeration, families, graphs, verify
from szegedtools.cli import _FAMILIES, main


def run_cli(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


class TestCompute:
    def test_json_output(self):
        code, out, err = run_cli(["compute", "--g6", "Bw"])
        assert code == 0
        body = json.loads(out)
        assert sorted(body["meta"].keys()) == [
            "seed",
            "tool_version",
            "wall_ms",
            "workers",
        ]
        (result,) = body["results"]
        assert result["graph6"] == "Bw"
        assert result["n"] == 3 and result["m"] == 3
        assert result["wiener"] == 3
        assert result["szeged"] == 3
        assert result["edge_revised_szeged"] == {"num": 27, "den": 4}
        assert result["edge_revised_szeged_decimal"] == "6.75"

    def test_edges_flag_adds_partitions(self):
        code, out, _ = run_cli(["compute", "--g6", "Bw", "--edges"])
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["edges"] == [
            {"edge": [0, 1], "m_u": 1, "m_v": 1, "m_0": 1},
            {"edge": [0, 2], "m_u": 1, "m_v": 1, "m_0": 1},
            {"edge": [1, 2], "m_u": 1, "m_v": 1, "m_0": 1},
        ]

    def test_csv_refuses_edges(self):
        # The CSV has one row per graph and no edge columns.
        argv = ["compute", "--g6", "Bw", "--edges", "--format", "csv"]
        message = "error: compute --format csv takes no --edges\n"
        assert run_cli(argv) == (2, "", message)

    def test_csv_output(self):
        code, out, _ = run_cli(["compute", "--g6", "Bw", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "graph6,n,m,wiener,szeged,edge_revised_szeged_num,"
            "edge_revised_szeged_den,edge_revised_szeged_decimal"
        )
        assert lines[1] == "Bw,3,3,3,3,27,4,6.75"

    def test_human_output(self):
        code, out, _ = run_cli(["compute", "--g6", "Bw", "--format", "human"])
        assert code == 0
        assert "27/4 = 6.75" in out

    def test_human_output_with_edges(self):
        argv = ["compute", "--g6", "Bw", "--edges", "--format", "human"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-3:] == [
            "  edge (0,1): m_u=1 m_v=1 m_0=1",
            "  edge (0,2): m_u=1 m_v=1 m_0=1",
            "  edge (1,2): m_u=1 m_v=1 m_0=1",
        ]

    def test_stdin_reads_one_graph_per_line(self):
        code, out, _ = run_cli(["compute", "--stdin"], stdin="Bw\nCl\n")
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["graph6"] for r in results] == ["Bw", "Cl"]

    def test_file_input_is_an_edge_list(self, tmp_path):
        p = tmp_path / "triangle.el"
        p.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run_cli(["compute", "--file", str(p)])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["n"] == 3
        assert result["edge_revised_szeged"] == {"num": 27, "den": 4}

    def test_file_input_beyond_graph6_short_form(self, tmp_path):
        p = tmp_path / "path100.el"
        p.write_text("100 99\n" + "".join(f"{i} {i + 1}\n" for i in range(99)))
        code, out, _ = run_cli(["compute", "--file", str(p)])
        assert code == 0
        result = json.loads(out)["results"][0]
        want = nx.to_graph6_bytes(nx.path_graph(100), header=False)
        assert result["graph6"] == want.decode().strip()
        assert result["edge_revised_szeged"] == edge_revised_szeged(
            path(100)
        ).to_dict()

    def test_graph6_content_in_edge_list_file_is_a_parse_error(self, tmp_path):
        p = tmp_path / "wrong.el"
        p.write_text("Bw\n")
        assert run_cli(["compute", "--file", str(p)])[0] == 2

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli(["compute", "--file", "/no/such/file"])
        assert code == 2
        assert "error" in err

    def test_non_ascii_file_is_usage_error(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_bytes(b"3 2\n0 1\n1 2\xff\n")
        code, out, err = run_cli(["compute", "--file", str(p)])
        assert (code, out) == (2, "")
        assert err == f"error: {p} is not ascii text (byte offset 11)\n"

    def test_undecodable_stdin_is_usage_error(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"B\xffw\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(["compute", "--stdin"])
        assert (code, out) == (2, "")
        assert err == "error: standard input is not utf-8 text (byte offset 1)\n"

    def test_bad_graph6_is_usage_error(self):
        code, _, err = run_cli(["compute", "--g6", "###"])
        assert code == 2
        assert "byte offset" in err

    def test_bad_graph6_on_stdin_names_its_line(self):
        # The offset counts from the start of the named line.
        code, out, err = run_cli(["compute", "--stdin"], stdin="Bw\nCl\nB \n")
        assert (code, out) == (2, "")
        assert err == (
            "error: line 3: truncated graph6 payload: "
            "expected 1 bytes, got 0 (byte offset 1)\n"
        )

    def test_blank_stdin_is_usage_error(self):
        code, out, err = run_cli(["compute", "--stdin"], stdin="\n  \n\n")
        assert (code, out) == (2, "")
        assert err == "error: no graph6 lines on standard input\n"

    def test_disconnected_graph_exit_code(self):
        code, _, err = run_cli(["compute", "--g6", "A?"])
        assert code == 3
        assert "not connected" in err

    def test_no_input_flag_is_usage_error(self):
        assert run_cli(["compute"])[0] == 2


class TestBuild:
    def test_quadrangle_bundle_golden_encoding(self):
        code, out, _ = run_cli(["build", "c1", "--n", "4", "--k", "1"])
        assert code == 0
        assert out == "Cl\n"

    def test_c0(self):
        code, out, _ = run_cli(["build", "c0", "--n", "4", "--k", "1"])
        assert code == 0
        built = parse_graph6(out.strip())
        assert are_isomorphic(built, triangle_bundle(4, 1))

    def test_infeasible_exit_code(self):
        code, _, err = run_cli(["build", "c1", "--n", "4", "--k", "2"])
        assert code == 4
        assert "n >= 3k+1" in err

    def test_tail_needs_spare_pendant(self):
        assert run_cli(["build", "g_star_1", "--n", "5", "--k", "1"])[0] == 4
        assert run_cli(["build", "g_star_1", "--n", "6", "--k", "1"])[0] == 0

    def test_bundle_with_lengths(self):
        code, out, _ = run_cli(
            ["build", "bundle", "--lengths", "3,3", "--pendants", "0"]
        )
        assert code == 0
        built = parse_graph6(out.strip())
        assert are_isomorphic(built, bundle(BundleSpec((3, 3), 0)))

    def test_long_form_beyond_62_vertices(self):
        code, out, _ = run_cli(["build", "cycle", "--n", "70"])
        assert code == 0
        want = nx.to_graph6_bytes(nx.cycle_graph(70), header=False)
        assert out == want.decode()

    def test_long_form_output_reads_back(self):
        _, built, _ = run_cli(["build", "cycle", "--n", "70"])
        code, out, _ = run_cli(["compute", "--stdin"], stdin=built)
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert (result["n"], result["m"]) == (70, 70)
        assert result["graph6"] == built.strip()
        # compute echoes the string it read; a fresh copy is encoded.
        g = parse_graph6(built)
        assert emit_graph6(graph_from_edges(g.n, g.edges)) == built.strip()

    def test_quadrangle_bundle_at_ten_thousand_vertices(self):
        # Case 3.2-i: 2500 quadrangles and 2500 pendants, m = 12500.
        _, built, _ = run_cli(["build", "c1", "--n", "10001", "--k", "2500"])
        code, out, _ = run_cli(["compute", "--stdin"], stdin=built)
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert (result["n"], result["m"]) == (10001, 12500)
        _, bound = minimum_bound(12500, 2500)
        assert result["edge_revised_szeged"] == bound.to_dict()

    def test_cycle_at_ten_thousand_vertices(self):
        n = 10_000
        _, built, _ = run_cli(["build", "cycle", "--n", str(n)])
        code, out, _ = run_cli(["compute", "--stdin", "--edges"], stdin=built)
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert (result["wiener"], result["szeged"]) == (n**3 // 8, n**3 // 4)
        assert result["edge_revised_szeged"]["num"] == n**3
        assert len(result["edges"]) == n
        assert {(e["m_u"], e["m_v"], e["m_0"]) for e in result["edges"]} == {
            (n // 2 - 1, n // 2 - 1, 2)
        }

    def test_json_format_describes_the_graph(self):
        code, out, _ = run_cli(
            ["build", "cycle", "--n", "4", "--format", "json"]
        )
        assert code == 0
        body = json.loads(out)
        assert body["graph6"] == "Cl"
        assert body["family"] == "cycle"
        assert (body["n"], body["m"]) == (4, 4)

    # Every family's graph6, plain and in JSON. Empty --lengths items are
    # skipped, so ",," builds a star.
    BUILT = [
        (["c0", "--n", "9", "--k", "2"], "H{eCCA?", 9, 10),
        (["c1", "--n", "9", "--k", "2"], "Hl_KKA?", 9, 10),
        (["g_star_1", "--n", "9", "--k", "2"], "Hl_KK?@", 9, 10),
        (["bundle", "--lengths", "3,4", "--pendants", "2"], "G{EKC?", 8, 9),
        (["bundle", "--lengths", ",,", "--pendants", "3"], "Cs", 4, 3),
        (["cycle", "--n", "5"], "Dhc", 5, 5),
        (["path", "--n", "5"], "DhC", 5, 4),
        (["star", "--n", "5"], "Ds_", 5, 4),
    ]

    @pytest.mark.parametrize(
        "argv, want, n, m", BUILT, ids=[" ".join(case[0]) for case in BUILT]
    )
    def test_every_family_prints_its_graph6(self, argv, want, n, m):
        assert run_cli(["build", *argv]) == (0, want + "\n", "")
        code, out, _ = run_cli(["build", *argv, "--format", "json"])
        assert code == 0
        body = json.loads(out)
        assert (body["graph6"], body["n"], body["m"]) == (want, n, m)
        assert body["family"] == argv[0]

    # Every way ``build`` refuses its flags: missing or unreadable ones exit
    # 2, values no graph of the family has exit 4.
    FAILED = [
        (["c0", "--n", "9"], 2, "c0 requires --k"),
        (["c1"], 2, "c1 requires --n, --k"),
        (["g_star_1", "--k", "2"], 2, "g_star_1 requires --n"),
        (["cycle"], 2, "cycle requires --n"),
        (["path"], 2, "path requires --n"),
        (["star", "--format", "json"], 2, "star requires --n"),
        (["bundle"], 2, "bundle requires --lengths"),
        (["bundle", "--pendants", "2"], 2, "bundle requires --lengths"),
        (["bundle", "--lengths", "3,x"], 2, "bad --lengths value: '3,x'"),
        (["bundle", "--lengths", "3,4.0"], 2, "bad --lengths value: '3,4.0'"),
        (["bundle", "--lengths", "2,4"], 4, "cycle length 2 < 3"),
        (
            ["bundle", "--lengths", "3", "--pendants", "-1"],
            4,
            "negative pendant count -1",
        ),
        (
            ["c0", "--n", "4", "--k", "2"],
            4,
            "triangle bundle needs n >= 2k+1, got n=4, k=2",
        ),
        (["cycle", "--n", "2"], 4, "cycle needs length >= 3, got 2"),
        (["path", "--n", "0"], 4, "path needs n >= 1, got 0"),
        (["star", "--n", "0"], 4, "star needs n >= 1, got 0"),
    ]

    @pytest.mark.parametrize(
        "argv, code, message", FAILED, ids=[" ".join(case[0]) for case in FAILED]
    )
    def test_error_exit_codes_and_messages(self, argv, code, message):
        assert run_cli(["build", *argv]) == (code, "", f"error: {message}\n")

    # A flag the family is not built from exits 2 rather than being dropped.
    UNREAD = [
        (
            ["cycle", "--n", "5", "--k", "3", "--pendants", "7", "--lengths", "x"],
            "cycle takes no --k, --lengths, --pendants",
        ),
        (["star", "--n", "5", "--pendants", "3"], "star takes no --pendants"),
        (["c1", "--n", "9", "--k", "2", "--lengths", "3"], "c1 takes no --lengths"),
        (["path", "--n", "5", "--pendants", "0"], "path takes no --pendants"),
        (["bundle", "--lengths", "3", "--n", "4"], "bundle takes no --n"),
    ]

    @pytest.mark.parametrize(
        "argv, message", UNREAD, ids=[" ".join(case[0]) for case in UNREAD]
    )
    def test_unread_flag_is_usage_error(self, argv, message):
        assert run_cli(["build", *argv]) == (2, "", f"error: {message}\n")

    # Bundle cycle lengths: every tuple of up to three of these values.
    LENGTHS = [
        lengths
        for size in range(4)
        for lengths in itertools.product((-1, 2, 3, 4), repeat=size)
    ]

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_constructor_gives_a_graph_or_infeasible(self, family):
        # ``build`` passes any sizes on to the constructor (a bundle's as
        # one BundleSpec): each checks them before it makes a Graph, so
        # none reaches the Graph's own validation, which raises
        # InvalidGraphError (exit 2).
        name, flags = _FAMILIES[family]
        if name == "bundle":
            grid = itertools.product(self.LENGTHS, range(-1, 3))
            construct = lambda *values: families.bundle(BundleSpec(*values))
        else:
            sizes = {"n": range(-1, 13), "k": range(-1, 6)}
            grid = itertools.product(*(sizes[flag] for flag in flags))
            construct = getattr(families, name)
        built = 0
        for values in grid:
            try:
                g = construct(*values)
            except InfeasibleError:
                continue
            assert isinstance(g, Graph)
            built += 1
        assert built

    def test_bundle_pendants_default_to_zero(self):
        code, out, _ = run_cli(["build", "bundle", "--lengths", "3,4"])
        assert code == 0
        assert are_isomorphic(parse_graph6(out.strip()), bundle(BundleSpec((3, 4), 0)))


class TestEnumerate:
    def test_count(self):
        code, out, _ = run_cli(["enumerate", "--n", "5", "--k", "1", "--count"])
        assert code == 0
        assert out.strip() == "5"

    def test_graph6_lines_sorted_and_distinct(self):
        code, out, _ = run_cli(["enumerate", "--n", "4", "--k", "1"])
        assert code == 0
        assert out == "CN\nC]\n"

    def test_count_json(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "5", "--k", "1", "--count", "--format", "json"]
        )
        assert code == 0
        body = json.loads(out)
        assert (body["n"], body["k"], body["count"]) == (5, 1, 5)

    def test_labeled_count(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "4", "--k", "1", "--labeled", "--count"]
        )
        assert code == 0
        assert out.strip() == "15"

    def test_labeled_stream_bytes_pinned(self):
        # Every labeled cactus at (7, 1), its order within each class too.
        code, out, _ = run_cli(["enumerate", "--n", "7", "--k", "1", "--labeled"])
        assert code == 0
        assert out.count("\n") == 68295
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "31aff5a1d9c81d26aa1fff417597c93cdfdd03070367abb665a022c3896b642a"
        )

    def test_labeled_count_of_trees_is_cayley(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "10", "--k", "0", "--labeled", "--count"]
        )
        assert code == 0
        assert out.strip() == str(10**8)

    def test_json_format(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "4", "--k", "1", "--format", "json"]
        )
        body = json.loads(out)
        assert body["count"] == 2
        assert body["classes"] == ["CN", "C]"]

    def test_csv_format_has_values(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "4", "--k", "1", "--format", "csv"]
        )
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("CN,4,4,")

    @pytest.mark.parametrize("labeled", [[], ["--labeled"]])
    def test_csv_refuses_count(self, labeled):
        # The CSV has one row per graph; a count has no rows to give.
        argv = ["enumerate", "--n", "5", "--k", "1", "--count", "--format", "csv"]
        message = "error: enumerate --format csv takes no --count\n"
        assert run_cli(argv + labeled) == (2, "", message)

    def test_over_cap_exit_code(self):
        code, _, err = run_cli(["enumerate", "--n", "11", "--k", "0", "--count"])
        assert code == 5
        assert "capped" in err

    def test_explicit_cap_flag(self):
        code, _, _ = run_cli(
            ["enumerate", "--n", "8", "--k", "1", "--count", "--cap", "7"]
        )
        assert code == 5


class TestEnvCap:
    def test_env_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("SZEGED_MAX_N", "8")
        code, _, err = run_cli(["enumerate", "--n", "9", "--k", "0", "--count"])
        assert code == 5
        assert "n = 8" in err

    def test_env_cannot_exceed_absolute_cap(self, monkeypatch):
        monkeypatch.setenv("SZEGED_MAX_N", "15")
        code, _, err = run_cli(["enumerate", "--n", "13", "--k", "0", "--count"])
        assert code == 5
        assert "n = 12" in err

    def test_cap_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("SZEGED_MAX_N", "5")
        code, out, _ = run_cli(
            ["enumerate", "--n", "6", "--k", "1", "--count", "--cap", "7"]
        )
        assert code == 0
        assert out.strip() == "13"

    def test_junk_env_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("SZEGED_MAX_N", "junk")
        code, _, err = run_cli(["enumerate", "--n", "5", "--k", "0"])
        assert code == 2
        assert "SZEGED_MAX_N" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_env_below_one_is_usage_error(self, monkeypatch, value):
        monkeypatch.setenv("SZEGED_MAX_N", value)
        code, out, err = run_cli(["search", "--n", "5", "--k", "1"])
        assert (code, out) == (2, "")
        assert f"SZEGED_MAX_N must be at least 1, got {value}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "search --n 5 --k 1 --cap -1",
            "search --n 5 --k 1 --cap 0",
            "enumerate --n 5 --k 1 --cap 0",
            "verify thm3.2 --max-n 5 --cap 0",
            "verify thm4.4 --n 5 --k 1 --cap -3",
        ],
    )
    def test_cap_below_one_is_usage_error(self, monkeypatch, argv):
        # Not the cap error, exit 5 with "capped at n = -1": a cap below
        # one admits no graph at all, so it is a bad value, as --max-n 0 is.
        monkeypatch.setenv("SZEGED_MAX_N", "8")
        code, out, err = run_cli(argv.split())
        assert (code, out) == (2, "")
        cap = argv.split()[-1]
        assert err == f"error: --cap must be at least 1, got {cap}\n"


class TestSearch:
    def test_second_values(self):
        code, out, _ = run_cli(["search", "--n", "4", "--k", "1", "--second"])
        assert code == 0
        body = json.loads(out)
        assert body["min_value"] == {"num": 53, "den": 4}
        assert body["second_value"] == {"num": 64, "den": 4}
        assert body["min_witnesses"][0]["certificate"] == certificate(
            triangle_bundle(4, 1)
        ).decode("ascii")
        assert body["second_witnesses"][0]["certificate"] == certificate(
            cycle(4)
        ).decode("ascii")

    def test_without_second_flag_keys_are_dropped(self):
        code, out, _ = run_cli(["search", "--n", "4", "--k", "1"])
        body = json.loads(out)
        assert "second_value" not in body
        assert body["min_value"] == {"num": 53, "den": 4}

    def test_expectation_flag_passes_when_bound_agrees(self):
        assert run_cli(["search", "--n", "4", "--k", "1", "--expect-thm32"])[0] == 0

    @pytest.mark.parametrize(
        "flag, bound",
        [
            ("--expect-thm32", "minimum_bound"),
            ("--expect-thm44", "second_minimum_bound"),
        ],
    )
    def test_expectation_flag_fails_on_a_wrong_bound(self, monkeypatch, flag, bound):
        # Each flag reads its own verdict: only its closed form is wrong.
        case, _ = getattr(enumeration, bound)(5, 1)
        monkeypatch.setattr(enumeration, bound, lambda m, k: (case, QuarterInt(0)))
        argv = ["search", "--n", "5", "--k", "1", "--second", flag]
        code, out, _ = run_cli(argv)
        assert code == 1
        assert len(json.loads(out)["notes"]) == 1

    def test_human_format(self):
        code, out, _ = run_cli(
            ["search", "--n", "5", "--k", "1", "--format", "human"]
        )
        assert code == 0
        assert "minimum 85/4" in out

    @pytest.mark.parametrize(
        "n, k, second",
        [
            (3, 0, "  no second value (single class or all tied)"),
            (5, 1, "  second 91/4 (1 witness(es))"),
        ],
    )
    def test_human_format_with_second(self, n, k, second):
        argv = ["search", "--n", str(n), "--k", str(k), "--second"]
        code, out, _ = run_cli([*argv, "--format", "human"])
        assert code == 0
        assert out.splitlines()[1:] == [second, "  closed-form minimum agrees: True"]

    def test_human_format_prints_notes(self, monkeypatch):
        case, _ = enumeration.minimum_bound(5, 1)
        monkeypatch.setattr(
            enumeration, "minimum_bound", lambda m, k: (case, QuarterInt(0))
        )
        code, out, _ = run_cli(["search", "--n", "5", "--k", "1", "--format", "human"])
        assert code == 0
        assert out.splitlines()[1:] == [
            "  closed-form minimum agrees: False",
            "  note: closed-form minimum disagrees with the exhaustive minimum",
        ]

    def test_single_vertex(self):
        code, out, _ = run_cli(["search", "--n", "1", "--k", "0"])
        assert code == 0
        assert json.loads(out)["class_count"] == 1

    def test_infeasible_exit_code(self):
        assert run_cli(["search", "--n", "4", "--k", "2"])[0] == 4

    def test_over_cap_exit_code(self):
        assert run_cli(["search", "--n", "11", "--k", "1"])[0] == 5


class TestVerify:
    def test_lemma_sweep(self):
        code, out, _ = run_cli(["verify", "lemma2.1", "--max-n", "4"])
        assert code == 0
        body = json.loads(out)
        assert body["report"]["claim"] == "lemma2.1"
        assert body["report"]["violations"] == []

    def test_lemma_needs_a_universe(self):
        code, _, err = run_cli(["verify", "lemma2.1"])
        assert code == 2
        assert "--max-n" in err

    def test_lemma_single_class(self):
        code, out, _ = run_cli(["verify", "lemma2.1", "--n", "6", "--k", "1"])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["universe"] == "exhaustive (n,k) in [(6,1)]"
        assert report["checked"] == 13

    def test_lemma_single_class_infeasible(self):
        code, _, err = run_cli(["verify", "lemma4.1", "--n", "5", "--k", "3"])
        assert code == 4
        assert "no cacti" in err

    def test_lemma_infeasible_past_the_cap_is_not_a_cap_error(self):
        # n = 13 is past the default cap, but (13, 7) holds no cactus at all.
        assert run_cli(["verify", "lemma4.1", "--n", "13", "--k", "7"]) == (
            4,
            "",
            "error: no cacti with n = 13, k = 7; nothing to verify\n",
        )

    def test_random_samples_human(self):
        code, out, _ = run_cli(
            ["verify", "lemma2.2-2.3", "--samples", "10", "--format", "human"]
        )
        assert code == 0
        assert "PASS" in out

    def test_violation_human(self, monkeypatch):
        case, bound = verify.minimum_bound(16, 2)
        wrong = QuarterInt(bound.num + 4)
        monkeypatch.setattr(verify, "minimum_bound", lambda m, k: (case, wrong))
        argv = ["verify", "thm3.2", "--m", "16", "--k", "2", "--format", "human"]
        assert run_cli(argv) == (
            1,
            "thm3.2: FAIL (3 checked, 1 violations)\n"
            "  universe: closed forms at m=16, k=2 (3 feasible mixes)\n"
            "  violation: {'graph6': None, "
            "'kind': 'case value differs from direct mix minimum', "
            "'case_value': {'num': 1148, 'den': 4}, "
            "'direct_minimum': {'num': 1144, 'den': 4}}\n",
            "",
        )

    def test_minimum_formula_tie_finding(self):
        code, out, _ = run_cli(["verify", "thm3.2", "--m", "15", "--k", "2"])
        assert code == 0
        findings = json.loads(out)["report"]["findings"]
        assert any("tie among t in {0, 1, 2}" in f for f in findings)

    def test_minimum_exhaustive(self):
        code, out, _ = run_cli(["verify", "thm3.2", "--n", "5", "--k", "1"])
        assert code == 0
        assert json.loads(out)["report"]["violations"] == []

    def test_second_minimum_stress(self):
        code, out, _ = run_cli(
            ["verify", "thm4.4", "--n", "20", "--k", "1", "--samples", "20"]
        )
        assert code == 0
        body = json.loads(out)
        # checked counts formula identities plus the sampled graphs
        assert body["report"]["checked"] >= 20
        assert any("20 samples" in f for f in body["report"]["findings"])
        assert body["meta"]["seed"] == 0

    def test_second_minimum_zero_samples(self):
        code, out, _ = run_cli(
            ["verify", "thm4.4", "--n", "20", "--k", "1", "--samples", "0"]
        )
        assert code == 0
        findings = json.loads(out)["report"]["findings"]
        assert any("0 samples" in f for f in findings)

    def test_unknown_claim_is_usage_error(self):
        assert run_cli(["verify", "bogus"])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "verify thm3.2 --max-n 3 --samples 50",
            "verify thm3.2 --n 5 --k 1 --samples 0",
            "verify thm3.2 --m 16 --k 3 --samples 5",
        ],
    )
    def test_minimum_rejects_samples(self, argv):
        code, out, err = run_cli(argv.split())
        assert (code, out) == (2, "")
        assert "takes no --samples" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("verify lemma2.1 --samples -5", "--samples"),
            ("verify lemma4.2 --samples 5 --sample-max-n 2", "--sample-max-n"),
            ("verify thm3.2 --max-n 0", "--max-n"),
        ],
    )
    def test_bad_numeric_flag_is_usage_error(self, argv, flag):
        code, out, err = run_cli(argv.split())
        assert (code, out) == (2, "")
        assert f"verify {flag} must be at least" in err

    # Each mode reads its own flags; any other one exits 2 and is named, as
    # is one that the mode needs and is not given.
    UNREAD = [
        ("verify thm4.4 --n 20", "verify thm4.4 needs --n and --k"),
        ("verify thm3.2 --m 16", "verify thm3.2 --m needs --k"),
        ("verify lemma2.1 --n 5", "verify lemma2.1 --n needs --k"),
        ("verify thm3.2", "verify thm3.2 needs --max-n, --n/--k, or --m/--k"),
        ("verify thm4.4 --n 5 --k 1 --m 7", "verify thm4.4 takes no --m"),
        (
            "verify thm4.4 --n 14 --k 3 --max-n 3 --samples 5",
            "verify thm4.4 takes no --max-n",
        ),
        ("verify thm3.2 --m 16 --k 2 --n 4", "verify thm3.2 --m takes no --n"),
        (
            "verify thm3.2 --m 16 --k 2 --max-n 4",
            "verify thm3.2 --m takes no --max-n",
        ),
        (
            "verify lemma2.1 --max-n 4 --n 4 --k 1",
            "verify lemma2.1 --n takes no --max-n",
        ),
        ("verify lemma2.1 --max-n 5 --k 2", "verify lemma2.1 --k needs --n"),
        ("verify lemma4.2 --samples 5 --k 1", "verify lemma4.2 --k needs --n"),
        ("verify thm3.2 --max-n 5 --k 2", "verify thm3.2 --k needs --n"),
        ("verify lemma4.1 --m 20 --max-n 4", "verify lemma4.1 takes no --m"),
        # thm4.4 samples at exactly n; thm3.2, and lemmas without samples,
        # draw nothing at all.
        (
            "verify thm4.4 --n 20 --k 1 --samples 3 --sample-max-n 12",
            "verify thm4.4 takes no --sample-max-n",
        ),
        ("verify thm3.2 --m 16 --k 2 --seed 5", "verify thm3.2 takes no --seed"),
        (
            "verify thm3.2 --max-n 5 --sample-max-n 10",
            "verify thm3.2 takes no --sample-max-n",
        ),
        ("verify lemma4.1 --max-n 5 --seed 3", "verify lemma4.1 takes no --seed"),
        (
            "verify lemma3.1 --n 6 --k 1 --sample-max-n 10",
            "verify lemma3.1 takes no --sample-max-n",
        ),
        # thm4.4 draws only inside its domain, m > 15 and m > 4k, which lies
        # past the cap: under it at (9, 2), past it at (11, 2).
        (
            "verify thm4.4 --n 9 --k 2 --seed 5",
            "verify thm4.4 at (m,k)=(10,2) takes no --seed",
        ),
        (
            "verify thm4.4 --n 9 --k 2 --samples 7",
            "verify thm4.4 at (m,k)=(10,2) takes no --samples",
        ),
        (
            "verify thm4.4 --n 11 --k 2 --seed 3",
            "verify thm4.4 at (m,k)=(12,2) takes no --seed",
        ),
        (
            "verify thm4.4 --n 11 --k 2 --samples 7",
            "verify thm4.4 at (m,k)=(12,2) takes no --samples",
        ),
        (
            "verify thm4.4 --n 11 --k 2 --samples 7 --seed 3",
            "verify thm4.4 at (m,k)=(12,2) takes no --samples, --seed",
        ),
    ]

    @pytest.mark.parametrize("argv, message", UNREAD)
    def test_unread_flag_is_usage_error(self, argv, message):
        assert run_cli(argv.split()) == (2, "", f"error: {message}\n")

    def test_infeasible_second_minimum_is_not_a_usage_error(self):
        code, out, err = run_cli("verify thm4.4 --n 4 --k 2 --seed 5".split())
        assert (code, out) == (4, "")
        assert err == "error: no cacti with n = 4, k = 2; nothing to verify\n"

    def test_second_minimum_outside_the_domain_names_no_samples(self):
        # (11, 2) is past the exhaustive cap and m = 12 is outside the
        # claim's domain, so no sample is drawn.
        code, out, _ = run_cli(["verify", "thm4.4", "--n", "11", "--k", "2"])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["universe"] == "closed forms at (m,k)=(12,2)"
        assert report["checked"] == 0
        assert report["findings"] == [
            "bound not applicable at (m,k)=(12,2): "
            "outside domain m > 15 and m > 4k (m=12, k=2)"
        ]
        assert report["seed"] is None

    def test_seed_in_meta_is_zero_when_not_given(self):
        for argv in ("verify thm3.2 --max-n 4", "verify lemma2.1 --samples 3"):
            code, out, _ = run_cli(argv.split())
            assert code == 0
            assert json.loads(out)["meta"]["seed"] == 0

    def test_byte_determinism_modulo_wall_time(self):
        def normalized():
            _, out, _ = run_cli(
                ["verify", "thm4.4", "--n", "20", "--k", "1", "--samples", "30"]
            )
            body = json.loads(out)
            body["meta"].pop("wall_ms")
            return json.dumps(body, sort_keys=True)

        assert normalized() == normalized()


class TestVerifyCap:
    @pytest.mark.parametrize("claim", ["lemma2.1", "thm3.2", "thm4.4"])
    def test_cap_flag_raises_the_cap(self, claim):
        code, out, err = run_cli(
            ["verify", claim, "--n", "11", "--k", "5", "--cap", "11"]
        )
        assert code == 0, err
        assert json.loads(out)["report"]["violations"] == []

    def test_cap_flag_lowers_the_cap(self):
        code, _, err = run_cli(
            ["verify", "lemma2.1", "--n", "8", "--k", "1", "--cap", "7"]
        )
        assert code == 5
        assert "n = 7" in err

    def test_cap_flag_lowers_the_cap_for_a_sweep(self):
        code, _, err = run_cli(["verify", "thm3.2", "--max-n", "8", "--cap", "7"])
        assert code == 5
        assert "n = 7" in err

    def test_env_raises_the_cap(self, monkeypatch):
        monkeypatch.setenv("SZEGED_MAX_N", "11")
        code, out, _ = run_cli(["verify", "lemma4.3", "--n", "11", "--k", "5"])
        assert code == 0
        assert json.loads(out)["report"]["checked"] == 8

    def test_env_lowers_the_cap(self, monkeypatch):
        monkeypatch.setenv("SZEGED_MAX_N", "6")
        code, _, err = run_cli(["verify", "thm3.2", "--n", "7", "--k", "1"])
        assert code == 5
        assert "n = 6" in err


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestVerifyReportBytes:
    """Report bytes at exhaustive and sampled universes, JSON and human,
    frozen."""

    @pytest.mark.parametrize(
        "argv, json_digest, human_digest",
        [
            ("verify lemma2.1 --max-n 7", "303c7ce3602b8b88", "b256463e8baf1ea7"),
            ("verify lemma2.2-2.3 --max-n 7", "3d1b46e38fadad53", "7efb51ca1e5a0b33"),
            ("verify lemma3.1 --max-n 7", "32bfd2ed71aae72e", "b10389cfef2fcda8"),
            ("verify lemma4.1 --max-n 7", "760463a97de568c4", "4084506660b7f5b1"),
            ("verify lemma4.2 --max-n 7", "a1b695b19c5ad207", "20cabf597f560c69"),
            ("verify lemma4.3 --max-n 7", "b7ca8520ea5ae67d", "b2b0682532c2551d"),
            ("verify thm3.2 --max-n 7", "d3dd68cc237d351e", "6897153db065a9eb"),
            ("verify thm3.2 --n 7 --k 2", "f4f31f6ba0c0f918", "a89670eb5ae47dff"),
            ("verify thm3.2 --m 15 --k 2", "313074d1b4c91caa", "a7526ce203d72fa3"),
            ("verify thm4.4 --n 7 --k 1", "78303c67f4155c29", "a620a505bc25a077"),
            # Past the cap and outside the claim's domain: nothing is drawn,
            # so the report names no seed.
            ("verify thm4.4 --n 11 --k 2", "6c88978f760147e6", "fe4743b408585d4f"),
            # Sampled graphs up to n = 12, where lemma 4.2 once fell back to
            # certificates for every graph that is not a bundle.
            (
                "verify lemma4.2 --samples 2000 --sample-max-n 12 --seed 3",
                "9c351b57906ac5ed",
                "d1b826c7f05b95a4",
            ),
        ],
    )
    def test_digests(self, argv, json_digest, human_digest):
        code, out, _ = run_cli(argv.split())
        assert code == 0
        report = json.loads(out)["report"]
        assert _digest(json.dumps(report, sort_keys=True)) == json_digest
        code, out, _ = run_cli(argv.split() + ["--format", "human"])
        assert code == 0
        assert _digest(out) == human_digest


class TestComputeReportBytes:
    """``compute --edges`` reports, frozen, and one distance pass per graph."""

    @pytest.mark.parametrize(
        "g6, digest, bfs_passes",
        [
            # quadrangle_bundle(2001, 400): a cactus, so no all-pairs BFS.
            (None, "bc6714b216ddc4dd", 0),
            # The Petersen graph: no cactus, so one all-pairs BFS.
            ("IheA@GUAo", "278377ac168e26ae", 1),
        ],
    )
    def test_digest_and_one_pass(self, monkeypatch, g6, digest, bfs_passes):
        if g6 is None:
            _, built, _ = run_cli(["build", "c1", "--n", "2001", "--k", "400"])
            argv, stdin = ["compute", "--stdin"], built
        else:
            argv, stdin = ["compute", "--g6", g6], None
        passes = count_calls_on(monkeypatch, graphs._cactus_distances)
        bfs = count_calls_on(monkeypatch, graphs.all_bfs_distances)
        code, out, _ = run_cli(argv + ["--edges", "--format", "json"], stdin=stdin)
        assert code == 0
        assert (len(passes), len(bfs)) == (1, bfs_passes)
        body = json.loads(out)
        del body["meta"]["wall_ms"]
        assert _digest(json.dumps(body, sort_keys=True)) == digest


def _cli_process(argv):
    """The command line in a child process, every stream a pipe."""
    src = str(Path(szegedtools.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, "-m", "szegedtools.cli", *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


class TestClosedPipe:
    """A reader that closes stdout early, as ``| head`` does, ends the
    command quietly with exit 0. Both outputs are far larger than a pipe
    buffer, so the command is still writing when the pipe closes."""

    def _finish(self, proc):
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), err

    def test_labeled_stream_read_one_line(self):
        proc = _cli_process(["enumerate", "--n", "7", "--k", "1", "--labeled"])
        proc.stdin.close()
        line = proc.stdout.readline()
        assert line.strip() and line.isascii()
        assert self._finish(proc) == (0, b"")

    def test_compute_report_read_300_bytes(self):
        _, built, _ = run_cli(["build", "c1", "--n", "2001", "--k", "400"])
        proc = _cli_process(["compute", "--stdin", "--edges"])
        proc.stdin.write(built.encode())
        proc.stdin.close()
        head = proc.stdout.read(300)
        assert head.startswith(b'{"meta": ') and len(head) == 300
        assert self._finish(proc) == (0, b"")


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run_cli([])[0] == 2

    def test_json_meta_reports_workers(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "5", "--k", "1", "--format", "json", "--workers", "2"]
        )
        assert code == 0
        assert json.loads(out)["meta"]["workers"] == 2
