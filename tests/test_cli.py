"""Command-line interface: outputs, formats, and exit codes."""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from szegedtools import (
    BundleSpec,
    are_isomorphic,
    bundle,
    certificate,
    cycle,
    parse_graph6,
    triangle_bundle,
)
from szegedtools.cli import main


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

    def test_graph6_content_in_edge_list_file_is_a_parse_error(self, tmp_path):
        p = tmp_path / "wrong.el"
        p.write_text("Bw\n")
        assert run_cli(["compute", "--file", str(p)])[0] == 2

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli(["compute", "--file", "/no/such/file"])
        assert code == 2
        assert "error" in err

    def test_bad_graph6_is_usage_error(self):
        code, _, err = run_cli(["compute", "--g6", "###"])
        assert code == 2
        assert "byte offset" in err

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

    def test_json_format_describes_the_graph(self):
        code, out, _ = run_cli(
            ["build", "cycle", "--n", "4", "--format", "json"]
        )
        assert code == 0
        body = json.loads(out)
        assert body["graph6"] == "Cl"
        assert body["family"] == "cycle"
        assert (body["n"], body["m"]) == (4, 4)


class TestEnumerate:
    def test_count(self):
        code, out, _ = run_cli(["enumerate", "--n", "5", "--k", "1", "--count"])
        assert code == 0
        assert out.strip() == "5"

    def test_graph6_lines_sorted_and_distinct(self):
        code, out, _ = run_cli(["enumerate", "--n", "4", "--k", "1"])
        assert code == 0
        assert out == "CN\nC]\n"

    def test_labeled_count(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "4", "--k", "1", "--labeled", "--count"]
        )
        assert code == 0
        assert out.strip() == "15"

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

    def test_human_format(self):
        code, out, _ = run_cli(
            ["search", "--n", "5", "--k", "1", "--format", "human"]
        )
        assert code == 0
        assert "minimum 85/4" in out

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

    def test_random_samples_human(self):
        code, out, _ = run_cli(
            ["verify", "lemma2.2-2.3", "--samples", "10", "--format", "human"]
        )
        assert code == 0
        assert "PASS" in out

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

    def test_unknown_claim_is_usage_error(self):
        assert run_cli(["verify", "bogus"])[0] == 2

    def test_byte_determinism_modulo_wall_time(self):
        def normalized():
            _, out, _ = run_cli(
                ["verify", "thm4.4", "--n", "20", "--k", "1", "--samples", "30"]
            )
            body = json.loads(out)
            body["meta"].pop("wall_ms")
            return json.dumps(body, sort_keys=True)

        assert normalized() == normalized()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestVerifyReportBytes:
    """Report bytes at exhaustive universes, JSON and human, frozen."""

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


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run_cli([])[0] == 2

    def test_json_meta_reports_workers(self):
        code, out, _ = run_cli(
            ["enumerate", "--n", "5", "--k", "1", "--format", "json", "--workers", "2"]
        )
        assert code == 0
        assert json.loads(out)["meta"]["workers"] == 2
