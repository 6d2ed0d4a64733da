"""Command-line surface: golden outputs, exit codes, and the file formats."""

import pytest

from conftest import CLI_CORPUS, DATA, GOLDEN, check_cli_corpus, run_cli
from shefferkit.cli import (
    FileFormatError,
    format_groupoid_file,
    format_map_file,
    format_system_file,
    parse_groupoid_file,
    parse_map_file,
    parse_system_file,
)

ERROR_CASES = [
    (["check", "sheffer", "tests/data/ex1.sys"], "expected 'groupoid'"),
    (["check", "sheffer", "tests/data/missing.grp"], "No such file"),
    (["check", "named", "BADKEY", "tests/data/ex1.grp"], "unknown law key"),
    (["check", "law", "-e", "x|y", "tests/data/ex1.grp"], "expected '='"),
    (["check", "named", "BOUND0", "tests/data/ex1.grp"], "designated bounds"),
    (["assign", "--policy", "rand:zz", "tests/data/ex1.sys"], "bad seed"),
    (["assign", "tests/data/chain3.sys"], "no involution"),
    (["induce", "tests/data/lproj.grp"], "AX2 fails"),
    (["twist-op", "tests/data/lproj.grp"], "not a Sheffer"),
    (["enumerate", "-n", "9"], "must be in 1..5"),
    (["enumerate", "-n", "2", "--require", "NOPE"], "unknown law key"),
    (["enumerate", "-n", "2", "--require", "AX1,AX2", "--limit", "-1", "--count"],
     "limit must be at least 0"),
]


class TestGoldenCorpus:
    @pytest.mark.parametrize("name,argv,want", CLI_CORPUS,
                             ids=[c[0] for c in CLI_CORPUS])
    def test_case(self, name, argv, want):
        code, out, err = run_cli(argv)
        assert code == want, err
        assert out == (GOLDEN / f"{name}.txt").read_text()
        assert err == ""

    def test_whole_corpus_helper(self):
        check_cli_corpus()


class TestErrorPaths:
    @pytest.mark.parametrize("argv,fragment", ERROR_CASES,
                             ids=[" ".join(c[0][:2]) + "/" + c[1][:12] for c in ERROR_CASES])
    def test_exit_two(self, argv, fragment):
        code, _out, err = run_cli(argv)
        assert code == 2
        assert err.startswith("error:")
        assert fragment in err

    def test_key_error_message_is_not_requoted(self):
        code, out, err = run_cli(["check", "named", "FOO", "tests/data/ex1.grp"])
        assert (code, out, err) == (2, "", "error: unknown law key 'FOO'\n")

    def test_usage_error(self):
        code, _out, err = run_cli(["definitely-not-a-command"])
        assert code == 2

    def test_no_homomorphisms_is_exit_one(self):
        code, out, _ = run_cli(["hom", "--groupoid", "tests/data/ex1.grp",
                                "tests/data/nand.grp"])
        assert code == 1
        assert out == "found: 0\n"

    def test_quotient_hypothesis_failure_is_exit_one(self, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("map\nimages a a b cd\n")
        code, _out, err = run_cli(["quotient", "tests/data/ex1.grp", str(bad),
                                   "tests/data/quotient.sys"])
        assert code == 1
        assert err.startswith("error:")

    def test_failing_drsi_check_is_exit_one(self, tmp_path):
        broken = tmp_path / "broken.sys"
        broken.write_text(
            "system\nelements 0 1\nrelation\n1 1\n1 0\ninvolution 1 0\n")
        code, out, _ = run_cli(["check", "drsi", str(broken)])
        assert code == 1
        assert "drsi: no" in out

    def test_lowercase_named_key_accepted(self):
        code, out, _ = run_cli(["check", "named", "sym7", "tests/data/ex1.grp"])
        assert code == 0
        assert out.startswith("law SYM7:")


class TestOutputFlag:
    def test_output_file_matches_stdout(self, tmp_path):
        target = tmp_path / "induced.sys"
        code, out, _ = run_cli(["induce", "tests/data/ex1.grp", "-o", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == (GOLDEN / "induce_ex1.txt").read_text()

    def test_stats_go_to_stderr(self):
        code, out, err = run_cli(["enumerate", "-n", "2", "--require", "AX1,AX2",
                                  "--count", "--stats"])
        assert code == 0
        assert out == "4\n"
        assert "models: 4" in err and "nodes:" in err

    def test_stats_count_forced_cells(self):
        code, out, err = run_cli(["enumerate", "-n", "3", "--require", "AX1,AX2",
                                  "--count", "--stats"])
        assert code == 0
        assert out == "52\n"
        assert "; models: 52; nodes: 177; forced: 56; seconds: " in err


class TestParserReuse:
    """``main`` parses every call with one parser built per process."""

    def test_parser_built_once(self):
        from shefferkit import cli
        assert cli.build_parser() is cli.build_parser()

    def test_append_options_do_not_carry_over(self):
        argv = ["enumerate", "-n", "2", "--require", "AX1", "--require", "AX2",
                "--forbid", "COMM", "--count", "--stats"]
        for _ in range(2):
            code, out, err = run_cli(argv)
            assert (code, out) == (0, "2\n")
            assert err.startswith("n=2 require=AX1,AX2 forbid=COMM; models: 2;")
        code, out, err = run_cli(["enumerate", "-n", "2", "--count", "--stats"])
        assert (code, out) == (0, "16\n")
        assert err.startswith("n=2 require=- forbid=-; models: 16;")

    def test_output_option_does_not_carry_over(self, tmp_path):
        golden = (GOLDEN / "induce_ex1.txt").read_text()
        target = tmp_path / "induced.sys"
        assert run_cli(["induce", "tests/data/ex1.grp", "-o", str(target)]) == (0, "", "")
        target.unlink()
        assert run_cli(["induce", "tests/data/ex1.grp"]) == (0, golden, "")
        assert not target.exists()


class TestFileFormats:
    @pytest.mark.parametrize("name", [
        "ex1.sys", "chain2.sys", "chain3.sys", "bool4.sys", "quotient.sys"])
    def test_system_files_are_canonical(self, name):
        text = (DATA / name).read_text()
        sys = parse_system_file(text)
        assert format_system_file(sys) == text

    @pytest.mark.parametrize("name", ["ex1.grp", "nand.grp", "lproj.grp"])
    def test_groupoid_files_are_canonical(self, name):
        text = (DATA / name).read_text()
        g = parse_groupoid_file(text)
        assert format_groupoid_file(g) == text

    def test_map_file_roundtrip(self):
        src = parse_groupoid_file((DATA / "ex1.grp").read_text()).carrier
        dst = parse_system_file((DATA / "quotient.sys").read_text()).carrier
        text = (DATA / "collapse.map").read_text()
        f = parse_map_file(text, src, dst)
        assert f.image == (0, 1, 2, 2)
        assert format_map_file(f) == text

    def test_comments_and_blank_lines_ignored(self):
        text = ("# a comment\n\ngroupoid\nelements a b  # trailing\ntable\n"
                "b b\nb a\n")
        g = parse_groupoid_file(text)
        assert g.table == ((1, 1), (1, 0))

    def test_induce_assign_file_level_roundtrip(self):
        # operation -> file -> system -> file -> operation reproduces bytes
        _, sys_text, _ = run_cli(["induce", "tests/data/ex1.grp"])
        parsed = parse_system_file(sys_text)
        assert format_system_file(parsed) == sys_text
        code, table_text, _ = run_cli(["assign", "--policy", "min",
                                       "tests/data/ex1.sys"])
        assert code == 0
        assert table_text == (DATA / "ex1.grp").read_text()


class TestMalformedFiles:
    @pytest.mark.parametrize("text,fragment", [
        ("", "line 1"),
        ("system\nelements a b\nrelation\n1 1\n", "line"),
        ("system\nelements a b\nrelation\n1\n0 1\n", "line 4"),
        ("system\nelements a b\nrelation\n1 2\n0 1\n", "line 4"),
        ("system\nelements a b\nrelation\n1 1\n0 1\ninvolution b a\ninvolution b a\n",
         "line 7"),
        ("system\nelements a b\nrelation\n1 1\n0 1\ninvolution b z\n", "line 6"),
        ("system\nelements a b\nrelation\n1 1\n0 1\nbounds a\n", "line 6"),
        ("system\nelements a a\nrelation\n1 1\n0 1\n", "line 2"),
    ])
    def test_bad_system_files(self, text, fragment):
        with pytest.raises(FileFormatError) as exc:
            parse_system_file(text)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("text,fragment", [
        ("groupoid\nelements a b\ntable\nb b\n", "line"),
        ("groupoid\nelements a b\ntable\nb b\nb z\n", "line 5"),
        ("groupoid\nelements a b\ntable\nb b\nb a\ninvolution a b\n", "line 6"),
    ])
    def test_bad_groupoid_files(self, text, fragment):
        with pytest.raises(FileFormatError) as exc:
            parse_groupoid_file(text)
        assert fragment in str(exc.value)

    def test_bad_map_file(self):
        src = parse_groupoid_file((DATA / "ex1.grp").read_text()).carrier
        dst = parse_system_file((DATA / "quotient.sys").read_text()).carrier
        with pytest.raises(FileFormatError):
            parse_map_file("map\nimages a b\n", src, dst)

    def test_error_carries_line_attribute(self):
        with pytest.raises(FileFormatError) as exc:
            parse_system_file("system\nelements a b\nrelation\n1\n0 1\n")
        assert exc.value.line == 4
