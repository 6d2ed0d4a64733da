"""Command-line surface: golden outputs, exit codes, and the file formats."""

import dataclasses
import itertools

import pytest

from conftest import CLI_CORPUS, DATA, GOLDEN, check_cli_corpus, run_cli
from shefferkit import cli
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
    (["assign", "--policy", "bogus", "tests/data/ex1.sys"], "unknown policy"),
    (["induce", "tests/data/lproj.grp"], "AX2 fails"),
    (["twist-op", "tests/data/lproj.grp"], "not a Sheffer"),
    (["enumerate", "-n", "9"], "must be in 1..5"),
    (["enumerate", "-n", "2", "--require", "NOPE"], "unknown law key"),
    (["enumerate", "-n", "2", "--require", "BOUND0"],
     "laws with constants need with_bounds (--with-bounds)"),
    (["enumerate", "-n", "2", "--require", "AX1,AX2", "--limit", "-1", "--count"],
     "limit must be at least 0"),
    (["hom", "--groupoid", "--strong", "tests/data/ex1.grp", "tests/data/ex1.grp"],
     "applies to relational systems only"),
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

    @pytest.mark.parametrize("argv", [c[0] for c in ERROR_CASES],
                             ids=[" ".join(c[0][:2]) + "/" + c[1][:12] for c in ERROR_CASES])
    def test_exit_two_prints_no_report(self, argv):
        # every check runs before its report starts, so a failure leaves stdout empty
        assert run_cli(argv)[:2] == (2, "")

    def test_strong_groupoid_map_check_is_rejected(self, no_search, tmp_path):
        identity = tmp_path / "identity.map"
        identity.write_text("map\nimages a b c d\n")
        code, out, err = run_cli(["hom", "--groupoid", "--strong", "--map", str(identity),
                                  "tests/data/ex1.grp", "tests/data/ex1.grp"])
        assert (code, out) == (2, "")
        assert "applies to relational systems only" in err

    @pytest.fixture
    def no_search(self, monkeypatch):
        # a map check needs no homomorphism search, not even to check the modes
        def search(*args, **kwargs):
            raise AssertionError("hom --map built a homomorphism search")

        monkeypatch.setattr(cli, "find_homomorphisms", search)

    @pytest.mark.parametrize("name,argv,want", [c for c in CLI_CORPUS if "--map" in c[1]],
                             ids=[c[0] for c in CLI_CORPUS if "--map" in c[1]])
    def test_map_check_builds_no_search(self, no_search, name, argv, want):
        code, out, err = run_cli(argv)
        assert (code, err) == (want, "")
        assert out == (GOLDEN / f"{name}.txt").read_text()

    def test_groupoid_map_check_builds_no_search(self, no_search, tmp_path):
        identity = tmp_path / "identity.map"
        identity.write_text("map\nimages a b c d\n")
        code, out, err = run_cli(["hom", "--groupoid", "--map", str(identity),
                                  "tests/data/ex1.grp", "tests/data/ex1.grp"])
        assert (code, out, err) == (0, "homomorphism: yes\n", "")

    @pytest.mark.parametrize("flag,reason", [("--surjective", "not surjective"),
                                             ("--injective", "not injective")])
    def test_map_check_honours_the_modes(self, no_search, flag, reason):
        # the constant map of the full 2-element relation passes every condition
        argv = ["hom", "--map", "tests/data/const2.map", "tests/data/full2.sys",
                "tests/data/full2.sys"]
        assert run_cli(argv) == (0, "homomorphism: yes\n", "")
        assert run_cli(argv[:3] + [flag] + argv[3:]) == (1, f"homomorphism: no ({reason})\n", "")

    @pytest.mark.parametrize("flags", [[], ["--injective"], ["--surjective"],
                                       ["--injective", "--surjective"]])
    def test_map_check_agrees_with_the_search(self, tmp_path, flags):
        systems = ["tests/data/full2.sys", "tests/data/chain2.sys"]
        for src, dst in itertools.product(systems, repeat=2):
            _code, listing, _err = run_cli(["hom", *flags, src, dst])
            names = "ab" if src.endswith("full2.sys") else "01"
            targets = "ab" if dst.endswith("full2.sys") else "01"
            for image in itertools.product(targets, repeat=2):
                path = tmp_path / "f.map"
                path.write_text("map\nimages " + " ".join(image) + "\n")
                code, _out, err = run_cli(["hom", *flags, "--map", str(path), src, dst])
                arrows = " ".join(f"{x}->{y}" for x, y in zip(names, image))
                assert (code == 0, err) == (f": {arrows}\n" in listing, ""), (src, dst, image)

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

    def test_quotient_kernel_not_congruence_is_exit_one(self, tmp_path):
        # collapsing a and d is strong, but a|b = a and d|b = b are apart
        grp, sys_file, map_file = tmp_path / "g.grp", tmp_path / "q.sys", tmp_path / "f.map"
        grp.write_text("groupoid\nelements a b c d\ntable\na a b d\na c b d\nb b b b\na b b d\n")
        sys_file.write_text("system\nelements ad b c\nrelation\n1 1 0\n0 1 0\n1 1 1\n"
                            "involution ad c b\n")
        map_file.write_text("map\nimages ad b c ad\n")
        code, out, err = run_cli(["quotient", str(grp), str(map_file), str(sys_file)])
        assert (code, out) == (1, "")
        assert err == "error: kernel is not a congruence: witness (0, 3, 1, 1)\n"

    def test_failing_drsi_check_is_exit_one(self, tmp_path):
        broken = tmp_path / "broken.sys"
        broken.write_text(
            "system\nelements 0 1\nrelation\n1 1\n1 0\ninvolution 1 0\n")
        code, out, _ = run_cli(["check", "drsi", str(broken)])
        assert code == 1
        assert "drsi: no" in out

    @pytest.mark.parametrize("argv", [["twist"], ["twist-op"], ["kleene-sub", "--base", "a"]])
    def test_colliding_pair_names_exit_two(self, tmp_path, argv):
        # a valid carrier whose pairs (a, "b,c") and ("a,b", c) both print as (a,b,c)
        elements = "elements a c a,b b,c\n"
        sys_file, grp_file = tmp_path / "comma.sys", tmp_path / "comma.grp"
        sys_file.write_text("system\n" + elements + "relation\n" + "1 1 1 1\n" * 4)
        grp_file.write_text("groupoid\n" + elements + "table\na a,b b,c a,b\n"
                            "a,b c b,c a,b\na c b,c a,b\na c b,c a,b\n")
        src = grp_file if argv[0] == "twist-op" else sys_file
        code, out, err = run_cli(argv + [str(src)])
        assert (code, out, err) == (2, "", "error: pair name (a,b,c) names two pairs\n")

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
        # the count walks the tree of the class search (the labelled search:
        # 177 nodes, 56 forced)
        assert "; models: 52; nodes: 57; forced: 24; seconds: " in err

    def test_listing_and_count_report_their_own_class_trees(self):
        # the same models on two trees of the class search: the listing
        # expands the classes least row-major, the count sums the orbits of
        # those least in the search's own cell order, a smaller tree (the
        # labelled search took 20,268 nodes and 3,537 forced cells)
        argv = ["enumerate", "-n", "4", "--require", "AX1,AX2", "--stats"]
        with_count = run_cli(argv + ["--count"])[2]
        listing = run_cli(argv)[2]
        assert "; models: 5450; nodes: 1804; forced: 502; seconds: " in listing
        assert "; models: 5450; nodes: 1604; forced: 417; seconds: " in with_count


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

    def test_stats_name_the_commutativity_the_search_requires(self):
        argv = ["enumerate", "-n", "4", "--require", "AX1,AX2", "--commutative", "--count",
                "--stats"]
        code, out, err = run_cli(argv)
        assert (code, out) == (0, "96\n")
        assert err.startswith("n=4 require=AX1,AX2,COMM forbid=-; models: 96;")

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

    @pytest.mark.parametrize("bottom,top", [(0, None), (None, 1)])
    def test_lone_bound_is_refused(self, bottom, top):
        # the grammar has one bounds line with two names; writing none would
        # parse back as a different model
        sys = parse_system_file((DATA / "chain2.sys").read_text())
        g = parse_groupoid_file((DATA / "ex1.grp").read_text())
        with pytest.raises(ValueError, match="both bounds or neither"):
            format_system_file(dataclasses.replace(sys, bottom=bottom, top=top))
        with pytest.raises(ValueError, match="both bounds or neither"):
            format_groupoid_file(dataclasses.replace(g, bottom=bottom, top=top))

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
        ("system\nelements\nrelation\n", "line 2: elements section lists no names"),
        ("system\nelements a b\nrelation\n1 1\n0 1\ninvolution a\n",
         "line 6: involution needs 2 names"),
        ("system\nelements a b\nrelation\n1 1\n0 1\norder a b\n",
         "line 6: unexpected section 'order'"),
    ])
    def test_bad_system_files(self, text, fragment):
        with pytest.raises(FileFormatError) as exc:
            parse_system_file(text)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("text,fragment", [
        ("groupoid\nelements a b\ntable\nb b\n", "line"),
        ("groupoid\nelements a b\ntable\nb b\nb z\n", "line 5"),
        ("groupoid\nelements a b\ntable\nb\nb a\n", "line 4: table row must list 2 entries"),
        ("groupoid\nelements a b\ntable\nb b\nb a\ninvolution a b\n", "line 6"),
        # the section is rejected at its own line, before its names are read
        ("groupoid\nelements a b\ntable\nb b\nb a\ninvolution b a\nbounds a b\n",
         "line 6: groupoid files take no involution section"),
        ("groupoid\nelements a b\ntable\nb b\nb a\ninvolution a z\n",
         "line 6: groupoid files take no involution section"),
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
        with pytest.raises(FileFormatError, match="line 3: unexpected section 'bounds'"):
            parse_map_file("map\nimages a b cd cd\nbounds a b\n", src, dst)

    def test_error_carries_line_attribute(self):
        with pytest.raises(FileFormatError) as exc:
            parse_system_file("system\nelements a b\nrelation\n1\n0 1\n")
        assert exc.value.line == 4
