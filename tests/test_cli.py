"""End-to-end exercises of the command-line front end.

Each test drives ``main`` with an argv list and inspects stdout and the
exit status; nothing here re-derives mathematics, the goal is that the
plumbing between the parser and the library stays sound.
"""

import builtins
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pvb3
from pvb3 import cli
from pvb3.cli import main
from pvb3.fpres import SearchBounds
from pvb3.nq import CollectionBudget


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_cancels_and_round_trips(capsys):
    code, out, _ = run(capsys, "reduce", "a b b^-1 a^-1 c")
    assert code == 0
    assert out.strip() == "c"


def test_reduce_identity_prints_one(capsys):
    code, out, _ = run(capsys, "reduce", "1", "--gens", "a,b")
    assert code == 0
    assert out.strip() == "1"


def test_reduce_rejects_unknown_generator(capsys):
    code, _, err = run(capsys, "reduce", "a b", "--gens", "a")
    assert code == 2
    assert "unknown generator" in err


@pytest.mark.parametrize("argv, expected", [
    (("reduce", "é b b^-1"), "é"),
    (("reduce", "a b a^-1", "--gens", "a, b"), "a b a^-1"),
    (("reduce", "b a", "--gens", "a b"), "b a"),
    (("subst", "x y", "--assign", "x=é", "--assign", "y=b"), "é b"),
    (("subst", "x y", "--assign", "x=a", "--assign", "y=b",
      "--gens", "x, y", "--target-gens", "a, b"), "a b"),
    (("check-hom", "g3", "--assign", "a1=é", "--assign", "b1=é",
      "--assign", "a2=1", "--assign", "b2=1", "--assign", "c1=1"), "homomorphism"),
])
def test_generator_names_are_read_as_the_grammar_reads_them(capsys, argv, expected):
    # any letter starts a name, and lists split like a gens: line
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == expected


@pytest.mark.parametrize("argv", [
    ("reduce", "1", "--gens", ","),
    ("subst", "x", "--assign", "x=1", "--gens", " , "),
    ("subst", "x", "--assign", "x=1", "--target-gens", ","),
])
def test_empty_generator_list_exits_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "no generator names found" in err


@pytest.mark.parametrize("argv, expected", [
    (("reduce", "1"), ["1"]),
    (("subst", "x", "--assign", "x=1"), ["1"]),
    (("check-hom", "g3", "--assign", "a1=1", "--assign", "b1=1", "--assign", "a2=1",
      "--assign", "b2=1", "--assign", "c1=1"), ["relator %s: dies" % r for r in (
          "a1^-1 b1^-1 a1 b1", "a2^-1 b2^-1 a2 b2", "c1^-1 b1 c1 a2^-1 b1^-1 a2",
          "c1^-1 a1 c1 b2^-1 a1^-1 b2", "c1^-1 b2 c1 b2^-1 a1^-1 b2^-1 a1 b2",
          "c1^-1 a2 c1 a2^-1 b1^-1 a2^-1 b1 a2")] + ["homomorphism"]),
    (("aut", "compose", "1", "--rank", "2"), ["x1 -> x1", "x2 -> x2"]),
    (("aut", "compose", "1", "--rank", "2", "--apply", "x2^-1"),
     ["x1 -> x1", "x2 -> x2", "x2^-1 -> x2^-1"]),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_words_naming_no_generator_are_over_the_empty_alphabet(capsys, argv, expected):
    # only an explicit empty --gens or --target-gens list is an error
    code, out, err = run(capsys, *argv)
    assert (code, out.splitlines(), err) == (0, expected, "")


@pytest.mark.parametrize("rank", [(), ("--rank", "-1")], ids=["no-rank", "negative"])
def test_compose_of_no_eij_needs_a_rank(capsys, rank):
    code, out, err = run(capsys, "aut", "compose", "1", *rank)
    assert (code, out) == (2, "")
    assert err == "error: --rank must be at least 0, and is needed for a word in no eij\n"


def test_reduce_rejects_zero_exponent(capsys):
    code, _, err = run(capsys, "reduce", "a^0")
    assert code == 2
    assert "exponent 0" in err


def test_subst_builtin_rule(capsys):
    code, out, _ = run(capsys, "subst", "l13", "--rule", "old-to-new")
    assert code == 0
    assert out.strip() == "c2"


def test_subst_rules_invert_each_other(capsys):
    _, forward, _ = run(capsys, "subst", "l12 l21", "--rule", "old-to-new")
    code, back, _ = run(capsys, "subst", forward.strip(), "--rule", "new-to-old")
    assert code == 0
    assert back.strip() == "l12 l21"


def test_subst_explicit_assignments(capsys):
    code, out, _ = run(capsys, "subst", "x y", "--assign", "x=a b",
                       "--assign", "y=b^-1")
    assert code == 0
    assert out.strip() == "a"


@pytest.mark.parametrize("argv", [
    ("subst", "a", "--gens", "a", "--assign", "a=b", "--assign", "c=d"),
    ("subst", "x", "--assign", "x=a", "--gens", "x", "--assign", "y=b"),
])
def test_subst_assignment_to_an_unknown_generator_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unknown generators" in err


@pytest.mark.parametrize("extra", [
    ("--assign", "l12=x"),
    ("--gens", "l12"),
    ("--target-gens", "x"),
])
def test_subst_rule_rejects_explicit_assignments(capsys, extra):
    code, out, err = run(capsys, "subst", "l12", "--rule", "old-to-new", *extra)
    assert (code, out) == (2, "")
    assert "--rule takes no --assign, --gens or --target-gens" in err


def test_check_hom_free_target_accepts(capsys):
    # both factors map to a commuting pair, so the commutator relator dies
    code, out, _ = run(capsys, "check-hom", "g3",
                       "--assign", "a1=t", "--assign", "b1=t",
                       "--assign", "a2=1", "--assign", "b2=1",
                       "--assign", "c1=1", "--target-gens", "t")
    assert code == 0
    assert "homomorphism" in out.splitlines()[-1]


def test_check_hom_free_target_rejects(capsys):
    code, out, _ = run(capsys, "check-hom", "g3",
                       "--assign", "a1=s", "--assign", "b1=t",
                       "--assign", "a2=1", "--assign", "b2=1",
                       "--assign", "c1=1", "--target-gens", "s,t")
    assert code == 1
    assert "SURVIVES" in out


def test_check_hom_presented_target_certifies_every_relator(capsys):
    images = {"l12": "c2^-1 b1", "l21": "b2 c1^-1 c2", "l13": "c2",
              "l31": "c2^-1 c1", "l23": "c2^-1 a1", "l32": "a2 c1^-1 c2"}
    argv = ["check-hom", "pv3", "--target", "pv3-new"]
    for name, image in images.items():
        argv += ["--assign", "%s=%s" % (name, image)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7 and lines[-1] == "homomorphism"
    # the level search certifies the images of relators 3 and 4, the
    # descent the others
    assert all(line.startswith("relator ") for line in lines[:6])
    assert [line.split(": ", 1)[1] for line in lines[:6]] == \
        ["VERIFIED (certificate found by descent)"] * 3 + ["VERIFIED"] * 2 + \
        ["VERIFIED (certificate found by descent)"]


def test_check_hom_requires_full_assignment(capsys):
    code, _, err = run(capsys, "check-hom", "g3", "--assign", "a1=t")
    assert code == 2
    assert "cover the generators" in err


@pytest.mark.parametrize("argv, message", [
    (("subst", "x"), "need --rule or at least one --assign"),
    (("check-hom", "g3"), "need one --assign NAME=WORD per generator"),
])
def test_option_errors_carry_no_text_position(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [("subst", "x", "--assign", "x"),
                                  ("check-hom", "g3", "--assign", "a1")])
def test_assignment_without_equals_sign_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "assignment must be NAME=WORD, got '%s'" % argv[-1] in err


def test_consequence_search_certifies_a_relator_conjugate(capsys):
    code, out, _ = run(capsys, "consequence", "pv3",
                       "l31 l32 l12 l31^-1 l32^-1 l12^-1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "VERIFIED: certificate found by descent"
    assert len(lines) > 1  # at least one certificate step


FOUR_RELATORS = ("l12^-1 l13^-1 l23^-1 l12 l13 l23 l32^-1 l31 l21^-1 l23 l21 l31 l23^-1 "
                 "l21^-1 l31^-1 l21 l31^-1 l32 l12^-1 l23^-1 l13 l21 l31 l32 l21^-1 "
                 "l31^-1 l32^-1 l13^-1 l23 l12 l31^-1 l21^-1 l32^-1 l13 l12 l32 l13^-1 "
                 "l12^-1 l21 l31")


def test_consequence_prints_the_descent_and_its_steps_verify(capsys):
    # four conjugated pv3 relators: the level search does not reach the
    # fourth level, the descent before it does
    code, out, _ = run(capsys, "consequence", "pv3", FOUR_RELATORS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "VERIFIED: certificate found by descent"
    steps = [re.fullmatch(r"  \((.*), (\d+), ([+-]\d+)\)", line).groups() for line in lines[1:]]
    assert len(steps) == 4
    argv = [arg for step in steps for arg in ("--step", ":".join(step))]
    code, out, _ = run(capsys, "consequence", "pv3", FOUR_RELATORS, *argv)
    assert code == 0
    assert out.startswith("certificate verifies")


def test_consequence_refutes_and_exits_one(capsys):
    code, out, _ = run(capsys, "consequence", "pv3", "l12 l21")
    assert code == 1
    assert out.startswith("REFUTED")


def test_consequence_explicit_certificate(capsys):
    code, out, _ = run(capsys, "consequence", "g3", "a1 b1 a1^-1 b1^-1",
                       "--step", "a1 b1:0:1")
    assert code == 0
    assert "verifies" in out


def test_consequence_certificate_that_does_not_reduce_exits_one(capsys):
    assert run(capsys, "consequence", "g3", "a1", "--step", "a1:0:1") == \
        (1, "certificate does not reduce to a1\n", "")


@pytest.mark.parametrize("step, message", [
    ("a1:0", "certificate step must be 'CONJ : INDEX : SIGN', got 'a1:0'"),
    ("1:0:2", "sign must be +1 or -1, got '2'")])
def test_consequence_malformed_step_exits_two(capsys, step, message):
    assert run(capsys, "consequence", "g3", "1", "--step", step) == \
        (2, "", "error: %s\n" % message)


def test_consequence_bad_step_exits_two(capsys):
    code, _, err = run(capsys, "consequence", "g3", "1", "--step", "a1:99:1")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("step, field", [("1:x:1", "relator index must be an integer, got 'x'"),
                                         ("1:0:y", "sign must be an integer, got 'y'")])
def test_consequence_non_integer_step_field_exits_two(capsys, step, field):
    code, _, err = run(capsys, "consequence", "pv3", "l12", "--step", step)
    assert code == 2
    assert field in err


# exponents past sys.maxsize only: a smaller huge exponent would build the word
@pytest.mark.parametrize("argv", [
    ("reduce", "a^99999999999999999999"),
    ("reduce", "1^-99999999999999999999", "--gens", "a"),
    ("consequence", "pv3", "l12^99999999999999999999"),
    ("nq", "pv3", "--image", "(l12 l13)^99999999999999999999"),
    ("reduce", "a^" + "9" * 5000),  # past the digits int() converts
])
def test_huge_exponent_exits_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "is too large" in err
    assert len(err) < 100


def test_exponent_past_the_integer_string_limit_is_positioned(capsys):
    assert run(capsys, "reduce", "a^" + "9" * 5000) == \
        (2, "", "error: line 1, col 3: exponent of 5000 digits is too large\n")
    # leading zeros do not count, in any script
    assert run(capsys, "reduce", "a^" + "0" * 5000 + "2") == (0, "a^2\n", "")
    assert run(capsys, "reduce", "a^-" + "\u0660" * 700 + "\u0663") == (0, "a^-3\n", "")


def test_syzygy_cancelling_pair(capsys):
    code, out, _ = run(capsys, "syzygy", "g3", "--step", ":0:1",
                       "--step", ":0:-1")
    assert code == 0
    assert "identity among relations" in out


def test_syzygy_single_relator_fails(capsys):
    code, out, _ = run(capsys, "syzygy", "g3", "--step", ":0:1")
    assert code == 1
    assert out.startswith("not")


def test_aut_compose_prints_images(capsys):
    code, out, _ = run(capsys, "aut", "compose", "e12")
    assert code == 0
    assert "x1 -> x2^-1 x1 x2" in out


def test_aut_inner_detects_conjugation(capsys):
    code, out, _ = run(capsys, "aut", "inner", "e12", "e32", "--by", "x2")
    assert code == 0
    assert "conjugation by x2" in out


def test_aut_inner_rejects_wrong_word(capsys):
    # on three letters e12 fixes x3, so it is not conjugation by x2
    code, out, _ = run(capsys, "aut", "inner", "e12", "--by", "x2",
                       "--rank", "3")
    assert code == 1
    assert out.startswith("not")


def test_aut_mccool_all_hold(capsys):
    code, out, _ = run(capsys, "aut", "mccool")
    assert code == 0
    assert "FAILS" not in out
    assert "application_order" in out


@pytest.mark.parametrize("argv, message", [
    (("mccool", "--rank", "0"), "--rank must be at least 3, got 0"),
    (("compose", "e12", "--rank", "0"), "need distinct indices in 1..0, got (1, 2)"),
    (("inner", "e12", "--by", "x2", "--rank", "0"), "need distinct indices in 1..0, got (1, 2)"),
    (("compose", "(e12 e13)^2", "--rank", "0"), "need distinct indices in 1..0, got (1, 2)"),
    (("mccool", "--rank", "2"), "--rank must be at least 3, got 2"),
])
def test_aut_rank_zero_is_rejected_not_replaced(capsys, argv, message):
    code, out, err = run(capsys, "aut", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_aut_generators_form_one_word(capsys):
    code, grouped, _ = run(capsys, "aut", "compose", "(e12 e13)^2", "--apply", "x1")
    assert code == 0
    assert grouped == run(capsys, "aut", "compose", "e12", "e13", "e12", "e13",
                          "--apply", "x1")[1]
    code, bracket, _ = run(capsys, "aut", "compose", "[e12, e13]")
    assert code == 0
    assert bracket == run(capsys, "aut", "compose", "e12^-1", "e13^-1", "e12", "e13")[1]
    assert "x1 -> x1" not in bracket


@pytest.mark.parametrize("generators, message", [
    (("e12^0",), "line 1, col 5: exponent 0 is not allowed"),
    (("e12", "e13^0"), "line 1, col 9: exponent 0 is not allowed"),
    (("e12^x",), "line 1, col 5: expected 'NUMBER', found 'x'"),
    (("x12",), "cannot read generator 'x12' as eij"),
    (("e12", "e1x"), "cannot read generator 'e1x' as eij"),
])
def test_aut_generators_must_be_a_word_in_the_eij(capsys, generators, message):
    code, out, err = run(capsys, "aut", "compose", *generators)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_aut_hnn_all_hold(capsys):
    code, out, _ = run(capsys, "aut", "hnn")
    assert code == 0
    assert out.count("holds") == 14


def test_nq_layers_and_images(capsys):
    code, out, _ = run(capsys, "nq", "pv3", "--class", "2",
                       "--image", "l12 l21 l12^-1 l21^-1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree 1: rank 6"
    assert lines[1] == "degree 2: rank 9"
    assert "-> (0, 0, 0, 0, 0, 0, -1," in lines[2]


def test_nq_image_parse_error_exits_before_the_build(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("built the quotient before reading --image")

    monkeypatch.setattr(cli, "nilpotent_quotient", unreachable)
    code, out, err = run(capsys, "nq", "pv3", "--class", "2", "--image", "l12^0")
    assert (code, out) == (2, "")
    assert "exponent 0 is not allowed" in err


def test_nq_budget_stop_reports_unknown(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise CollectionBudget("collection exceeded 10 steps")

    monkeypatch.setattr(cli, "nilpotent_quotient", exhausted)
    code, out, err = run(capsys, "nq", "pv3", "--class", "2")
    assert code == 1
    assert out == ""
    assert err == "unknown: collection exceeded 10 steps\n"


def test_consequence_budget_stop_prints_unknown_on_stdout(capsys):
    # a pv3 consequence whose class-4 image runs past the collection budget
    word = ("l13^-1 l32 l12 l31^-1 l32^-1 l12^-1 l31 l13 l21 l32^-2 l23 l31 l13^-1 "
            "l31 l13^-2 l31^-1 l12 l32 l31 l12^-1 l32^-1 l13^2 l31^-1 l13 l31^-1 "
            "l23^-1 l32^2 l21^-1")
    code, out, err = run(capsys, "consequence", "pv3", word)
    assert (code, err) == (1, "")
    assert out == ("UNKNOWN: bounds exhausted without certificate or refutation; "
                   "the walk stopped: collection exceeded 10000000 steps\n")


def test_nq_reads_presentation_files(tmp_path, capsys):
    path = tmp_path / "klein.pres"
    path.write_text("gens: a t\nrel: t a t^-1 a\n")
    code, out, _ = run(capsys, "nq", str(path), "--class", "2")
    assert code == 0
    assert "degree 1: rank 1, torsion Z/2" in out
    assert "degree 2: rank 0, torsion Z/2" in out


def test_generator_names_the_grammar_cannot_read_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.pres"
    path.write_text("gens: a^2 b\nrel: b\n")
    for argv in (("nq", str(path)), ("reduce", "x y", "--gens", "x(,y")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "letter followed by letters, digits or '_'" in err


def test_generator_lists_are_read_by_the_tokenizer(capsys):
    # as on a gens: line, a list stops at its first bad token, at its column
    for flag in ("--gens", "--target-gens"):
        assert run(capsys, "subst", "x", "--assign", "x=a", flag, "x a!") == \
            (2, "", "error: line 1, col 4: unexpected character '!'\n")


def test_repeated_generator_name_is_reported_at_its_column(tmp_path, capsys):
    path = tmp_path / "twice.pres"
    path.write_text("# c\ngens: a b a\nrel: a b\n")
    assert run(capsys, "nq", str(path)) == \
        (2, "", "error: line 2, col 11: duplicate generator name 'a'\n")
    for flag in ("--gens", "--target-gens"):
        assert run(capsys, "subst", "x", "--assign", "x=a", flag, "a a") == \
            (2, "", "error: line 1, col 3: duplicate generator name 'a'\n")


def test_parse_errors_point_into_the_text_as_given(tmp_path, capsys):
    # a superscript digit is a character the grammar does not know, and a
    # relator's column counts from the start of its line in the file
    path = tmp_path / "bad.pres"
    path.write_text("gens: a\n  rel: a c\n")
    for argv, message in ((("reduce", "a^\u00b2"), "line 1, col 3: unexpected character '\u00b2'"),
                          (("nq", str(path)), "line 2, col 10: in rel: on line 2: "
                                              "unknown generator 'c' (alphabet: a)")):
        assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_cohomology_pv3_matches_closed_form(capsys):
    code, out, _ = run(capsys, "cohomology", "pv3")
    assert code == 0
    assert "degree 2: rank 6" in out
    assert "matches closed form (1, 6, 6, 0): yes" in out


@pytest.mark.parametrize("flavour", ["pv3", "g3"])
def test_cohomology_negative_max_degree_exits_two(capsys, flavour):
    code, out, err = run(capsys, "cohomology", flavour, "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "--max-degree must be at least 0, got -1" in err


def test_cohomology_g3_prints_the_factor_ranks(capsys):
    assert run(capsys, "cohomology", "g3") == (0, "".join(
        "degree %d: rank %d\n" % pair for pair in enumerate((1, 5, 6, 0))), "")


def test_cohomology_beer_row(capsys):
    code, out, _ = run(capsys, "cohomology", "beer", "-n", "4")
    assert code == 0
    assert out.strip() == "1 12 36 24 0"


@pytest.mark.parametrize("strands", ["0", "-3"])
def test_cohomology_beer_strands_below_one_exits_two(capsys, strands):
    code, out, err = run(capsys, "cohomology", "beer", "--strands", strands)
    assert code == 2
    assert out == ""
    assert "--strands must be at least 1, got %s" % strands in err


def test_cohomology_wedge_lists_supports_and_cups(capsys):
    code, out, _ = run(capsys, "cohomology", "wedge")
    assert code == 0
    assert "c1* -> z11 + z21 + z31 + z41" in out
    assert "a1* b2* -> (0, 0, 0, -1, 1, 0)" in out


def test_lie_dims_default_and_the_factor(capsys):
    # pv3 by default, and the same ranks from pv3-new; g3 is the factor
    for argv, ranks in (((), ["6", "9", "34"]), (("pv3-new",), ["6", "9", "34"]),
                        (("g3",), ["5", "4", "10"])):
        code, out, _ = run(capsys, "lie", "dims", *argv)
        assert code == 0
        assert [l.split("rank ")[1] for l in out.splitlines()] == ranks


def test_lie_reads_presentation_files(tmp_path, capsys):
    path = tmp_path / "two-tori.pres"
    path.write_text("gens: a b c d\nrel: [a, b]\nrel: [c, d]\n")
    code, out, _ = run(capsys, "lie", "dims", str(path))
    assert code == 0
    assert [l.split("rank ")[1] for l in out.splitlines()] == ["4", "4", "12"]


@pytest.mark.parametrize("text, message", [
    ("gens: a b\nrel: [a, b]\n  [b, a]\n", "line 3, col 1: expected a gens: or rel: line"),
    ("# empty\ngens: # none\nrel: a\n", "line 2, col 1: gens: line names no generators"),
], ids=["stray-line", "no-generators"])
def test_presentation_file_lines_are_checked(tmp_path, capsys, text, message):
    path = tmp_path / "bad.pres"
    path.write_text(text)
    assert run(capsys, "nq", str(path)) == (2, "", "error: %s\n" % message)


def test_lie_rejects_a_relator_with_a_nonzero_exponent_sum(tmp_path, capsys):
    path = tmp_path / "klein.pres"
    path.write_text("gens: a t\nrel: t a t^-1 a\n")
    code, out, err = run(capsys, "lie", "dims", str(path))
    assert (code, out) == (2, "")
    assert "nonzero exponent sum" in err


def test_lie_factor_only_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lie", "dims", "--factor-only"])
    assert exc.value.code == 2


def test_lie_env_prints_the_enveloping_ranks(capsys):
    # 5^2 - 6 in degree 2, and the series of the Lie ranks (5, 4, 10) in degree 3
    assert run(capsys, "lie", "env", "g3", "--max-degree", "3") == \
        (0, "degree 1: rank 5\ndegree 2: rank 19\ndegree 3: rank 65\n", "")


def test_lie_pbw_consistent(capsys):
    code, out, _ = run(capsys, "lie", "pbw")
    assert code == 0
    assert "consistent" in out.splitlines()[-1]


@pytest.mark.parametrize("action, degree", [("dims", "-1"), ("dims", "0"), ("env", "0"),
                                            ("env", "-2"), ("pbw", "-1"), ("pbw", "0")])
def test_lie_max_degree_below_one_exits_two(capsys, action, degree):
    code, out, err = run(capsys, "lie", action, "--max-degree", degree)
    assert code == 2
    assert out == ""
    assert "--max-degree must be at least 1, got %s" % degree in err


def test_q3_is_not_a_built_in_name(capsys, tmp_path, monkeypatch):
    # not a built-in name, so it is read as a file path, and there is none
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "nq", "q3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "'q3'" in err


def test_lie_derivation(capsys):
    # dims, env and pbw are the only actions
    with pytest.raises(SystemExit) as exc:
        main(["lie", "derivation"])
    assert exc.value.code == 2
    assert "invalid choice: 'derivation'" in capsys.readouterr().err


def test_suite_default_all_pass(capsys):
    code, out, _ = run(capsys, "suite")
    assert code == 0
    assert out.splitlines()[-1] == "10 checks: 10 PASS"


def test_paper_suite_alias(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    assert out.splitlines()[-1] == "10 checks: 10 PASS"


def test_suite_class_one_degrades_to_unknown(capsys):
    code, out, _ = run(capsys, "suite", "--class", "1")
    assert code == 0
    assert out.splitlines()[-1] == "10 checks: 7 PASS, 3 UNKNOWN"
    assert out.count("skipped") == 3


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_suite_max_degree_below_one_skips_the_graded_check(capsys, degree):
    code, out, _ = run(capsys, "suite", "--max-degree", degree)
    assert code == 0
    assert out.splitlines()[-1] == "10 checks: 9 PASS, 1 UNKNOWN"
    line, = [l for l in out.splitlines() if "08-graded-lie-comparison" in l]
    assert line.startswith("UNKNOWN") and "skipped" in line


def test_suite_json_stdout_is_deterministic(capsys):
    _, first, _ = run(capsys, "suite", "--json", "-")
    code, second, _ = run(capsys, "suite", "--json", "-")
    assert code == 0
    assert first == second
    report = json.loads(first)
    assert report["schema_version"] == 1
    assert len(report["checks"]) == 10
    assert all("wall_ms" not in c for c in report["checks"])


def test_suite_json_file_plus_text(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "suite", "--json", str(path))
    assert code == 0
    assert "10 checks" in out
    report = json.loads(path.read_text())
    assert [c["status"] for c in report["checks"]] == ["PASS"] * 10


def test_suite_timings_flag_adds_wall_ms(capsys):
    code, out, _ = run(capsys, "suite", "--timings", "--json", "-")
    assert code == 0
    report = json.loads(out)
    assert all(c["wall_ms"] >= 0 for c in report["checks"])


def test_suite_without_search_leaves_the_splitting_unknown(capsys):
    code, out, _ = run(capsys, "suite", "--search-bounds", "0,0", "--json", "-")
    assert code == 0
    report = json.loads(out)
    assert report["options"]["search_bounds"] == [0, 0]
    check, = [c for c in report["checks"] if c["id"] == "06-free-product-splitting"]
    assert check["status"] == "UNKNOWN"
    assert "0 of 12 relator images certified" in check["details"]


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bounds", ["-1,-5", "-1,4", "3,-2", "1", "1,2,3", "a,b"])
def test_search_bounds_must_be_two_non_negative_integers(capsys, bounds):
    with pytest.raises(SystemExit) as exc:
        main(["consequence", "pv3", "l12 l21", "--search-bounds=" + bounds])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "expected two non-negative integers L,K, got %r" % bounds in err


def test_search_bounds_accept_zero(capsys):
    code, out, _ = run(capsys, "consequence", "pv3", "l12 l21", "--search-bounds", "0,0")
    assert code == 1
    assert out.startswith("REFUTED")


@pytest.mark.parametrize("command", ["check-hom", "consequence", "suite", "paper-suite"])
def test_search_bounds_help_is_one_text_naming_both_bounds(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # as wrapped at any width
    default = SearchBounds()
    assert ("--search-bounds L,K certificate search bounds: L the insertion depth max_prefix, "
            "K the certificate length max_steps (default %d,%d)"
            % (default.max_prefix, default.max_steps)) in out


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args):
    """Run the interpreter with the package on its path and nothing loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


LOADED = ("import sys, {module}; "
          "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'pvb3')))")


def test_cli_import_loads_only_the_presentation_engines():
    done = fresh_python("-c", LOADED.format(module="pvb3.cli"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["pvb3", "pvb3.cli", "pvb3.fpres", "pvb3.grammar",
                                   "pvb3.intlinalg", "pvb3.nq", "pvb3.word"]


def test_package_import_skips_the_deferred_engines():
    done = fresh_python("-c", LOADED.format(module="pvb3"))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "pvb3" in loaded
    assert not loaded & {"pvb3.autf", "pvb3.grcohom", "pvb3.lie", "pvb3.suite"}


NEW_MODULES = ("import sys; bare = set(sys.modules); import {module}; "
               "print(' '.join(sorted(set(sys.modules) - bare)))")


@pytest.mark.parametrize("module", ["pvb3.cli", "pvb3.suite"])
def test_no_command_loads_dataclasses_or_inspect(module):
    # both cost each fresh process milliseconds at import; modules the bare
    # interpreter already holds do not count
    done = fresh_python("-c", NEW_MODULES.format(module=module))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert module in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    ("aut", "hnn"),
    ("aut", "compose", "e12", "e13^-1", "--apply", "x1"),
    ("cohomology", "pv3"),
    ("lie", "dims", "--max-degree", "2"),
    ("suite", "--class", "2", "--max-degree", "2"),
], ids="-".join)
def test_commands_with_deferred_imports_run_in_a_fresh_interpreter(argv):
    done = fresh_python("-m", "pvb3.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The pvb3 lines of the README's sh blocks as argv lists, with
    backslash continuations joined and comments stripped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv[1:] for argv in commands
            if argv[:1] == ["pvb3"] and not any("path/to/" in a for a in argv)]


def test_readme_library_example_runs():
    text = README.read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["q"].layers == ((6, ()), (9, ()), (34, ()))
    assert namespace["res"].status == "VERIFIED"
    exports = re.search(r"The package root exports (.*?)\. The other", text, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", exports)) == sorted(pvb3.__all__)


def package_names():
    """Every attribute of a pvb3 module or of a class one defines, and every
    ``_fields`` entry: what a bare name in README.md may refer to."""
    names = set()
    for path in Path(pvb3.__file__).parent.glob("*.py"):
        module = importlib.import_module("pvb3." + path.stem)
        names.update(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                names.update(dir(value))
                names.update(getattr(value, "_fields", ()))
    return names


def test_readme_module_references_resolve():
    # a backticked module.name, with or without the pvb3. prefix, must name
    # an attribute of that module, so a deletion takes its mention with it
    modules = {p.stem for p in Path(pvb3.__file__).parent.glob("*.py")}
    references = [(module, name) for module, name in
                  re.findall(r"`(?:pvb3\.)?(\w+)\.(\w+)`", README.read_text())
                  if module in modules]
    assert len(references) >= 9
    assert [".".join(ref) for ref in references
            if not hasattr(importlib.import_module("pvb3." + ref[0]), ref[1])] == []
    # so must a bare backticked identifier with an underscore or a capital
    # first letter, unless it is a builtin
    bare = {name for name in re.findall(r"`(_*[A-Za-z]\w*)`", README.read_text())
            if "_" in name or name[0].isupper()}
    assert len(bare) >= 30
    assert sorted(bare - package_names() - set(dir(builtins))) == []


def test_readme_commands_are_accepted(capsys):
    commands = readme_commands()
    assert len(commands) >= 12
    rejected = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse refused the line
            code = exit.code
        if code == 2:
            rejected.append(" ".join(argv))
    assert rejected == []
