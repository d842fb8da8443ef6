"""Command-line interface: outputs, exit codes, and seeded checks."""
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import listfn
from helpers import time_limit, word_sort_fot
from listfn.algebra import (FiniteMonoid, Leaf, Node, tree_depth, tree_yield,
                            validate_factorisation)
from listfn.cli import _render_tree, main
from listfn.fileio import save_fot, save_monoid, save_rational, save_sst, save_structure
from listfn.logic import FOTransduction, Structure, builtin_fot, parse_formula
from listfn.samples import SAMPLE_RATIONALS, SAMPLE_SSTS, hom_u1_keep_a
from listfn.registers import t_k_monoid
from listfn.types import FinSet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_typecheck_prints_the_arrow_type(capsys):
    code, out, _ = run(capsys, "typecheck", "reverse@{a,b}")
    assert code == 0
    assert out.strip() == "{a,b}^* -> {a,b}^*"


def test_typecheck_rejects_ill_typed_terms(capsys):
    code, _, err = run(capsys, "typecheck",
                       "(compose reverse@{a,b} proj1@{a,b},{c,d})")
    assert code == 3
    assert err


def test_syntax_errors_exit_2(capsys):
    code, _, err = run(capsys, "typecheck", "(compose reverse@{a,b}")
    assert code == 2
    assert err


@pytest.mark.parametrize("text", ["}", ":}<9"])
def test_stray_closing_brace_exits_2(capsys, text):
    code, _, err = run(capsys, "typecheck", text)
    assert code == 2
    assert err


def test_eval_basic_term(capsys):
    code, out, _ = run(capsys, "eval", "reverse@{a,b}", "[a,b]")
    assert code == 0
    assert out.strip() == "[b,a]"


def test_eval_catalog_name(capsys):
    code, out, _ = run(capsys, "eval", "std:len_upto@2,{a,b}", "[a,b,a]")
    assert (code, out.strip()) == (0, "2")


def test_eval_value_outside_domain_exits_3(capsys):
    code, _, err = run(capsys, "eval", "reverse@{a,b}", "[c]")
    assert code == 3
    assert err


def test_eval_term_from_file(capsys, tmp_path):
    p = tmp_path / "t.lterm"
    p.write_text("listfn-term 1\n(compose reverse@{a,b}\n  reverse@{a,b})\n")
    code, out, _ = run(capsys, "eval", str(p), "[a,b]")
    assert (code, out.strip()) == (0, "[a,b]")


def test_forest_reports_validity_and_bound(capsys):
    code, out, _ = run(capsys, "forest", "contains-ab", "abab")
    assert code == 0
    assert "valid: yes" in out
    assert "yield: preserved" in out
    depth = int(next(ln.split()[1] for ln in out.splitlines()
                     if ln.startswith("depth:")))
    bound = int(next(ln.split()[1] for ln in out.splitlines()
                     if ln.startswith("bound:")))
    assert depth <= bound


def test_forest_deeper_than_its_bound_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("listfn.cli.forest_depth_bound", lambda monoid, generators: 0)
    code, out, err = run(capsys, "forest", "contains-ab", "abab")
    assert (code, out) == (4, "")
    assert "bound: 0\nvalid: yes\nyield: preserved\n" in err


def test_forest_rejects_empty_word(capsys):
    code, out, err = run(capsys, "forest", "contains-ab", "")
    assert (code, out) == (2, "")
    assert "factorisation needs a nonempty word" in err


def test_compile_and_run_pipeline(capsys, tmp_path):
    pipe = tmp_path / "keepa.lpipe"
    code, _, _ = run(capsys, "compile-rational", "keep-a", "-o", str(pipe))
    assert code == 0
    assert pipe.exists()
    code, out, _ = run(capsys, "run-pipeline", str(pipe), "abab")
    assert code == 0
    assert out.strip() == "abb"
    code, out, _ = run(capsys, "run-pipeline", str(pipe), "")
    assert code == 0
    assert out.strip() == ""


def test_tampered_pipeline_is_caught(capsys, tmp_path):
    pipe = tmp_path / "keepa.lpipe"
    run(capsys, "compile-rational", "keep-a", "-o", str(pipe))
    lines = pipe.read_text().splitlines()
    patched = ["table 1.a.0 b" if ln.startswith("table 1.a.0") else ln
               for ln in lines]
    assert patched != lines
    pipe.write_text("\n".join(patched) + "\n")
    code, _, err = run(capsys, "run-pipeline", str(pipe), "abab")
    assert code == 4
    assert "difference" in err or "mismatch" in err


def test_pipeline_with_a_tampered_bound_exits_2(capsys, tmp_path):
    pipe = tmp_path / "keepa.lpipe"
    run(capsys, "compile-rational", "keep-a", "-o", str(pipe))
    text = pipe.read_text()
    assert "\nbound 6\n" in text
    pipe.write_text(text.replace("\nbound 6\n", "\nbound 1\n"))
    code, out, err = run(capsys, "run-pipeline", str(pipe), "abab")
    assert (code, out) == (2, "")
    assert "bound 1 differs from the recomputed bound 6" in err


def test_sst_prints_the_word_its_two_runs_agree_on(capsys):
    code, out, _ = run(capsys, "sst", "reverse", "abb")
    assert (code, out.strip()) == (0, "bba")
    code, out, _ = run(capsys, "sst", "drop-last", "ab", "--format", "json-lines")
    assert code == 0
    assert json.loads(out) == {"kind": "sst", "input": {"sst": "drop-last", "word": "ab"},
                               "output": "a", "status": "ok"}


def test_sst_runs_that_disagree_exit_4(capsys, monkeypatch):
    monkeypatch.setattr("listfn.cli.run_sst_structured", lambda sst, word: ("b", "a"))
    code, out, _ = run(capsys, "sst", "reverse", "abb", "--format", "json-lines")
    assert code == 4
    (record,) = [json.loads(ln) for ln in out.splitlines()]
    assert record["status"] == "mismatch"
    assert record["output"] == {"structured-output": "ba", "naive-output": "bba",
                                "first-difference": "position 1"}


def test_encode_decode_round_trip(capsys, tmp_path):
    f = tmp_path / "v.lstruct"
    code, _, _ = run(capsys, "encode", "[a,b,a]", "{a,b}^*", "-o", str(f))
    assert code == 0
    code, out, _ = run(capsys, "decode", str(f), "{a,b}^*")
    assert (code, out.strip()) == (0, "[a,b,a]")


def _tampered(capsys, tmp_path, value, old, new):
    """The encoding of ``value`` at {a,b}^*, saved with the line ``old`` replaced."""
    f = tmp_path / "v.lstruct"
    run(capsys, "encode", value, "{a,b}^*", "-o", str(f))
    text = f.read_text()
    assert text.count(f"\n{old}\n") == 1
    f.write_text(text.replace(f"\n{old}\n", f"\n{new}\n" if new else "\n"))
    return f


@pytest.mark.parametrize("value, old, new, message", [
    ("[a,b,b]", "tuple 1 3", "tuple 3 1",
     "sib does not match the encoding of the value read: missing tuple (1, 3)"),
    ("[a,b]", "tuple 0 2", None, "pare is not a tree: 2 root(s) and 1 tuple(s) on 3 nodes"),
], ids=["sib-cycle", "two-roots"])
def test_decode_names_the_relation_of_a_tampered_structure(capsys, tmp_path, value, old,
                                                           new, message):
    f = _tampered(capsys, tmp_path, value, old, new)
    assert run(capsys, "decode", str(f), "{a,b}^*") == (3, "", message + "\n")


def test_decode_reads_a_reversed_sib_as_the_reversed_list(capsys, tmp_path):
    # with two letters, reversing the one sib tuple gives an encoding again
    f = _tampered(capsys, tmp_path, "[a,b]", "tuple 1 2", "tuple 2 1")
    assert run(capsys, "decode", str(f), "{a,b}^*") == (0, "[b,a]\n", "")


@pytest.mark.parametrize("argv", [
    ("encode", "[a]", "{a}^*"),
    ("compile-rational", "keep-a"),
    ("fot", "ab_example", "--word", "ab"),
], ids=["encode", "compile-rational", "fot-word"])
@pytest.mark.parametrize("target", ["missing/out", "."], ids=["missing-dir", "dir"])
def test_output_that_cannot_be_written_exits_2(capsys, tmp_path, monkeypatch, argv, target):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "-o", target)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"{target}: ")


def test_fot_on_word_structures(capsys):
    code, out, _ = run(capsys, "fot", "ab_example", "--word", "ababa")
    assert (code, out.strip()) == (0, "aaabb")


@pytest.mark.parametrize("transduction, word, code, message", [
    ("ab_example", "abc", 3, "letters ['c'] not in alphabet ('a', 'b')"),
    ("flat@{a,b}", "ab", 3, "vocabulary mismatch: input needs t_0_0/1"),
    ("word-vocabulary.lfot", "ab", 3, "vocabulary mismatch: input needs Q_a/1"),
    ("coappend@{a,b}", "ab", 3, "vocabulary does not match the encoding of the type"),
    ("reverse@{a,b}", "abb", 0, "bba"),
], ids=["letter", "input-type", "word-vocabulary-file", "output-type", "reverse"])
def test_fot_word_is_encoded_and_decoded_at_ab_star(capsys, tmp_path, transduction,
                                                    word, code, message):
    if transduction.endswith(".lfot"):
        # the ab_example file saved before ab_example moved to {a,b}^*
        transduction = str(tmp_path / transduction)
        save_fot(transduction, word_sort_fot())
        assert hashlib.sha256(Path(transduction).read_bytes()).hexdigest() == (
            "55ae454f233272214cdf74c7e1c55355d606b56be471a297d3938c9d9970b86f")
    got, out, err = run(capsys, "fot", transduction, "--word", word)
    assert (got, (out if code == 0 else err).strip()) == (code, message)


def test_fot_word_output_can_be_written_to_a_file(capsys, tmp_path):
    f = tmp_path / "out.lstruct"
    code, out, _ = run(capsys, "fot", "ab_example", "--word", "bab", "-o", str(f))
    assert (code, out) == (0, f"structure: {f}\nuniverse: 4\n")
    code, out, _ = run(capsys, "decode", str(f), "{a,b}^*")
    assert (code, out) == (0, "[a,b,b]\n")


@pytest.mark.parametrize("decode, code, message", [
    ("{a,b}^*", 0, "[a,b,b]"),
    ("{a}", 3, "vocabulary does not match the encoding of the type"),
], ids=["ab-star", "other-type"])
def test_fot_word_output_is_decoded_at_the_given_type(capsys, tmp_path, decode, code,
                                                      message):
    f = tmp_path / "out.lstruct"
    got, out, err = run(capsys, "fot", "ab_example", "--word", "bab", "-o", str(f),
                        "--decode", decode)
    assert (got, (out if code == 0 else err).strip()) == (code, message)
    assert not f.exists()  # --decode prints, as it does for a structure file


def test_fot_word_and_structure_file_together_exit_2(capsys, tmp_path):
    f = tmp_path / "v.lstruct"
    run(capsys, "encode", "[a,b]", "{a,b}^*", "-o", str(f))
    code, out, err = run(capsys, "fot", "ab_example", str(f), "--word", "ab")
    assert (code, out) == (2, "")
    assert "fot takes a structure file or --word, not both" in err


def test_fot_builtin_on_structure_file(capsys, tmp_path):
    f = tmp_path / "v.lstruct"
    run(capsys, "encode", "[[a,b],[b]]", "({a,b}^*)^*", "-o", str(f))
    code, out, _ = run(capsys, "fot", "flat@{a,b}", str(f),
                       "--decode", "{a,b}^*")
    assert (code, out.strip()) == (0, "[a,b,b]")


@pytest.mark.parametrize("file_first", [True, False],
                         ids=["file-then-type", "type-then-file"])
def test_fot_builtin_takes_its_file_before_or_after_type(capsys, tmp_path,
                                                         file_first):
    f = tmp_path / "v.lstruct"
    run(capsys, "encode", "[a,b,b]", "{a,b}^*", "-o", str(f))
    types = ["--type", "{a,b}"]
    args = [str(f), *types] if file_first else [*types, str(f)]
    code, out, _ = run(capsys, "fot", "reverse", *args, "--decode", "{a,b}^*")
    assert (code, out.strip()) == (0, "[b,b,a]")


@pytest.mark.parametrize("argv, message", [
    (["reverse", "--word", "ab"], "reverse takes 1 type argument(s), got 0"),
    (["reverse", "--type", "{a}", "--type", "{b}", "--word", "ab"],
     "reverse takes 1 type argument(s), got 2"),
    (["block@{a}", "--word", "ab"], "block takes 2 type argument(s), got 1"),
], ids=["type-none", "type-two", "at-one"])
def test_fot_with_a_wrong_type_count_exits_2(capsys, argv, message):
    """As ``check fot-commute`` does, with the same message."""
    code, out, err = run(capsys, "fot", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_check_passes_and_reports_json(capsys):
    code, out, _ = run(capsys, "check", "sst", "--count", "20",
                       "--format", "json-lines")
    assert code == 0
    records = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    assert records
    for rec in records:
        assert set(rec) == {"kind", "input", "output", "status"}
        assert rec["status"] == "pass"


@pytest.mark.parametrize("which", ["rational", "forest", "registers-fold"])
def test_check_families_pass_at_small_counts(capsys, which):
    code, out, _ = run(capsys, "check", which, "--count", "25")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("argv", [("rational", "--count", "-1"),
                                  ("all", "--count", "0")], ids=["negative", "zero"])
def test_check_count_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert "--count must be at least 1" in err
    assert "pass" not in out


def test_check_seed_env_is_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("LISTFN_SEED", "99")
    _, out1, _ = run(capsys, "check", "rational", "--count", "10",
                     "--format", "json-lines")
    _, out2, _ = run(capsys, "check", "rational", "--count", "10",
                     "--format", "json-lines")
    assert out1 == out2
    assert '"seed": 99' in out1
    monkeypatch.setenv("LISTFN_SEED", "100")
    _, out3, _ = run(capsys, "check", "rational", "--count", "10",
                     "--format", "json-lines")
    assert '"seed": 100' in out3


@pytest.mark.parametrize("argv", [
    ["reverse"], ["append"], ["coappend"], ["flat"], ["block"], ["ab_example"],
    ["reverse", "--type", "{a,b,c}"], ["block", "--type", "{a}", "--type", "{b,c}"],
], ids=["reverse", "append", "coappend", "flat", "block", "ab_example",
        "reverse-type", "block-types"])
def test_check_fot_commute_on_one_builtin(capsys, argv):
    code, out, _ = run(capsys, "check", "fot-commute", *argv, "--count", "3",
                       "--format", "json-lines")
    assert code == 0
    (record,) = [json.loads(ln) for ln in out.splitlines()]
    assert record["output"]["builtins"] == argv[0]
    assert record["output"]["result"] == "pass"


def test_check_fot_commute_needs_a_builtin_name(capsys):
    code, out, err = run(capsys, "check", "fot-commute")
    assert (code, out) == (2, "")
    assert "check fot-commute needs a builtin name: reverse, append" in err


@pytest.mark.parametrize("argv, message", [
    (["all", "fooo"], "'fooo' is not one of reverse, append"),
    (["fot-commute", "fooo"], "'fooo' is not one of reverse, append"),
    (["rational", "nonsense"], "check rational takes no target, got 'nonsense'"),
    (["forest", "reverse"], "check forest takes no target, got 'reverse'"),
    (["all", "--type", "{a}"], "block takes 2 type argument(s), got 1"),
    (["rational", "--type", "{a}"], "check rational takes no --type"),
    (["all", "reverse", "--type", "{a"], "unexpected end of type"),
    (["fot-commute", "ab_example", "--type", "{a}"],
     "ab_example takes 0 type argument(s), got 1"),
], ids=["all", "fot-commute", "rational", "forest-builtin", "all-type",
        "rational-type", "all-bad-type", "ab_example-type"])
def test_check_refuses_a_bad_target_before_any_output(capsys, argv, message):
    code, out, err = run(capsys, "check", *argv, "--count", "1")
    assert (code, out) == (2, "")
    assert message in err


def test_check_stdlib_covers_every_catalog_entry(capsys):
    code, out, _ = run(capsys, "check", "stdlib", "--count", "1")
    assert code == 0
    assert "entries: 17\ncases: 29\nseed: 0\nresult: pass" in out


def test_check_all_records_keep_their_keys_and_counts(capsys):
    code, out, _ = run(capsys, "check", "all", "--count", "2", "--seed", "7",
                       "--format", "json-lines")
    assert code == 0
    fields = {rec["input"]: list(rec["output"].items())
              for rec in map(json.loads, out.splitlines())}
    tail = [("seed", 7), ("result", "pass")]
    assert fields == {
        "rational": [("check", "rational"),
                     ("functions", "keep-a, mark-after-ab, double-last-b"),
                     ("cases", 6), *tail],
        "registers-fold": [("check", "registers-fold"), ("cases", 2), *tail],
        "fot-commute": [("check", "fot-commute"), ("cases", 162),
                        ("builtins", "reverse, append, coappend, flat, block, "
                                     "ab_example"), *tail],
        "sst": [("check", "sst"), ("ssts", "identity, reverse, drop-last"),
                ("cases", 6), *tail],
        "forest": [("check", "forest"), ("monoids", "u1, contains-ab"),
                   ("cases", 4), *tail],
        "stdlib": [("check", "stdlib"), ("entries", 17), ("cases", 29), *tail],
    }


def test_a_failing_check_exits_4_and_names_its_first_case(capsys, monkeypatch):
    monkeypatch.setattr("listfn.cli.tree_depth", lambda tree: 10**9)
    code, out, err = run(capsys, "check", "forest", "--count", "2",
                         "--seed", "7")
    assert (code, out) == (4, "")
    assert "cases: 4\n" in err
    assert "result: fail (4 case(s); first: u1 on b)" in err
    code, out, _ = run(capsys, "check", "all", "--count", "2", "--seed", "7",
                       "--format", "json-lines")
    assert code == 4
    statuses = {rec["input"]: rec["status"]
                for rec in map(json.loads, out.splitlines())}
    assert statuses.pop("forest") == "fail"
    assert set(statuses.values()) == {"pass"}


def test_registers_fold_runs_the_update_pipeline(capsys, monkeypatch):
    """Every third case runs an update-emitting rational function through
    ``fot_pipeline_eval``; a wrong answer there fails the check."""
    monkeypatch.setattr("listfn.cli.fot_pipeline_eval", lambda g, k, word: ("x",))
    code, out, err = run(capsys, "check", "registers-fold", "--count", "3")
    assert (code, out) == (4, "")
    assert "result: fail (1 case(s); first: case 2 (" in err


_AB = FinSet(("a", "b"))
# per command: file name, how to save it, the field made 5,000 digits long, argv
_LONG_NUMBER_FILES = {
    "decode": ("big.lstruct", lambda p: save_structure(p, Structure((0,), {}, {})),
               "universe 0", "universe 0\nrel q N", ["{a}^*"]),
    "fot": ("big.lfot", lambda p: save_fot(p, builtin_fot("reverse", _AB)),
            "copies 1", "copies N", ["--word", "ab"]),
    "sst": ("big.lsst", lambda p: save_sst(p, SAMPLE_SSTS["drop-last"]),
            "$2]", "$N]", ["ab"]),
}


@pytest.mark.parametrize("command", sorted(_LONG_NUMBER_FILES))
def test_a_5000_digit_number_in_a_file_exits_2_naming_it(capsys, tmp_path, command):
    name, save, old, new, argv = _LONG_NUMBER_FILES[command]
    p = tmp_path / name
    save(p)
    text = p.read_text(encoding="utf-8")
    assert old in text
    p.write_text(text.replace(old, new.replace("N", "9" * 5000), 1), encoding="utf-8")
    code, out, err = run(capsys, command, str(p), *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"{p}: ") and "Traceback" not in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "run-pipeline",
                       str(tmp_path / "nope.lpipe"), "ab")
    assert code == 2
    assert err


def test_forest_on_a_large_monoid_file(capsys, tmp_path):
    for k in (3, 4):
        t_k = t_k_monoid(k)[0]
        p = tmp_path / f"t{k}.lmonoid"
        save_monoid(p, t_k, {"a": t_k.elements[1], "b": t_k.elements[2]})
        code, out, _ = run(capsys, "forest", str(p), "abab")
        assert code == 0
        assert "valid: yes" in out


def test_forest_on_a_large_monoid_file_with_one_changed_product_exits_2(
        capsys, tmp_path):
    t_4 = t_k_monoid(4)[0]
    p = tmp_path / "t4.lmonoid"
    save_monoid(p, t_4, {"a": t_4.elements[1], "b": t_4.elements[2]})
    # change the product a·b of two elements other than the identity
    a, b = t_4.elements[3], t_4.elements[5]
    assert t_4.identity not in (a, b)
    lines = p.read_text(encoding="utf-8").splitlines()
    for n, line in enumerate(lines):
        fields = shlex.split(line)
        if fields[:2] == ["row", a]:
            j = 2 + t_4.index[b]
            fields[j] = next(c for c in t_4.elements if c != fields[j])
            lines[n] = " ".join(map(shlex.quote, fields))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "forest", str(p), "abab")
    assert code == 2
    assert "associativity fails" in err


def test_non_decimal_digit_in_a_structure_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.lstruct"
    p.write_text("listfn-structure 1\nuniverse 0\nrel t \u00b2\n",
                 encoding="utf-8")
    code, _, err = run(capsys, "decode", str(p), "{a}")
    assert code == 2
    assert "rel lines take name, arity" in err


DEEP = 1200


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
@pytest.mark.parametrize("argv", [
    ["typecheck", "reverse@" + "[" * DEEP + "{a}" + "]" * DEEP],
    ["eval", "reverse@{a}", "[" * DEEP + "a" + "]" * DEEP],
    ["typecheck", "reverse@{a}" + "^*" * DEEP],
    ["encode", "a", "+".join(["{a}"] * DEEP)],
    ["typecheck", "(map " * 1000 + "reverse@{a}" + ")" * 1000],
], ids=["typecheck", "eval", "typecheck-postfix", "encode-sum-chain", "typecheck-term"])
def test_over_deep_input_exits_3(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 3
    if fmt == "json-lines":
        (record,) = [json.loads(ln) for ln in out.splitlines()]
        assert record["status"] == "error"
    else:
        assert len(err.strip().splitlines()) == 1


def test_over_deep_formula_in_a_file_exits_3(capsys, tmp_path):
    p = tmp_path / "deep.lfot"
    p.write_text("listfn-fot 2\ncopies 1\ninput Q_a 1\noutput Q_a 1\n"
                 f"universe 1 {'!' * 150}true\n")
    code, _, err = run(capsys, "fot", str(p), "--word", "ab")
    assert (code, err.strip()) == (3, "formula nested too deeply")


@pytest.mark.parametrize("argv,code,status", [
    (["typecheck", "(compose reverse@{a,b}"], 2, "syntax-error"),
    (["run-pipeline", "missing.lpipe", "ab"], 2, "syntax-error"),
    (["typecheck", "reverse@" + "[" * DEEP + "{a}" + "]" * DEEP], 3, "error"),
    (["typecheck", "(compose reverse@{a,b} proj1@{a,b},{c,d})"], 3, "error"),
    (["eval", "reverse@{a,b}", "[c]"], 3, "error"),
    (["sst", "identity", "abc"], 3, "error"),
    (["fot", "ab_example", "--word", "abc"], 3, "error"),
    (["decode", "a.lstruct", "{b}^*"], 3, "error"),
], ids=["ParseError", "FileFormatError", "NestingError", "TermTypeError",
        "TypeMismatch", "UpdateError", "LogicError", "EncodingError"])
def test_each_library_error_maps_to_its_exit_code(capsys, monkeypatch, tmp_path,
                                                  argv, code, status):
    """A ParseError other than a NestingError exits 2; every other
    ListfnError exits 3, with one record naming the fault."""
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "encode", "[a]", "{a}^*", "-o", "a.lstruct")[0] == 0
    got, out, err = run(capsys, *argv, "--format", "json-lines")
    (record,) = [json.loads(ln) for ln in out.splitlines()]
    assert (got, record["status"], err) == (code, status, "")
    assert record["output"]


def test_a_recursion_limit_reached_exits_3_with_one_line(capsys, tmp_path):
    """The forest builder recurses once per level of the ideal chain, and on
    the chain x·y = max(x, y) a descending word takes every level: a flat
    monoid file, refused only for the stack it needs."""
    n = 120
    els = [f"e{i}" for i in range(n)]
    chain = FiniteMonoid(els, {(a, b): els[max(i, j)] for i, a in enumerate(els)
                               for j, b in enumerate(els)}, "e0")
    p = tmp_path / "chain.lmonoid"
    save_monoid(p, chain, {f"l{i}": e for i, e in enumerate(els)})
    word = ",".join(f"l{i}" for i in reversed(range(n)))
    assert run(capsys, "forest", str(p), word)[0] == 0
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n)
    try:
        got = run(capsys, "forest", str(p), word)
    finally:
        sys.setrecursionlimit(limit)
    assert got == (3, "", "input too large to process: recursion limit reached\n")


@pytest.mark.parametrize("line", ["input a a b", "output a a b"])
def test_a_rational_file_with_a_repeated_letter_exits_2_naming_it(capsys, tmp_path, line):
    p = tmp_path / "dup.lrat"
    save_rational(p, SAMPLE_RATIONALS["keep-a"])
    side = line.split()[0]
    text = p.read_text(encoding="utf-8")
    assert f"\n{side} a b\n" in text
    p.write_text(text.replace(f"\n{side} a b\n", f"\n{line}\n"), encoding="utf-8")
    code, out, err = run(capsys, "compile-rational", str(p), "-o", str(tmp_path / "x.lpipe"))
    assert (code, out) == (2, "")
    assert err == f"{p}: keep-a: {side} letters must be distinct\n"


def test_a_malformed_formula_in_a_transduction_file_exits_2_naming_it(capsys, tmp_path):
    p = tmp_path / "bad.lfot"
    save_fot(p, builtin_fot("reverse", FinSet(("a", "b"))))
    text = p.read_text(encoding="utf-8")
    assert "\ncase pare 1 1 'pare(x,y)'\n" in text
    p.write_text(text.replace("\ncase pare 1 1 'pare(x,y)'\n", "\ncase pare 1 1 'x &'\n"),
                 encoding="utf-8")
    code, out, err = run(capsys, "fot", str(p), "--word", "ab")
    assert (code, out) == (2, "")
    assert err.startswith(f"{p}: ")


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace("def root x '!E p. pare(p,x)'",  # root_child reads root
                               "def root x '!E p. pare(p,x) & !root_child(x)'"),
     "definition root reads root_child, not an earlier one"),
    (lambda text: text.replace("def root x", "def root x '!E p. pare(p,x)'\ndef root x", 1),
     "repeated def line for root"),
], ids=["reads-a-later-one", "repeated"])
def test_a_transduction_file_with_a_bad_definition_exits_2_naming_it(capsys, tmp_path,
                                                                     edit, message):
    p = tmp_path / "bad.lfot"
    save_fot(p, builtin_fot("reverse", FinSet(("a", "b"))))
    text = p.read_text(encoding="utf-8")
    p.write_text(edit(text), encoding="utf-8")
    assert p.read_text(encoding="utf-8") != text
    code, out, err = run(capsys, "fot", str(p), "--word", "ab")
    assert (code, out) == (2, "")
    assert err.startswith(f"{p}: ") and message in err


@pytest.mark.parametrize("old,new,atom,argv", [
    ("case pare 1 1 'pare(x,y)'", "case pare 1 1 'pare(x)'", "pare(x)", ["-o", "out.lstruct"]),
    ("def root_child x 'E p. pare(p,x) & root(p)'", "def root_child x 'E p. pare(p) & root(p)'",
     "pare(p)", []),
], ids=["case", "definition"])
def test_a_transduction_file_reading_a_relation_at_another_arity_exits_2_naming_it(
        capsys, tmp_path, monkeypatch, old, new, atom, argv):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "arity.lfot"
    save_fot(p, builtin_fot("reverse", FinSet(("a", "b"))))
    text = p.read_text(encoding="utf-8")
    assert f"\n{old}\n" in text
    p.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"), encoding="utf-8")
    code, out, err = run(capsys, "fot", str(p), "--word", "ab", *argv)
    assert (code, out, err) == (2, "", f"{p}: pare has arity 2, read as {atom}\n")
    assert not (tmp_path / "out.lstruct").exists()


def test_a_transduction_file_reading_an_unknown_relation_exits_2_naming_it(capsys, tmp_path):
    p = tmp_path / "unknown.lfot"
    save_fot(p, builtin_fot("reverse", FinSet(("a", "b"))))
    text = p.read_text(encoding="utf-8")
    old = "\ncase pare 1 1 'pare(x,y)'\n"
    assert old in text
    p.write_text(text.replace(old, "\ncase pare 1 1 'parent(x,y)'\n"), encoding="utf-8")
    code, out, err = run(capsys, "fot", str(p), "--word", "ab")
    assert (code, out, err) == (2, "", f"{p}: unknown relation parent: read as parent(x,y)\n")


@pytest.mark.parametrize("old,new,what", [
    ("input a b", "input a b a", "input letters"), ("states q", "states q q", "states"),
])
def test_an_sst_file_with_a_repeated_letter_or_state_exits_2_naming_it(capsys, tmp_path,
                                                                      old, new, what):
    p = tmp_path / "dup.lsst"
    save_sst(p, SAMPLE_SSTS["reverse"])
    text = p.read_text(encoding="utf-8")
    assert f"\n{old}\n" in text
    p.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"), encoding="utf-8")
    code, out, err = run(capsys, "sst", str(p), "ab")
    assert (code, out) == (2, "")
    assert err == f"{p}: reverse: {what} must be distinct\n"


@pytest.mark.parametrize("suffix", ["lrat", "lpipe"])
def test_a_file_with_an_image_for_a_letter_outside_the_input_exits_2(capsys, tmp_path,
                                                                      suffix):
    p = tmp_path / f"extra.{suffix}"
    if suffix == "lrat":
        save_rational(p, SAMPLE_RATIONALS["keep-a"])
        argv = ["compile-rational", str(p), "-o", str(tmp_path / "x.lpipe")]
    else:
        run(capsys, "compile-rational", "keep-a", "-o", str(p))
        argv = ["run-pipeline", str(p), "ab"]
    with p.open("a", encoding="utf-8") as f:
        f.write("h c 0\n")
    assert run(capsys, *argv) == (2, "", f"{p}: keep-a: image for letter c, not in the input\n")


def test_run_pipeline_on_a_letter_outside_the_input_exits_3(capsys, tmp_path):
    pipe = tmp_path / "keepa.lpipe"
    run(capsys, "compile-rational", "keep-a", "-o", str(pipe))
    assert run(capsys, "run-pipeline", str(pipe), "abc") == (3, "", "letter 'c' has no image\n")


def test_forest_on_a_monoid_file_with_a_row_for_a_non_element_exits_2(capsys, tmp_path):
    p = tmp_path / "u1.lmonoid"
    hom = hom_u1_keep_a()
    save_monoid(p, hom.target, hom.letter_map)
    with p.open("a", encoding="utf-8") as f:
        f.write("row zz 1 0\n")
    code, out, err = run(capsys, "forest", str(p), "ab")
    assert (code, out) == (2, "")
    assert err == f"{p}: product zz·1 of a non-element in the table\n"


def test_forest_refuses_a_letter_given_twice_in_hom(capsys):
    assert run(capsys, "forest", "u1", "a", "--hom", "a=1,a=0") == (
        2, "", "--hom gives letter 'a' twice\n")


@pytest.mark.parametrize("env,argv,message", [
    ({}, ["forest", "u1", "ab", "--hom", "a"], "--hom expects letter=element pairs, got 'a'"),
    ({"LISTFN_SEED": "x"}, ["check", "all", "--count", "1"],
     "LISTFN_SEED must be an integer, got 'x'"),
    ({}, ["forest", "bare.lmonoid", "ab"], "no letter images: pass --hom"),
    ({}, ["fot", "reverse@{a,b}"], "fot needs a structure file or --word"),
], ids=["hom-without-image", "seed-not-a-number", "monoid-without-letters",
        "fot-without-input"])
def test_usage_faults_exit_2_naming_them(capsys, tmp_path, monkeypatch, env, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    save_monoid("bare.lmonoid", hom_u1_keep_a().target, None)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message)


def test_forest_takes_letter_images_from_hom(capsys):
    code, out, err = run(capsys, "forest", "u1", "abba", "--hom", "a=1,b=0")
    assert (code, err) == (0, "")
    assert out.startswith("value: 0\ndepth: 4\nbound: 6\nvalid: yes\nyield: preserved\ntree:\n")


def test_forest_walks_take_no_frame_per_level():
    """A valid left-deep tree, thousands of levels deep, is validated, printed,
    measured and read back at the default recursion limit."""
    h = hom_u1_keep_a()
    word = "ab" * 2500 + "a"

    def leaf_parent(c):
        return Node(h(c), (Leaf(c),))

    tree = leaf_parent(word[0])
    for c in word[1:]:
        tree = Node(h.target.product([tree.label, h(c)]), (tree, leaf_parent(c)))
    assert tree_depth(tree) == len(word) > sys.getrecursionlimit()
    assert validate_factorisation(h, tree)
    lines = _render_tree(tree)
    assert len(lines) == 3 * len(word) - 1
    assert lines[:3] == ["node 0", "  node 0", "    node 0"] and lines[-1] == "    leaf a"
    assert "".join(tree_yield(tree)) == word


def test_fot_file_with_a_3000_wide_connective_runs(capsys, tmp_path):
    """A universe formula holding a 3000-part conjunction under a negation
    is solved without a recursion limit reached."""
    names = ["t"] + [f"t_{i}" for i in range(3000)]
    rel = {name: frozenset({(0,), (1,)}) for name in names}
    rel["t"] = frozenset({(0,), (1,), (2,)})
    save_structure(tmp_path / "in.lstruct",
                   Structure((0, 1, 2), dict.fromkeys(names, 1), rel))
    phi = parse_formula("t(x) & !(%s)" % " & ".join(f"t_{i}(x)" for i in range(3000)))
    save_fot(tmp_path / "wide.lfot", FOTransduction(1, dict.fromkeys(names, 1), {}, {1: phi}, {}))
    code, out, err = run(capsys, "fot", str(tmp_path / "wide.lfot"), str(tmp_path / "in.lstruct"))
    assert (code, out, err) == (0, "listfn-structure 1\nuniverse 2\n", "")


# Fragments by the positional they fit; argv mixes fitting and unfitting ones.
_POOLS = {
    "term": ["reverse@{a,b}", "(compose reverse@{a,b} reverse@{a,b})", "(gprefix z3)",
             "std:len_upto@2,{a}", "std:windows@2,{a}", "(map reverse@{a})",
             "proj1@{a},{b}", "(pair", "std:nothing@1", "out.lstruct"],
    "value": ["[a,b]", "[[a,b],[b]]", "a", "inl a", "(a,[a])", "[]", "[a", "bot"],
    "type": ["{a,b}", "{a}^*", "({a,b}^*)^*", "{a,b}^*", "{a}+{b}", "{a}*{b}", "bot", "{a"],
    "word": ["abab", "ab", "", "c", "1", "ababa"],
    "monoid": ["u1", "contains-ab", "z3", "out.lpipe"],
    "rational": ["keep-a", "mark-after-ab", "double-last-b", "u1"],
    "sst": ["identity", "reverse", "drop-last", "keep-a"],
    "check": ["all", "rational", "registers-fold", "fot-commute", "sst", "forest", "stdlib"],
    "builtin": ["reverse", "append", "coappend", "flat", "block", "ab_example",
                "flat@{a,b}", "block@{a},{b}", "ab_example@{a}", "nothing"],
    "file": ["out.lstruct", "out.lpipe", "keep-a.lpipe", "missing.lterm"],
}
_SHAPES = {  # positionals, then the options the subcommand takes
    "typecheck": (["term"], []), "eval": (["term", "value"], []),
    "forest": (["monoid", "word"], ["--hom"]),
    "compile-rational": (["rational"], ["-o"]), "run-pipeline": (["file", "word"], []),
    "check": (["check", "builtin"], ["--type"]), "sst": (["sst", "word"], []),
    "encode": (["value", "type"], ["-o"]), "decode": (["file", "type"], []),
    "fot": (["builtin", "file"], ["--type", "--word", "--decode", "-o"]),
}
_OPTIONS = [
    ("--format", "json-lines"), ("--seed", "7"), ("--type", "{a,b}"), ("--type", "{a}^*"),
    ("--word", "abab"), ("--word", "abc"), ("--decode", "{a,b}^*"), ("--decode", "{a}"),
    ("--hom", "a=1,b=0"), ("--hom", "a=9"),
    ("-o", "out.lstruct"), ("-o", "out.lpipe"), ("-o", "missing/out.lstruct"),
    ("--help",), ("--type",),
]
_ANY = sorted({w for pool in _POOLS.values() for w in pool})


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SHAPES)))
    kinds, flags = _SHAPES[command]
    words = [draw(st.sampled_from(_POOLS[kind]) | st.sampled_from(_ANY)) for kind in kinds]
    fitting = [o for o in _OPTIONS if o[0] in flags + ["--format", "--seed"]]
    options = draw(st.lists(st.sampled_from(fitting) | st.sampled_from(_OPTIONS), max_size=3))
    count = ["--count", str(draw(st.integers(1, 3)))] if command == "check" else []
    return [command, *words, *sum(options, ()), *count]


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_argv_ends_in_a_documented_exit_code(argv, monkeypatch, tmp_path, capsys):
    """0, 2, 3 or 4 from main, or argparse's exit 2 (0 for --help); no traceback."""
    monkeypatch.chdir(tmp_path)  # files written by -o stay here for later examples
    with time_limit(20):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2 or (e.code == 0 and "--help" in argv), argv
            return
        finally:
            capsys.readouterr()
    assert code in (0, 2, 3, 4), argv


README = Path(__file__).resolve().parent.parent / "README.md"
# Takes about 8 s. CI runs `check all`, and test_golden hashes its seeded
# output at --count 20.
_README_SKIPPED = {"listfn check all --count 200"}


def _readme_examples():
    """(command, expected output lines, whether the output goes on past them)
    for each `$ listfn` line of README's sh blocks, in order."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            if "..." in shown:
                yield command, shown[:shown.index("...")], True
                break  # a `...` line ends the comparison for its block
            yield command, shown, False


def test_readme_examples_print_what_the_readme_shows(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    ran = 0
    for command, shown, more in _readme_examples():
        argv = shlex.split(command, comments=True)
        if " ".join(argv) in _README_SKIPPED:
            continue
        assert argv[0] == "listfn", command
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), command
        lines = out.splitlines()
        assert (lines[:len(shown)] if more else lines) == shown, command
        ran += 1
    assert ran == 11


def _listfn_env():
    """The environment for a `python -m listfn` child: this checkout's
    library on the path, stdout block-buffered as in a user's shell."""
    src = str(Path(listfn.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONUNBUFFERED="", PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def test_a_closed_stdout_ends_quietly():
    """A reader that stops after one line of a 117 KB output, as `| head -1`
    does, sees exit 141 and no traceback."""
    with subprocess.Popen(
            [sys.executable, "-m", "listfn", "forest", "contains-ab", "ab" * 1500],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_listfn_env()) as proc:
        assert proc.stdout.readline() == b"value: ab\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert b"Traceback" not in err, err
    assert code == 141


@pytest.mark.parametrize("argv", [["typecheck", "reverse@{a,b}"], ["--help"]],
                         ids=["typecheck", "help"])
def test_a_short_output_to_a_closed_pipe_ends_quietly(argv):
    """Output still buffered when the command ends meets the closed pipe at
    the last flush, which is reported the same way."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "listfn", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_listfn_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")
