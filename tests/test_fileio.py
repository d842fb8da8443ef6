"""On-disk formats: round trips and tamper detection."""
import re
import shlex

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import AB, FOT_CASES, sym_list, time_limit
from listfn.fileio import (
    FileFormatError,
    _bulk_structure,
    _fields,
    _read_body,
    _structure_lines,
    format_structure,
    load_monoid,
    load_pipeline,
    load_rational,
    load_sst,
    load_structure,
    load_term,
    save_fot,
    save_monoid,
    save_pipeline,
    save_rational,
    save_sst,
    save_structure,
    save_term,
    load_fot,
)
from listfn.logic import (
    Structure,
    apply_transduction,
    builtin_fot,
    builtin_term,
    encode_value,
)
from listfn.rational import compile_rational, eval_pipeline, eval_rational_direct
from listfn.samples import (
    CONTAINS_AB,
    SAMPLE_RATIONALS,
    SAMPLE_SSTS,
)
from listfn.stdlib import comma, list_to_pair
from listfn.terms import TermTypeError, eval_term, infer_type
from listfn.types import (
    FinSet,
    List,
    ParseError,
    Sym,
    TypeMismatch,
    enumerate_values,
    parse_type,
)


def test_term_file_round_trip(tmp_path):
    term = comma(AB, FinSet(("#",)))
    p = tmp_path / "comma.lterm"
    save_term(p, term)
    back = load_term(p)
    assert back == term
    dom, _ = infer_type(term)
    for v in enumerate_values(dom, 5):
        assert eval_term(back, v) == eval_term(term, v)


def test_monoid_file_round_trip(tmp_path):
    p = tmp_path / "cab.lmon"
    save_monoid(p, CONTAINS_AB, letters=None)
    back, letters = load_monoid(p)
    assert letters is None
    assert set(back.elements) == set(CONTAINS_AB.elements)
    assert back.identity == CONTAINS_AB.identity
    for x in back.elements:
        for y in back.elements:
            assert back.mult(x, y) == CONTAINS_AB.mult(x, y)


def test_rational_file_round_trip(tmp_path):
    r = SAMPLE_RATIONALS["mark-after-ab"]
    p = tmp_path / "mark.lrat"
    save_rational(p, r)
    back = load_rational(p)
    for w in ["", "a", "ab", "abab", "bbaab"]:
        assert eval_rational_direct(back, w) == eval_rational_direct(r, w)


def test_pipeline_file_round_trip(tmp_path):
    r = SAMPLE_RATIONALS["keep-a"]
    p = tmp_path / "keepa.lpipe"
    save_pipeline(p, compile_rational(r))
    pipe = load_pipeline(p)
    for w in ["", "a", "abab", "babba"]:
        assert eval_pipeline(pipe, w) == eval_rational_direct(r, w)


def test_pipeline_tamper_changes_the_compiled_function(tmp_path):
    r = SAMPLE_RATIONALS["keep-a"]
    p = tmp_path / "keepa.lpipe"
    save_pipeline(p, compile_rational(r))
    lines = p.read_text().splitlines()
    patched = ["table 1.a.0 b" if ln.startswith("table 1.a.0") else ln
               for ln in lines]
    assert patched != lines
    p.write_text("\n".join(patched) + "\n")
    pipe = load_pipeline(p)
    assert eval_pipeline(pipe, "abab") != eval_rational_direct(r, "abab")


def test_pipeline_missing_table_row_is_rejected(tmp_path):
    r = SAMPLE_RATIONALS["keep-a"]
    p = tmp_path / "keepa.lpipe"
    save_pipeline(p, compile_rational(r))
    lines = [ln for ln in p.read_text().splitlines()
             if not ln.startswith("table 1.a.0")]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError):
        load_pipeline(p)


def test_pipeline_bound_must_match_the_recomputed_bound(tmp_path):
    p = tmp_path / "keepa.lpipe"
    save_pipeline(p, compile_rational(SAMPLE_RATIONALS["keep-a"]))
    text = p.read_text()
    assert "\nbound 6\n" in text
    p.write_text(text.replace("\nbound 6\n", "\nbound 1\n"))
    with pytest.raises(FileFormatError,
                       match="bound 1 differs from the recomputed bound 6"):
        load_pipeline(p)


def test_sst_file_round_trip(tmp_path):
    sst = SAMPLE_SSTS["reverse"]
    p = tmp_path / "rev.lsst"
    save_sst(p, sst)
    assert load_sst(p) == sst


def test_structure_file_round_trip(tmp_path):
    t = List(AB)
    s = encode_value(sym_list("abba"), t)
    p = tmp_path / "w.lstruct"
    save_structure(p, s)
    assert load_structure(p) == s
    # format_structure is the same text that save writes
    assert format_structure(s) in p.read_text()


def test_structure_files_skip_blank_and_comment_lines(tmp_path):
    p = tmp_path / "s.lstruct"
    p.write_text("listfn-structure 1\n\n  # a comment\nuniverse 0 1\n \t\n"
                 "#rel q 1\nrel q 1\n\ttuple 1\n\u3000\n", encoding="utf-8")
    assert load_structure(p) == Structure((0, 1), {"q": 1}, {"q": frozenset({(1,)})})


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x1e", "\x85", "\u2028"])
def test_the_header_line_ends_where_splitlines_ends_it(tmp_path, end):
    p = tmp_path / "s.lstruct"
    p.write_text(f"listfn-structure 1{end}universe 0 1\nrel q 1\ntuple 1\n",
                 encoding="utf-8", newline="")
    assert load_structure(p) == Structure((0, 1), {"q": 1}, {"q": frozenset({(1,)})})


_MALFORMED_STRUCTURES = [
    ("universe 0 1\ntuple 0\nrel q 1", "tuple before any rel line"),
    ("universe 0 1\nrel q 2\ntuple 0", "tuple arity mismatch under q"),
    ("universe 0 1\nrel q 1\ntuple x", "elements must be integers"),
    ("universe 0 1.5\nrel q 1", "elements must be integers"),
    ("universe 0 1\nrel q 2\ntuple 0 \u00b2", "elements must be integers"),
    ("universe 0\nuniverse 0", "repeated universe line"),
    ("universe 0\nrel q 1\ntuple 0\nrel q 1", "repeated relation q"),
    ("rel q 1\ntuple 0", "missing universe line"),
    ("universe 0 1\nrel q 1\ntuple 5", "bad tuple (5,) in relation q"),
]


@pytest.mark.parametrize("body,message", _MALFORMED_STRUCTURES,
                         ids=["tuple-before-rel", "arity", "letter", "decimal-point", "superscript",
                              "repeated-universe", "repeated-rel", "no-universe", "outside"])
def test_malformed_structure_files_name_their_fault(tmp_path, body, message):
    p = tmp_path / "s.lstruct"
    p.write_text(f"listfn-structure 1\n{body}\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as caught:
        load_structure(p)
    assert str(caught.value) == f"{p}: {message}"


def test_fot_file_round_trip(tmp_path):
    for name, types in FOT_CASES:
        t = builtin_fot(name, *types)
        p = tmp_path / f"{name}.lfot"
        save_fot(p, t)
        back = load_fot(p)
        assert back == t, name
        dom = infer_type(builtin_term(name, *types))[0]
        for s in [encode_value(v, dom) for v in enumerate_values(dom, 3)]:
            assert apply_transduction(back, s) == apply_transduction(t, s), name


def test_fot_file_in_the_version_1_format_is_rejected(tmp_path):
    p = tmp_path / "old.lfot"
    p.write_text(
        "listfn-fot 1\ncopies 1\ninput Q_a 1\noutput Q_a 1\n"
        "universe x true\nrel Q_a x Q_a(x)\n")
    with pytest.raises(FileFormatError, match="version"):
        load_fot(p)
    # the same lines under the current header do not parse either
    p.write_text(p.read_text().replace("listfn-fot 1", "listfn-fot 2"))
    with pytest.raises(FileFormatError):
        load_fot(p)


@pytest.mark.parametrize("line", [
    "universe 1 true\nuniverse 1 true",
    "universe x true",
    "case Q_a 1 true\ncase Q_a 1 true",
    "case Q_a x true",
    "case Q_b 1 true",
    "case Q_a 2 true",
    "case Q_a 1 1 true",
    "rel Q_a x",
], ids=["repeated-universe", "universe-var", "repeated-case", "case-copy-name",
        "case-undeclared", "case-copy-range", "case-arity", "repeated-rel"])
def test_malformed_fot_files_are_rejected(tmp_path, line):
    p = tmp_path / "bad.lfot"
    p.write_text("listfn-fot 2\ncopies 1\ninput Q_a 1\noutput Q_a 1\n"
                 f"rel Q_a x\n{line}\n")
    with pytest.raises(FileFormatError):
        load_fot(p)


@pytest.mark.parametrize("line,message", [
    ("def q", "unexpected end of formula"),
    ("def q x", "lone identifier 'x'"),
    ("def q x 'Q_a(y)'", "definition q needs distinct variables"),
    ("def Q_a x 'Q_a(x)'", "definition Q_a repeats an input relation"),
    ("def q x 'r(x)'\ndef r x 'Q_a(x)'", "definition q reads r, not an earlier one"),
    ("def q x 'Q_a(x)'\ndef q y 'Q_a(y)'", "repeated def line for q"),
], ids=["no-formula", "no-variable", "undeclared-var", "input-name", "reads-later",
        "repeated"])
def test_malformed_def_lines_name_their_file(tmp_path, line, message):
    p = tmp_path / "bad.lfot"
    p.write_text("listfn-fot 2\ncopies 1\ninput Q_a 1\noutput Q_a 1\n"
                 f"{line}\nrel Q_a x\ncase Q_a 1 'q(x)'\n")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(p))}: .*{message}"):
        load_fot(p)


def test_def_lines_load_in_file_order(tmp_path):
    p = tmp_path / "defs.lfot"
    p.write_text("listfn-fot 2\ncopies 1\ninput Q_a 1\noutput Q_a 1\n"
                 "universe 1 true\nrel Q_a x\ncase Q_a 1 'q(x)'\n"
                 "def r x 'Q_a(x)'\ndef q x 'r(x) & !Q_a(x)'\n")
    t = load_fot(p)
    assert [(name, args) for name, args, _ in t.definitions] == [("r", ("x",)), ("q", ("x",))]
    save_fot(p, t)
    assert load_fot(p) == t


# per keyed line: how to save a file holding it, its loader, its key's width
_KEYED_LINES = {
    "row": (lambda p: save_monoid(p, CONTAINS_AB, {"a": "a", "b": "b"}), load_monoid, 1),
    "letter": (lambda p: save_monoid(p, CONTAINS_AB, {"a": "a", "b": "b"}), load_monoid, 1),
    "h": (lambda p: save_rational(p, SAMPLE_RATIONALS["keep-a"]), load_rational, 1),
    "out": (lambda p: save_rational(p, SAMPLE_RATIONALS["keep-a"]), load_rational, 3),
    "table": (lambda p: save_pipeline(p, compile_rational(SAMPLE_RATIONALS["keep-a"])),
              load_pipeline, 1),
    "trans": (lambda p: save_sst(p, SAMPLE_SSTS["reverse"]), load_sst, 2),
    "input": (lambda p: save_fot(p, builtin_fot("reverse", AB)), load_fot, 1),
    "output": (lambda p: save_fot(p, builtin_fot("reverse", AB)), load_fot, 1),
    "rel": (lambda p: save_fot(p, builtin_fot("reverse", AB)), load_fot, 1),
}


@pytest.mark.parametrize("keyword", list(_KEYED_LINES))
def test_a_repeated_key_is_refused_naming_it(tmp_path, keyword):
    """A second line with the same key would override the first; it is
    refused instead."""
    save, load, width = _KEYED_LINES[keyword]
    p = tmp_path / "artifact"
    save(p)
    lines = p.read_text(encoding="utf-8").splitlines()
    line = next(ln for ln in lines if ln.split()[0] == keyword)
    p.write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
    key = " ".join(shlex.split(line)[1:1 + width])
    _raises_naming(p, load, f"repeated {keyword} line for {key}")


@pytest.mark.parametrize("keyword,keep,message", [
    ("row", 5, "row lines take 6 field(s)"),
    ("letter", 1, "letter lines take 2 field(s)"),
    ("h", 1, "h lines take 2 field(s)"),
    ("out", 2, "out lines take at least 3 field(s)"),
    ("table", 0, "table lines take at least 1 field(s)"),
    ("trans", 3, "trans lines take 4 field(s)"),
    ("input", 1, "input lines take 2 field(s)"),
    ("rel", 0, "rel lines take at least 1 field(s)"),
])
def test_a_keyed_line_with_too_few_fields_is_refused(tmp_path, keyword, keep, message):
    """The line cut to its keyword and first ``keep`` fields."""
    save, load, _ = _KEYED_LINES[keyword]
    p = tmp_path / "artifact"
    save(p)
    lines = p.read_text(encoding="utf-8").splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.split()[0] == keyword)
    lines[i] = " ".join(shlex.quote(f) for f in shlex.split(lines[i])[:1 + keep])
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _raises_naming(p, load, message)


def _save_drop_last(p):
    save_sst(p, SAMPLE_SSTS["drop-last"])


# "\u00b2" is "²": str.isdigit() accepts it but int() rejects it
@pytest.mark.parametrize("keyword,save,load", [
    ("rel", lambda p: save_structure(p, encode_value(sym_list("ab"), List(AB))),
     load_structure),
    ("bound", lambda p: save_pipeline(
        p, compile_rational(SAMPLE_RATIONALS["keep-a"])), load_pipeline),
    ("registers", _save_drop_last, load_sst),
    ("output-register", _save_drop_last, load_sst),
], ids=["structure-rel", "pipeline-bound", "sst-registers",
        "sst-output-register"])
def test_non_decimal_digits_in_numeric_fields_are_rejected(tmp_path, keyword,
                                                           save, load):
    p = tmp_path / "artifact"
    save(p)
    lines = p.read_text(encoding="utf-8").splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.split()[0] == keyword)
    lines[i] = " ".join([*lines[i].split()[:-1], "\u00b2"])
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load(p)


_LONG = "1" * 5000  # int() reads at most 4,300 digits unless told otherwise


def _with_long_number(p, old, new):
    """Rewrite file ``p`` with its first ``old`` made ``new``, _LONG in it."""
    text = p.read_text(encoding="utf-8")
    assert old in text
    p.write_text(text.replace(old, new.replace("N", _LONG), 1), encoding="utf-8")


def _raises_naming(p, load, message=None):
    with pytest.raises(FileFormatError) as caught:
        load(p)
    assert str(caught.value).startswith(f"{p}: ")
    if message is not None:
        assert str(caught.value) == f"{p}: {message}"


@pytest.mark.parametrize("old,new,message", [
    ("rel sib 2", "rel sib N", "rel lines take name, arity"),
    ("universe 0 1 2", "universe 0 1 2 N", "elements must be integers"),
    ("tuple 1 2", "tuple 1 N", "elements must be integers"),
], ids=["arity", "universe", "tuple"])
def test_structure_file_with_a_5000_digit_number_is_a_format_error(tmp_path, old, new,
                                                                    message):
    p = tmp_path / "big.lstruct"
    save_structure(p, encode_value(sym_list("ab"), List(AB)))
    _with_long_number(p, old, new)
    _raises_naming(p, load_structure, message)


@pytest.mark.parametrize("old,new,message", [
    ("copies 1", "copies N", "copies must be a positive number"),
    ("input sib 2", "input sib N", "input lines take name, arity"),
    ("output sib 2", "output sib N", "output lines take name, arity"),
    ("universe 1 true", "universe N true", "universe lines take a new copy number, formula"),
    ("case t 1 ", "case t N ", "case lines take a rel name, new copy numbers, formula"),
], ids=["copies", "input", "output", "universe", "case"])
def test_fot_file_with_a_5000_digit_number_is_a_format_error(tmp_path, old, new, message):
    p = tmp_path / "big.lfot"
    save_fot(p, builtin_fot("reverse", AB))
    _with_long_number(p, old, new)
    _raises_naming(p, load_fot, message)


@pytest.mark.parametrize("old,new", [
    ("registers 2", "registers N"),
    ("output-register 1", "output-register N"),
    ("[$1, $2]", "[$1, $N]"),
    ("2 := [", "N := ["),
], ids=["registers", "output-register", "register-item", "component"])
def test_sst_file_with_a_5000_digit_number_is_a_format_error(tmp_path, old, new):
    p = tmp_path / "big.lsst"
    save_sst(p, SAMPLE_SSTS["drop-last"])
    _with_long_number(p, old, new)
    _raises_naming(p, load_sst)


def test_header_and_kind_mismatch_are_rejected(tmp_path):
    p = tmp_path / "x.lterm"
    p.write_text("listfn-term 99\nreverse@{a}\n")
    with pytest.raises(FileFormatError):
        load_term(p)
    q = tmp_path / "y.lmonoid"
    save_monoid(q, CONTAINS_AB)
    with pytest.raises(FileFormatError):
        load_term(q)
    with pytest.raises(FileFormatError):
        load_monoid(tmp_path / "missing.lmonoid")


def test_field_splitting_matches_shlex():
    corpus = [
        "", "   ", "a b c", "\ta\t b \t", "a\rb\nc", "12 7 3", "x\xa0y z",
        "a\x0bb\x0cc d", "a#b # c", "# a comment", "\u00e9 \u00fc\u2003v \u3000w",
        "'a b' c", '"a b" c', "a\\ b", "it\\'s", "p 'q\tq' \"r\\\"s\"", "''", '"" x',
    ]
    for line in corpus:
        assert _fields(line, "corpus") == shlex.split(line, comments=False), line


# A valid file for each loader, and the loader.
_FILES = {
    "term": (lambda p: save_term(p, list_to_pair(AB, Sym("a"))), load_term),
    "monoid": (lambda p: save_monoid(p, CONTAINS_AB, letters={"a": "a", "b": "b"}),
               load_monoid),
    "rational": (lambda p: save_rational(p, SAMPLE_RATIONALS["mark-after-ab"]),
                 load_rational),
    "pipeline": (lambda p: save_pipeline(p, compile_rational(SAMPLE_RATIONALS["keep-a"])),
                 load_pipeline),
    "sst": (lambda p: save_sst(p, SAMPLE_SSTS["drop-last"]), load_sst),
    "structure": (lambda p: save_structure(p, encode_value(sym_list("ab"), List(AB))),
                  load_structure),
    "fot": (lambda p: save_fot(p, builtin_fot("reverse", AB)), load_fot),
}
_PIECES = [s.encode() for s in [
    "", " ", "\n", "\t", "#", "0", "1", "9", "-1", "\u00b2", "'", '"', "\\", "(",
    ")", "[", "]", "{", "}", ",", "^*", "\u00d7", "@", "true", "!", "E x. ", "<->",
    "listfn-", "row", "letter", "rel", "universe", "case", "copies", "table"]]
# (position, bytes replaced, bytes put there); binary pieces may break UTF-8
_EDITS = st.tuples(st.integers(0, 4095), st.integers(0, 8),
                   st.one_of(st.sampled_from(_PIECES), st.binary(max_size=3)))


# tmp_path is shared by a test's examples: each one rewrites the mutated file
@pytest.mark.parametrize("kind", sorted(_FILES))
@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(_EDITS, min_size=1, max_size=4))
def test_mutated_files_raise_only_parse_errors(tmp_path, kind, edits):
    """A mutated file loads, or raises a ParseError such as FileFormatError;
    a term file may also hold a term whose parts do not fit together."""
    save, load = _FILES[kind]
    valid = tmp_path / "valid"
    if not valid.exists():
        save(valid)
    data = valid.read_bytes()
    for pos, span, piece in edits:
        i = pos % (len(data) + 1)
        data = data[:i] + piece + data[i + span:]
    mutated = tmp_path / "mutated"
    mutated.write_bytes(data)
    allowed = (ParseError, TermTypeError, TypeMismatch) if kind == "term" else ParseError
    with time_limit(2):
        try:
            load(mutated)
        except allowed:
            pass


# ------------------------------------- the bulk structure reader against the line reader

def _outcome(read, p):
    """The structure ``read`` gives for ``p``, or its FileFormatError's text."""
    try:
        return read(p)
    except FileFormatError as e:
        return f"FileFormatError: {e}"


def _line_reader(p):
    return _structure_lines(_read_body(p, "structure"), str(p))


def _same_as_the_line_reader(p):
    """load_structure (bulk where it applies) and the line reader agree on ``p``."""
    assert _outcome(load_structure, p) == _outcome(_line_reader, p), p.read_bytes()


# the nested element types that CI's fot-commute smoke runs the built-ins on
_CI_NESTED = [("coappend", ["{a}^*"]), ("flat", ["{a}*{b}"]), ("block", ["{a}^*", "{b}"]),
              ("reverse", ["({a}+{b})^*"]), ("append", ["{a}^*"])]


@pytest.mark.parametrize("name,types", _CI_NESTED, ids=[c[0] for c in _CI_NESTED])
def test_saved_encodings_are_read_in_bulk_as_the_line_reader_reads_them(tmp_path, name, types):
    dom = infer_type(builtin_term(name, *map(parse_type, types)))[0]
    p = tmp_path / "s.lstruct"
    for v in enumerate_values(dom, 4):
        s = encode_value(v, dom)
        save_structure(p, s)
        assert _bulk_structure(_read_body(p, "structure")) == s  # the bulk path is taken
        assert load_structure(p) == _line_reader(p) == s


_PLAIN = "universe 0 1 7\nrel p 1\ntuple 7\nrel q 2\ntuple 0 1\ntuple 1 7\n"


# (body, whether the bulk reader takes it); every other body falls back
_HAND_MADE = [
    (_PLAIN, True),
    (_PLAIN.replace("rel q 2", "# a comment\n\n  # another\nrel q 2\n \t"), False),
    (_PLAIN + "rel r 1\n", True),  # an empty relation, last
    (_PLAIN.replace("rel p 1\ntuple 7\n", "rel p 1\n"), True),  # and first
    (_PLAIN + "rel t 3\ntuple 0 1 7\ntuple 7 7 7\n", True),
    (_PLAIN.replace("universe 0 1 7", "universe -1 0 1 7"), True),
    (_PLAIN + "rel t 99999999999999\n", True),
    ("universe\n", True),
    ("universe\nrel q 1\n", True),
    (_PLAIN.replace("tuple 0 1", "tuple\t0\t1"), False),
    (_PLAIN.replace("\n", "\r\n"), True),  # splitlines takes \r\n off
    (_PLAIN.replace("\n", "\r"), True),  # and read_text makes \r a newline
    (_PLAIN.replace(" 7", " 17")[:-1], False),  # no last newline after "tuple 1 17"
    (_PLAIN + "\n", False),  # a blank line: at the end,
    (_PLAIN.replace("rel q 2", "rel r 1\n\nrel q 2"), False),  # after an empty relation,
    (_PLAIN.replace("rel q 2", "\nrel q 2"), False),  # between blocks
    ("\n" + _PLAIN, False),  # and first
    (_PLAIN.replace("rel q 2", "# a comment\nrel q 2"), False),
    (_PLAIN.replace("rel q 2", "rel q\x85 2"), False),  # splitlines breaks the name's line
    (_PLAIN.replace("rel q 2", "rel q\u2028 2"), False),
    (_PLAIN.replace("rel q 2", "rel q\x1f 2"), True),  # but not here
    (_PLAIN.replace("tuple 7", "tuple 7 "), False),
    (_PLAIN.replace("universe 0 1 7", "universe 0 1 7 "), False),
    (_PLAIN.replace("rel q 2", "rel q 2 "), False),
    (_PLAIN.replace("rel q 2", "rel  q 2"), False),
    (_PLAIN.replace("tuple 0 1", "tuple 0  1"), False),
    (_PLAIN.replace("tuple 0 1", "tuple 0\xa01"), False),
    (_PLAIN.replace("tuple 0 1", "tuple 0\xa0 1"), False),
    (_PLAIN.replace("tuple 0 1", "tuple 0 1\u3000"), False),
    (_PLAIN.replace("tuple 0 1", "tuple 0\x0b1"), False),  # splitlines splits at \x0b
    (_PLAIN.replace("tuple 1 7", "tuple 1 07"), False),
    (_PLAIN.replace("universe 0 1 7", "universe 0 1 07"), False),
    (_PLAIN.replace("tuple 1 7", "tuple 1 +7"), False),
    (_PLAIN.replace("universe 0 1 7", "universe 0 1 10").replace("7", "1_0"), False),
    (_PLAIN.replace("tuple 1 7", "tuple 1 \u00b2"), False),
    (_PLAIN.replace("rel q 2", "rel q \u00b2"), False),
    (_PLAIN + "rel t 3\ntuple 0 1 7\ntuple 7 7\n", False),
    (_PLAIN + "rel t 3\ntuple 0 1 7 7\ntuple 7 7\n", False),
    (_PLAIN + "rel t 2\ntuple 0\n7\n", False),
    (_PLAIN + "rel t 1\ntuple 0 tuple\n1\n", False),  # the right count of tokens
    (_PLAIN + "rel t 1\ntuple 0 tuple\n0 tuple\n1\n", False),
    (_PLAIN + "rel t 0\ntuple\n", False),
    (_PLAIN + "rel t 1\ntuple 7\ntuple\n", False),
    (_PLAIN + "rel t 1\ntuple 7\nrel\n", False),
    (_PLAIN + "rel p 1\n", False),
    (_PLAIN + "rel  1\n", False),
    (_PLAIN.replace("universe 0 1 7", "universe 0 1 7 1"), False),
    (_PLAIN.replace("universe 0 1 7", "universe -0 1 7"), False),
    (_PLAIN.replace("universe 0 1 7\n", "") + "universe 0 1 7\n", False),
    (_PLAIN.replace("tuple 0 1", "tuple 0 '1'"), False),
    (_PLAIN.replace("rel q 2", "rel 'q' 2"), False),
    ("", False),
    *((body + "\n", False) for body, _ in _MALFORMED_STRUCTURES),
]


@pytest.mark.parametrize("body,bulk", _HAND_MADE)
def test_bulk_reader_agrees_with_the_line_reader_on_hand_made_files(tmp_path, body, bulk):
    p = tmp_path / "s.lstruct"
    p.write_text("listfn-structure 1\n" + body, encoding="utf-8", newline="")
    assert (_bulk_structure(_read_body(p, "structure")) is not None) == bulk
    _same_as_the_line_reader(p)


# tmp_path is shared by a test's examples: each one rewrites the mutated file
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(_EDITS, min_size=1, max_size=4))
def test_bulk_reader_agrees_with_the_line_reader_on_mutated_files(tmp_path, edits):
    valid = tmp_path / "valid"
    if not valid.exists():
        _FILES["structure"][0](valid)
    data = valid.read_bytes()
    for pos, span, piece in edits:
        i = pos % (len(data) + 1)
        data = data[:i] + piece + data[i + span:]
    mutated = tmp_path / "mutated"
    mutated.write_bytes(data)
    with time_limit(2):
        _same_as_the_line_reader(mutated)
