"""Line-oriented files for persisting and exchanging artifacts.

Every file opens with a one-line header naming its format and version, for
example ``listfn-rational 1``.  Later lines hold whitespace-separated fields;
a field containing spaces is shell-quoted, and ``#`` starts a comment line.
A keyed line, such as a monoid ``row`` or an SST ``trans``, names its key
once; a repeat is a ``FileFormatError``.
Term files are the exception: after the header the rest of the file is raw
term text, since terms carry their own quoting.  A structure file as
``save_structure`` writes it (the universe line, then ``rel`` blocks; no tab,
quote or backslash) is read a relation block at a time; any other text goes
to the line reader, which is also the one path that raises.

A pipeline file stores both the source rational function and the compiled
position-class table.  Loading rebuilds the pipeline around the stored table,
so a hand-edited table row changes what the pipeline computes and is caught
when its output is compared against direct evaluation.

A transduction file (``listfn-fot 2``) holds one formula per line over the
input vocabulary: ``universe COPY FORMULA`` per kept copy, ``rel NAME VARS...``
fixing each output relation's variable order, and ``case NAME COPIES...
FORMULA`` per tuple of copies; a missing case holds for nothing.  A keyed
``def NAME VARS... FORMULA`` line defines a relation for the formulas to read;
a ``def`` formula reads the input and the ``def`` lines above it only.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from .algebra import FiniteMonoid
from .logic import (
    FOTransduction,
    Structure,
    parse_formula,
    render_formula,
)
from .rational import (
    Pipeline,
    RationalFn,
    compile_rational,
    output_table,
    triple_alphabet,
)
from .registers import SSTSpec, parse_update, render_update
from .syntax import parse_term, render_term
from .terms import Term
from .types import ListfnError, NestingError, ParseError


class FileFormatError(ParseError):
    """A persisted artifact cannot be read or written, or does not match its
    declared format."""


_HEADER_PREFIX = "listfn-"
# a format's version goes up when its old files would be misread
_VERSIONS = {"fot": "2"}


def _header(kind: str) -> str:
    return f"{_HEADER_PREFIX}{kind} {_VERSIONS.get(kind, '1')}"


_PLAIN_FIELD = re.compile(r"[^ \t\r\n]+")  # shlex's whitespace only


def _fields(line: str, where: str) -> list[str]:
    if '"' not in line and "'" not in line and "\\" not in line:
        return _PLAIN_FIELD.findall(line)  # what shlex.split gives, faster
    try:
        return shlex.split(line, comments=False)
    except ValueError as e:
        raise FileFormatError(f"{where}: {e} in {line!r}") from None


def _line(*fields: object) -> str:
    return " ".join(shlex.quote(str(f)) for f in fields)


def _read_body(path: str | Path, kind: str) -> str:
    """Check the header line, return the text after it as read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise FileFormatError(f"{path}: {e}") from None
    if not text:
        raise FileFormatError(f"{path}: empty file")
    # the header line ends where splitlines ends it (read_text turned \r\n and \r to \n)
    first, *body = re.split("[\n\v\f\x1c-\x1e\x85\u2028\u2029]", text, maxsplit=1)
    header = first.split()
    if len(header) != 2 or not header[0].startswith(_HEADER_PREFIX):
        raise FileFormatError(f"{path}: missing listfn format header")
    if header[0] != _HEADER_PREFIX + kind:
        raise FileFormatError(
            f"{path}: expected {_HEADER_PREFIX}{kind}, found {header[0]}")
    if " ".join(header) != _header(kind):
        raise FileFormatError(f"{path}: unsupported version {header[1]}")
    return "".join(body)


def _decimal(field: str) -> int | None:
    """A field of decimal digits as an int, or None, also if int() refuses its length."""
    try:
        return int(field) if field.isdecimal() else None
    except ValueError:
        return None


def _write(path: str | Path, kind: str, body: list[str]) -> None:
    text = "\n".join([_header(kind), *body]) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None


class _Body:
    """Keyword-line cursor over a body's lines, blank and comment lines dropped."""

    def __init__(self, text: str, where: str) -> None:
        self.rows = [_fields(ln, where) for ln in text.splitlines()
                     if ln.strip()[:1] not in "#"]  # no blank ("" in "#") or comment lines
        self.where = where

    def take(self, keyword: str, count: int | None = None) -> list[str]:
        """The fields after the single required line starting with keyword."""
        hits = self.all(keyword)
        if len(hits) != 1:
            raise FileFormatError(f"{self.where}: need exactly one {keyword!r} line")
        if count is not None and len(hits[0]) != count:
            raise FileFormatError(f"{self.where}: {keyword!r} takes {count} field(s)")
        return hits[0]

    def build(self, make, *args, **kw):
        """``make(*args, **kw)``, a library error other than NestingError read as this file's."""
        try:
            return make(*args, **kw)
        except NestingError:
            raise
        except ListfnError as e:
            raise FileFormatError(f"{self.where}: {e}") from None

    def all(self, keyword: str) -> list[list[str]]:
        return [r[1:] for r in self.rows if r and r[0] == keyword]

    def keyed(self, keyword: str, key: int, count: int | None = None) -> dict:
        """The keyword's lines as a dict from the tuple of their first ``key``
        fields to the list of the rest, ``count`` fields if given; a key given
        twice raises."""
        lines = {}
        for row in self.all(keyword):
            k, rest = tuple(row[:key]), row[key:]
            if len(k) < key or count not in (None, len(rest)):
                size = f"at least {key}" if count is None else key + count
                raise FileFormatError(f"{self.where}: {keyword} lines take {size} field(s)")
            if k in lines:
                raise FileFormatError(f"{self.where}: repeated {keyword} line for {_line(*k)}")
            lines[k] = rest
        return lines

    def check_keywords(self, allowed: set[str]) -> None:
        for r in self.rows:
            if r and r[0] not in allowed:
                raise FileFormatError(f"{self.where}: unknown line keyword {r[0]!r}")


# ------------------------------------------------------------------- terms

def save_term(path: str | Path, t: Term) -> None:
    _write(path, "term", [render_term(t)])


def load_term(path: str | Path) -> Term:
    text = "\n".join(_read_body(path, "term").splitlines()).strip()
    if not text:
        raise FileFormatError(f"{path}: term file has no term")
    return parse_term(text)


# ----------------------------------------------------------------- monoids

_MONOID_KEYWORDS = {"elements", "identity", "row"}


def _monoid_lines(m: FiniteMonoid) -> list[str]:
    """The elements, identity and one product row per element."""
    body = [_line("elements", *m.elements), _line("identity", m.identity)]
    for a in m.elements:
        body.append(_line("row", a, *(m.mult(a, b) for b in m.elements)))
    return body


def _parse_monoid_rows(b: _Body) -> FiniteMonoid:
    """The monoid of the elements, identity and row lines."""
    elements = tuple(b.take("elements"))
    identity = b.take("identity", 1)[0]
    table = {(x, y): p for (x,), row in b.keyed("row", 1, len(elements)).items()
             for y, p in zip(elements, row)}
    return b.build(FiniteMonoid, elements, table, identity)


def save_monoid(path: str | Path, m: FiniteMonoid,
                letters: dict[str, str] | None = None) -> None:
    body = _monoid_lines(m)
    for a, img in (letters or {}).items():
        body.append(_line("letter", a, img))
    _write(path, "monoid", body)


def load_monoid(path: str | Path) -> tuple[FiniteMonoid, dict[str, str] | None]:
    b = _Body(_read_body(path, "monoid"), str(path))
    b.check_keywords(_MONOID_KEYWORDS | {"letter"})
    m = _parse_monoid_rows(b)
    letters = {a: img for (a,), (img,) in b.keyed("letter", 1, 1).items()}
    for a, img in letters.items():
        if img not in m.elements:
            raise FileFormatError(f"{b.where}: letter {a} maps outside")
    return m, (letters or None)


# --------------------------------------------------------------- rationals

def _rational_body(r: RationalFn) -> list[str]:
    body = [
        _line("name", r.name),
        _line("input", *r.input_letters),
        _line("output", *r.output_letters),
        _line("empty", *r.empty_output),
        *_monoid_lines(r.monoid),
    ]
    for a in r.input_letters:
        body.append(_line("h", a, r.h[a]))
    for (m, a, mr), block in sorted(r.out.items()):
        body.append(_line("out", m, a, mr, *block))
    return body


def save_rational(path: str | Path, r: RationalFn) -> None:
    _write(path, "rational", _rational_body(r))


_RATIONAL_KEYWORDS = _MONOID_KEYWORDS | {"name", "input", "output", "empty", "h", "out"}


def _parse_rational(b: _Body, extra_keywords: set[str] = frozenset()) -> RationalFn:
    b.check_keywords(_RATIONAL_KEYWORDS | extra_keywords)
    monoid = _parse_monoid_rows(b)
    name = b.take("name", 1)[0]
    inputs = tuple(b.take("input"))
    outputs = tuple(b.take("output"))
    empty = tuple(b.take("empty"))
    h = {a: img for (a,), (img,) in b.keyed("h", 1, 1).items()}
    out = {context: tuple(block) for context, block in b.keyed("out", 3).items()}
    return b.build(RationalFn, name, inputs, outputs, monoid, h, out, empty)


def load_rational(path: str | Path) -> RationalFn:
    return _parse_rational(_Body(_read_body(path, "rational"), str(path)))


# --------------------------------------------------------------- pipelines

def save_pipeline(path: str | Path, p: Pipeline) -> None:
    body = _rational_body(p.rational)
    body.append(_line("bound", p.bound))
    table = output_table(p.rational)
    for name in triple_alphabet(p.rational).names:
        body.append(_line("table", name, *table[name]))
    _write(path, "pipeline", body)


def load_pipeline(path: str | Path) -> Pipeline:
    b = _Body(_read_body(path, "pipeline"), str(path))
    r = _parse_rational(b, extra_keywords={"bound", "table"})
    bound = b.take("bound", 1)[0]
    table = {name: tuple(block) for (name,), block in b.keyed("table", 1).items()}
    if missing := [n for n in triple_alphabet(r).names if n not in table]:
        raise FileFormatError(f"{path}: table misses triple {missing[0]}")
    p = compile_rational(r, table=table)
    if bound != str(p.bound):
        raise FileFormatError(
            f"{path}: bound {bound} differs from the recomputed bound {p.bound}")
    return p


# -------------------------------------------------------------------- SSTs

def save_sst(path: str | Path, sst: SSTSpec) -> None:
    body = [
        _line("name", sst.name),
        _line("input", *sst.input_letters),
        _line("states", *sst.states),
        _line("initial", sst.initial),
        _line("registers", sst.registers),
        _line("output-register", sst.output_register),
    ]
    for (state, letter), (target, eta) in sorted(sst.transitions.items()):
        body.append(_line("trans", state, letter, target, render_update(eta)))
    _write(path, "sst", body)


def load_sst(path: str | Path) -> SSTSpec:
    b = _Body(_read_body(path, "sst"), str(path))
    b.check_keywords({"name", "input", "states", "initial", "registers",
                      "output-register", "trans"})
    transitions = {k: (target, b.build(parse_update, eta))
                   for k, (target, eta) in b.keyed("trans", 2, 2).items()}
    registers, output_register = (_decimal(b.take(k, 1)[0])
                                  for k in ("registers", "output-register"))
    if None in (registers, output_register):
        raise FileFormatError(f"{b.where}: register counts must be numbers")
    return b.build(SSTSpec, name=b.take("name", 1)[0], input_letters=tuple(b.take("input")),
                   states=tuple(b.take("states")), initial=b.take("initial", 1)[0],
                   registers=registers, transitions=transitions,
                   output_register=output_register)


# -------------------------------------------------------------- structures

def _structure_body(s: Structure) -> list[str]:
    body = [" ".join(map(str, ("universe", *s.universe)))]  # integers: no quoting
    for name in sorted(s.vocabulary):
        arity = s.vocabulary[name]
        body.append(_line("rel", name, arity))
        row_line = "tuple" + " %s" * arity
        body.extend(row_line % row for row in sorted(s.relations.get(name, ())))
    return body


def format_structure(s: Structure) -> str:
    """The full file text for a structure, header included."""
    return "\n".join([_header("structure"), *_structure_body(s)]) + "\n"


def save_structure(path: str | Path, s: Structure) -> None:
    _write(path, "structure", _structure_body(s))


def _int_fields(row: list[str], where: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, row))
    except ValueError:
        raise FileFormatError(f"{where}: elements must be integers") from None


def _bulk_structure(text: str) -> Structure | None:
    """A saved body read a relation block at a time, or None for the line reader."""
    first, *blocks = text[:-1].split("\nrel ")
    keyword, *spelled = first.split(" ")
    vocabulary, relations = {}, {}
    try:
        ids = {u: int(u) for u in spelled}  # elements by the universe line's own spellings
        if (keyword != "universe" or list(map(str, ids.values())) != spelled
                or text[-1:] != "\n" or any(c in text for c in "\t'\"\\")):
            return None  # fields _fields splits otherwise, or not a saved body
        for block in blocks:
            header, newline, rows = block.partition("\n")
            name, _, arity = header.partition(" ")  # a name holds no line break
            if name.splitlines() != [name] or name in vocabulary or not arity.isdecimal():
                return None
            k = vocabulary[name] = int(arity)
            lines = rows.count("\n") + 1 if newline else 0  # a blank line counts
            tokens = rows.replace("\n", " ").split(" ") if newline else []
            # each line is "tuple" and k elements: every line starts "tuple ", there are
            # lines*(k+1) tokens, and a "tuple" off every (k+1)-th one fails the lookup
            if ("\n" + rows).count("\ntuple ") != lines or len(tokens) != lines * (k + 1):
                return None
            del tokens[::k + 1]  # a KeyError below: outside the universe, or spelled otherwise
            elements = [map(ids.__getitem__, tokens)] * k if lines else []  # k < len(tokens)
            relations[name] = frozenset(set(zip(*elements)))  # sized as the line reader's
        return Structure(tuple(ids.values()), vocabulary, relations)
    except (ValueError, KeyError):  # a LogicError from Structure is a ValueError
        return None


def _structure_lines(text: str, where: str) -> Structure:
    b = _Body(text, where)
    universe: tuple[int, ...] | None = None
    vocabulary: dict[str, int] = {}
    relations: dict[str, set] = {}
    current: str | None = None
    for row in b.rows:
        if not row:
            continue
        if row[0] == "universe":
            if universe is not None:
                raise FileFormatError(f"{b.where}: repeated universe line")
            universe = _int_fields(row[1:], b.where)
        elif row[0] == "rel":
            if len(row) != 3 or (arity := _decimal(row[2])) is None:
                raise FileFormatError(f"{b.where}: rel lines take name, arity")
            current = row[1]
            if current in vocabulary:
                raise FileFormatError(f"{b.where}: repeated relation {current}")
            vocabulary[current] = arity
            relations[current] = set()
        elif row[0] == "tuple":
            if current is None:
                raise FileFormatError(f"{b.where}: tuple before any rel line")
            items = _int_fields(row[1:], b.where)
            if len(items) != vocabulary[current]:
                raise FileFormatError(f"{b.where}: tuple arity mismatch under {current}")
            relations[current].add(items)
        else:
            raise FileFormatError(f"{b.where}: unknown line keyword {row[0]!r}")
    if universe is None:
        raise FileFormatError(f"{b.where}: missing universe line")
    return b.build(Structure, universe, vocabulary,
                   {n: frozenset(rows) for n, rows in relations.items()})


def load_structure(path: str | Path) -> Structure:
    body = _read_body(path, "structure")
    return _bulk_structure(body) or _structure_lines(body, str(path))


# ------------------------------------------------------------ transductions

def save_fot(path: str | Path, t: FOTransduction) -> None:
    body = [_line("copies", t.k)]
    for name in sorted(t.input_vocab):
        body.append(_line("input", name, t.input_vocab[name]))
    for name in sorted(t.output_vocab):
        body.append(_line("output", name, t.output_vocab[name]))
    for name, args, phi in t.definitions:
        body.append(_line("def", name, *args, render_formula(phi)))
    for i in sorted(t.universe):
        body.append(_line("universe", i, render_formula(t.universe[i])))
    for name in sorted(t.relations):
        order, table = t.relations[name]
        body.append(_line("rel", name, *order))
        for key in sorted(table):
            body.append(_line("case", name, *key, render_formula(table[key])))
    _write(path, "fot", body)


def _vocab(b: _Body, keyword: str) -> dict[str, int]:
    vocab = {name: _decimal(arity) for (name,), (arity,) in b.keyed(keyword, 1, 1).items()}
    if None in vocab.values():
        raise FileFormatError(f"{b.where}: {keyword} lines take name, arity")
    return vocab


def load_fot(path: str | Path) -> FOTransduction:
    b = _Body(_read_body(path, "fot"), str(path))
    b.check_keywords({"copies", "input", "output", "def", "universe", "rel", "case"})
    copies = _decimal(b.take("copies", 1)[0])
    if not copies:  # not a number, or 0
        raise FileFormatError(f"{b.where}: copies must be a positive number")
    universe = {}
    for row in b.all("universe"):
        if len(row) != 2 or (copy := _decimal(row[0])) is None or copy in universe:
            raise FileFormatError(
                f"{b.where}: universe lines take a new copy number, formula")
        universe[copy] = b.build(parse_formula, row[1])
    relations = {name: (tuple(order), {}) for (name,), order in b.keyed("rel", 1).items()}
    for row in b.all("case"):
        key = tuple(map(_decimal, row[1:-1]))
        if (len(row) < 2 or row[0] not in relations or None in key
                or key in relations[row[0]][1]):
            raise FileFormatError(
                f"{b.where}: case lines take a rel name, new copy numbers, formula")
        relations[row[0]][1][key] = b.build(parse_formula, row[-1])
    definitions = tuple((name, tuple(rest[:-1]), b.build(parse_formula, (rest or [""])[-1]))
                        for (name,), rest in b.keyed("def", 1).items())  # "" does not parse
    return b.build(FOTransduction, copies, _vocab(b, "input"), _vocab(b, "output"),
                   universe, relations, definitions)
