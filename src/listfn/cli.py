"""Command-line front end for the list-function toolkit.

Subcommands::

    typecheck TERM                     print a term's domain and codomain
    eval TERM VALUE                    run a term on a value
    forest MONOID WORD                 factorisation tree, validity, depth
    compile-rational RAT [-o FILE]     compile to a pipeline file
    run-pipeline FILE WORD             run a pipeline, cross-check against
                                       direct evaluation
    check WHICH [TARGET] [--type T]    randomized equivalence checks
    sst SST WORD                       run a transducer two ways, cross-check
    encode VALUE TYPE [-o FILE]        value to relational structure
    decode FILE TYPE                   structure back to a value
    fot TRANS FILE|--word W [-o FILE]  apply a transduction to a structure

TERM, MONOID, RAT, SST and TRANS arguments may name a file or a built-in
sample; anything that is not an existing file is parsed as inline text or
looked up by name.  Words are written as plain strings of one-letter symbols
("abab") or comma-separated ("a,b,ab").

Exit codes: 0 success, 2 a ``ParseError`` (bad syntax or file), 3 any other
``ListfnError`` (text nested too deeply included) or a recursion limit hit,
4 a cross-check failed, 141 standard output closed early (as under ``| head``).
``--seed N`` (or the ``LISTFN_SEED`` environment variable) fixes the
randomized checks; reports repeat the seed they used.  ``--format
json-lines`` switches every command to one JSON record per result with keys
``kind``, ``input``, ``output``, ``status``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import reduce
from itertools import islice
from pathlib import Path

from . import fileio
from .algebra import (
    FactTree,
    Homomorphism,
    Leaf,
    build_factorisation,
    forest_depth_bound,
    tree_depth,
    tree_yield,
    validate_factorisation,
)
from .logic import (
    apply_transduction,
    builtin_fot,
    builtin_names,
    builtin_term,
    check_commutes,
    decode_structure,
    decode_word_structure,
    encode_value,
    word_structure,
)
from .rational import compile_rational, eval_pipeline, eval_rational_direct
from .registers import (
    apply_update,
    empty_valuation,
    fot_pipeline_eval,
    homogeneous_product,
    normalise,
    parse_update,
    product_list_updates,
    random_abstraction,
    random_update,
    random_update_like,
    run_sst_naive,
    run_sst_structured,
    update_product,
)
from .samples import (
    SAMPLE_RATIONALS,
    SAMPLE_SSTS,
    SAMPLE_UPDATE_RATIONALS,
    hom_contains_ab,
    hom_u1_keep_a,
)
from .stdlib import CATALOG
from .syntax import _split_args, parse_term
from .terms import infer_type, eval_term
from .types import (
    ListfnError,
    NestingError,
    ParseError,
    enumerate_values,
    parse_type,
    parse_value,
    random_value,
    render_type,
    render_value,
)

DEFAULT_COUNT = 1000

# (monoid, letter map) per sample, the shape that load_monoid returns
_FOREST_SAMPLES = {name: (h.target, h.letter_map) for name, h in
                   (("u1", hom_u1_keep_a()), ("contains-ab", hom_contains_ab()))}


class Reporter:
    """Prints either human-readable text or one JSON record per result."""

    def __init__(self, fmt: str) -> None:
        self.json = fmt == "json-lines"

    def emit(self, kind: str, input_: object, output: object,
             status: str = "ok") -> None:
        if self.json:
            record = {"kind": kind, "input": input_, "output": output,
                      "status": status}
            print(json.dumps(record, ensure_ascii=False, default=str))
            return
        stream = sys.stdout if status in ("ok", "pass") else sys.stderr
        if isinstance(output, dict):
            for key, value in output.items():
                text = str(value)
                if "\n" in text:
                    print(f"{key}:", file=stream)
                    print(text, file=stream)
                else:
                    print(f"{key}: {text}", file=stream)
        else:
            print(output, file=stream)


# ------------------------------------------------------- argument resolution

def _is_file(text: str) -> bool:
    try:
        return Path(text).is_file()
    except OSError:
        return False


def _word_arg(text: str) -> list[str]:
    return text.split(",") if "," in text else list(text)


def _show_word(letters) -> str:
    letters = tuple(letters)
    if any(len(a) != 1 for a in letters):
        return ",".join(letters)
    return "".join(letters)


def _term_arg(text: str):
    if _is_file(text):
        return fileio.load_term(text)
    return parse_term(text)


def _sample_or_file(text: str, samples: dict, load, what: str):
    """A named sample, else the artifact in file ``text``."""
    if text in samples:
        return samples[text]
    if _is_file(text):
        return load(text)
    raise ParseError(
        f"{text!r} is neither {what} file nor one of {', '.join(samples)}")


def _fot_arg(text: str, type_texts: list[str] | None):
    """Builtin name (types after ``@`` or via --type) or a transduction file."""
    if _is_file(text):
        return fileio.load_fot(text)
    name, sep, annotation = text.partition("@")
    texts = list(type_texts or [])
    if sep:
        texts = _split_args(annotation) + texts
    arities = builtin_names()
    if name in arities:
        return builtin_fot(name, *map(parse_type, texts))
    raise ParseError(
        f"{text!r} is neither a transduction file nor one of "
        f"{', '.join(arities)}")


def _hom_map(text: str) -> dict[str, str]:
    mapping = {}
    for part in text.split(","):
        letter, sep, image = part.partition("=")
        if not sep or not letter or not image:
            raise ParseError(f"--hom expects letter=element pairs, got {part!r}")
        if letter in mapping:
            raise ParseError(f"--hom gives letter {letter!r} twice")
        mapping[letter] = image
    return mapping


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LISTFN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"LISTFN_SEED must be an integer, got {env!r}")
    return 0


def _ramp(i: int, count: int, lo: int, hi: int) -> int:
    """Linear size ramp from lo to hi across case indices."""
    if count <= 1:
        return hi
    return lo + (hi - lo) * i // (count - 1)


# ----------------------------------------------------------------- commands

def cmd_typecheck(args, rep: Reporter) -> int:
    term = _term_arg(args.term)
    dom, cod = infer_type(term)
    rep.emit("typecheck", args.term,
             f"{render_type(dom)} -> {render_type(cod)}")
    return 0


def cmd_eval(args, rep: Reporter) -> int:
    term = _term_arg(args.term)
    dom, _ = infer_type(term)
    value = parse_value(args.value, dom)
    result = eval_term(term, value)
    rep.emit("eval", {"term": args.term, "value": args.value},
             render_value(result))
    return 0


def _render_tree(t: FactTree) -> list[str]:
    """One line per node in preorder, two spaces in per level; an explicit stack."""
    lines, work = [], [(t, "")]
    while work:
        t, indent = work.pop()
        if isinstance(t, Leaf):
            lines.append(f"{indent}leaf {t.letter}")
        else:
            lines.append(f"{indent}node {t.label}")
            work.extend((c, indent + "  ") for c in reversed(t.children))
    return lines


def _forest(hom: Homomorphism, word: list) -> tuple[FactTree, dict, bool]:
    """The factorisation tree of ``word``, its report fields, and whether it
    passes: valid, yield-preserving and no deeper than the bound."""
    tree = build_factorisation(hom, word)
    result = validate_factorisation(hom, tree)
    fields = {
        "depth": tree_depth(tree),
        "bound": forest_depth_bound(hom.target, len(set(hom.letter_map.values()))),
        "valid": "yes" if result.ok else f"no: {result.message}",
        "yield": "preserved" if tree_yield(tree) == word else "changed",
    }
    ok = (result.ok and fields["yield"] == "preserved"
          and fields["depth"] <= fields["bound"])
    return tree, fields, ok


def cmd_forest(args, rep: Reporter) -> int:
    monoid, letters = _sample_or_file(args.monoid, _FOREST_SAMPLES,
                                      fileio.load_monoid, "a monoid")
    if args.hom:
        letters = _hom_map(args.hom)
    if letters is None:
        raise ParseError("no letter images: pass --hom a=x,b=y or use a "
                         "monoid file with letter lines")
    word = _word_arg(args.word)
    if not word:
        raise ParseError("factorisation needs a nonempty word")
    for a in word:
        if letters.get(a) not in monoid.elements:
            raise ParseError(f"letter {a!r} has no image in the monoid")
    hom = Homomorphism(monoid, letters)
    tree, fields, ok = _forest(hom, word)
    output = {"value": hom.image(word), **fields,
              "tree": "\n".join(_render_tree(tree))}
    rep.emit("forest", {"monoid": args.monoid, "word": args.word}, output,
             status="ok" if ok else "mismatch")
    return 0 if ok else 4


def cmd_compile_rational(args, rep: Reporter) -> int:
    r = _sample_or_file(args.rational, SAMPLE_RATIONALS, fileio.load_rational,
                        "a rational-function")
    pipeline = compile_rational(r)
    out_path = args.output or f"{r.name}.lpipe"
    fileio.save_pipeline(out_path, pipeline)
    rep.emit("compile-rational", args.rational,
             {"rational": r.name, "bound": pipeline.bound,
              "stages": len(pipeline.stages), "pipeline": str(out_path)})
    return 0


def _cross_checked(rep: Reporter, kind: str, input_: dict, **routes) -> int:
    """Print the word that two routes agree on, or report a mismatch with
    both outputs and their first differing position and return 4."""
    (name1, got), (name2, want) = routes.items()
    if got == want:
        rep.emit(kind, input_, _show_word(got))
        return 0
    cut = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
               min(len(got), len(want)))
    rep.emit(kind, input_, {f"{name1}-output": _show_word(got),
                            f"{name2}-output": _show_word(want),
                            "first-difference": f"position {cut}"},
             status="mismatch")
    return 4


def cmd_run_pipeline(args, rep: Reporter) -> int:
    pipeline = fileio.load_pipeline(args.pipeline)
    word = _word_arg(args.word)
    return _cross_checked(
        rep, "run-pipeline", {"pipeline": args.pipeline, "word": args.word},
        pipeline=eval_pipeline(pipeline, word),
        direct=eval_rational_direct(pipeline.rational, word))


def cmd_sst(args, rep: Reporter) -> int:
    sst = _sample_or_file(args.sst, SAMPLE_SSTS, fileio.load_sst, "an SST")
    word = _word_arg(args.word)
    return _cross_checked(rep, "sst", {"sst": sst.name, "word": args.word},
                          structured=run_sst_structured(sst, word),
                          naive=run_sst_naive(sst, word))


def _emit_structure(rep: Reporter, kind: str, input_: dict, s, path) -> None:
    """Save ``s`` to ``path`` and report its size, or print it if no path."""
    if path:
        fileio.save_structure(path, s)
        rep.emit(kind, input_, {"structure": str(path),
                                "universe": len(s.universe)})
    else:
        rep.emit(kind, input_, fileio.format_structure(s).rstrip("\n"))


def cmd_encode(args, rep: Reporter) -> int:
    t = parse_type(args.type)
    v = parse_value(args.value, t)
    s = encode_value(v, t)
    _emit_structure(rep, "encode", {"value": args.value, "type": args.type},
                    s, args.output)
    return 0


def cmd_decode(args, rep: Reporter) -> int:
    s = fileio.load_structure(args.structure)
    t = parse_type(args.type)
    v = decode_structure(s, t)
    rep.emit("decode", {"structure": args.structure, "type": args.type},
             render_value(v))
    return 0


def cmd_fot(args, rep: Reporter) -> int:
    transduction = _fot_arg(args.transduction, args.types)
    if args.word is not None:
        if args.structure is not None:
            raise ParseError("fot takes a structure file or --word, not both")
        s = word_structure(args.word)
        input_ = {"transduction": args.transduction, "word": args.word}
    elif args.structure is None:
        raise ParseError("fot needs a structure file or --word")
    else:
        s = fileio.load_structure(args.structure)
        input_ = {"transduction": args.transduction, "structure": args.structure}
    out_s = apply_transduction(transduction, s)
    if args.decode:
        v = decode_structure(out_s, parse_type(args.decode))
        rep.emit("fot", input_, render_value(v))
    elif args.output or args.word is None:
        _emit_structure(rep, "fot", input_, out_s, args.output)
    else:
        rep.emit("fot", input_, decode_word_structure(out_s))
    return 0


# ------------------------------------------------------------------- checks
#
# A check family is a generator over (seed, count, built-ins), the last being
# the built-ins that fot-commute checks, each with its element types.  It
# first yields its report fields, with a "cases" slot that cmd_check fills,
# then one (label, ok) pair per case.

def _words(rng: random.Random, letters, count: int, lo: int, hi: int):
    """``count`` random words over ``letters``, their lengths ramping lo..hi."""
    for i in range(count):
        yield [rng.choice(letters) for _ in range(_ramp(i, count, lo, hi))]


def _check_rational(seed: int, count: int, builtins):
    yield {"functions": ", ".join(SAMPLE_RATIONALS), "cases": 0}
    rng = random.Random(seed)
    for name, r in SAMPLE_RATIONALS.items():
        pipeline = compile_rational(r)
        for word in _words(rng, r.input_letters, count, 0, 200):
            yield (f"{name} on {_show_word(word)}",
                   eval_pipeline(pipeline, word) == eval_rational_direct(r, word))


def _check_registers_fold(seed: int, count: int, builtins):
    """Products of random update lists against left folds; every third case
    runs a rational function that emits update text, the paper's route to
    first-order transductions, against its updates applied one by one."""
    yield {"cases": 0}
    rng = random.Random(seed)
    for i in range(count):
        n = _ramp(i, count, 1, 200)
        if i % 3 == 2:
            name = rng.choice(list(SAMPLE_UPDATE_RATIONALS))
            g, k = SAMPLE_UPDATE_RATIONALS[name]
            word = [rng.choice(g.input_letters) for _ in range(n)]
            etas = map(parse_update, eval_rational_direct(g, word))
            yield (f"case {i} ({name}, n={n})",
                   fot_pipeline_eval(g, k, word)
                   == reduce(apply_update, etas, empty_valuation(k))[0])
            continue
        k = rng.randint(1, 4)
        if i % 3 == 0:
            tau = random_abstraction(k, rng)
            etas = [random_update_like(tau, rng) for _ in range(n)]
            got = homogeneous_product(etas, tau)
        else:
            etas = [random_update(k, rng) for _ in range(n)]
            got = product_list_updates(etas, k)
        yield (f"case {i} (k={k}, n={n})",
               got == normalise(reduce(update_product, etas)))


def _check_fot_commute(seed: int, count: int, builtins):
    """Each built-in at its element types, each from Random(seed)."""
    yield {"cases": 0, "builtins": ", ".join(builtins)}
    for name, types in builtins.items():
        rng = random.Random(seed)
        term = builtin_term(name, *types)
        transduction = builtin_fot(name, *types)
        dom, _ = infer_type(term)
        samples = list(islice(enumerate_values(dom, 4), 100))
        samples += [random_value(dom, _ramp(i, count, 1, 24), rng)
                    for i in range(count)]
        for v in samples:
            yield (f"{name}: input {render_value(v)}",
                   not check_commutes(term, transduction, [v]).failures)


def _check_sst(seed: int, count: int, builtins):
    yield {"ssts": ", ".join(SAMPLE_SSTS), "cases": 0}
    rng = random.Random(seed)
    for name, sst in SAMPLE_SSTS.items():
        for word in _words(rng, sst.input_letters, count, 0, 200):
            yield (f"{name} on {_show_word(word)}",
                   run_sst_naive(sst, word) == run_sst_structured(sst, word))


def _check_forest(seed: int, count: int, builtins):
    yield {"monoids": ", ".join(_FOREST_SAMPLES), "cases": 0}
    rng = random.Random(seed)
    for name, (monoid, letters) in _FOREST_SAMPLES.items():
        hom = Homomorphism(monoid, letters)
        for word in _words(rng, list(letters), count, 1, 300):
            yield f"{name} on {_show_word(word)}", _forest(hom, word)[2]


def _check_stdlib(seed: int, count: int, builtins):
    yield {"entries": len(CATALOG), "cases": 0}
    rng = random.Random(seed)
    pairs = [(entry, instance) for entry in CATALOG.values()
             for instance in entry.instances]
    per_pair = max(1, count // len(pairs))
    for entry, instance in pairs:
        term = entry.build(*instance)
        oracle = entry.oracle(*instance)
        dom, _ = infer_type(term)
        for i in range(per_pair):
            v = random_value(dom, _ramp(i, per_pair, 1, 25), rng)
            yield (f"{entry.name} on {render_value(v)}",
                   eval_term(term, v) == oracle(v))


_CHECKS = {
    "rational": _check_rational,
    "registers-fold": _check_registers_fold,
    "fot-commute": _check_fot_commute,
    "sst": _check_sst,
    "forest": _check_forest,
    "stdlib": _check_stdlib,
}


def cmd_check(args, rep: Reporter) -> int:
    seed = _resolve_seed(args)
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    which = list(_CHECKS) if args.which == "all" else [args.which]
    arities = builtin_names()
    names = ", ".join(arities)
    if args.which == "fot-commute" and args.target is None:
        raise ParseError(f"check fot-commute needs a builtin name: {names}")
    if args.target is not None and args.which not in ("fot-commute", "all"):
        raise ParseError(f"check {args.which} takes no target, got {args.target!r}")
    if args.target is not None and args.target not in arities:
        raise ParseError(f"{args.target!r} is not one of {names}")
    if args.types and args.which not in ("fot-commute", "all"):
        raise ParseError(f"check {args.which} takes no --type")
    types = [parse_type(t) for t in args.types or ()]
    defaults = [parse_type("{a,b}"), parse_type("{c,d}")]
    builtins = {name: types or defaults[:arities[name]]
                for name in ([args.target] if args.target else arities)}
    for name, ts in builtins.items():
        builtin_term(name, *ts)  # a wrong type count exits 2 before any check prints
    worst = 0
    for check in which:
        family = _CHECKS[check](seed, args.count, builtins)
        fields = next(family)
        failures = []
        for label, ok in family:
            fields["cases"] += 1
            if not ok:
                failures.append(label)
        status = "pass" if not failures else "fail"
        output = {"check": check, **fields, "seed": seed,
                  "result": status if not failures else
                  f"fail ({len(failures)} case(s); first: {failures[0]})"}
        rep.emit("check", check, output, status=status)
        if failures:
            worst = 4
    return worst


# -------------------------------------------------------------------- main

class _SubcommandParser(argparse.ArgumentParser):
    """Lets an optional positional follow options: ``fot T --type X FILE``."""

    def parse_known_args(self, args=None, namespace=None):
        if getattr(self, "_mixing", False):
            return super().parse_known_args(args, namespace)
        self._mixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._mixing = False


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json-lines"],
                        default="text", help="output format")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized parts (default: "
                             "LISTFN_SEED or 0)")

    parser = argparse.ArgumentParser(
        prog="listfn",
        description="First-order and regular list functions: evaluation, "
                    "factorisation forests, rational-function compilation, "
                    "streaming transducers, and logic transductions.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    p = sub.add_parser("typecheck", parents=[common],
                       help="infer a term's type")
    p.add_argument("term", help="term file or inline term text")
    p.set_defaults(func=cmd_typecheck)

    p = sub.add_parser("eval", parents=[common], help="evaluate a term")
    p.add_argument("term", help="term file or inline term text")
    p.add_argument("value", help="input value text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forest", parents=[common],
                       help="build and validate a factorisation tree")
    p.add_argument("monoid", help="monoid file or sample name "
                                  "(u1, contains-ab)")
    p.add_argument("word")
    p.add_argument("--hom", help="letter images, e.g. a=1,b=0")
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("compile-rational", parents=[common],
                       help="compile a rational function to a pipeline file")
    p.add_argument("rational", help="rational file or sample name "
                                    f"({', '.join(SAMPLE_RATIONALS)})")
    p.add_argument("-o", "--output", help="pipeline file to write "
                                          "(default NAME.lpipe)")
    p.set_defaults(func=cmd_compile_rational)

    p = sub.add_parser("run-pipeline", parents=[common],
                       help="run a compiled pipeline on a word")
    p.add_argument("pipeline", help="pipeline file")
    p.add_argument("word")
    p.set_defaults(func=cmd_run_pipeline)

    p = sub.add_parser("check", parents=[common],
                       help="randomized equivalence checks")
    p.add_argument("which", choices=[*_CHECKS, "all"])
    p.add_argument("target", nargs="?",
                   help="builtin name for fot-commute")
    p.add_argument("--count", type=int, default=DEFAULT_COUNT,
                   help="cases per check, at least 1 (sizes ramp linearly)")
    p.add_argument("--type", dest="types", action="append",
                   help="element type(s) for fot-commute")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sst", parents=[common],
                       help="run a streaming transducer both ways")
    p.add_argument("sst", help="SST file or sample name "
                               f"({', '.join(SAMPLE_SSTS)})")
    p.add_argument("word")
    p.set_defaults(func=cmd_sst)

    p = sub.add_parser("encode", parents=[common],
                       help="encode a value as a relational structure")
    p.add_argument("value")
    p.add_argument("type")
    p.add_argument("-o", "--output", help="structure file to write "
                                          "(default: print)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", parents=[common],
                       help="decode a structure file back to a value")
    p.add_argument("structure", help="structure file")
    p.add_argument("type")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("fot", parents=[common],
                       help="apply a first-order transduction")
    p.add_argument("transduction", help="transduction file or builtin name "
                                        f"({', '.join(builtin_names())})")
    p.add_argument("structure", nargs="?", help="structure file")
    p.add_argument("--type", dest="types", action="append",
                   help="element type(s) for a builtin")
    p.add_argument("--word", help="run on this word, encoded as {a,b}^*, instead "
                                  "of a file; without -o or --decode, print a word")
    p.add_argument("--decode", help="decode the output at this type")
    p.add_argument("-o", "--output", help="structure file to write")
    p.set_defaults(func=cmd_fot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)  # --help prints, then exits
            return _run(args, Reporter(args.format))
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; what is left to
        # flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # what a shell reports for a command ended by SIGPIPE


def _run(args, rep: Reporter) -> int:
    try:
        return args.func(args, rep) or 0
    except RecursionError:
        rep.emit(args.command, None,
                 "input too large to process: recursion limit reached", status="error")
        return 3
    except ListfnError as e:
        syntax = isinstance(e, ParseError) and not isinstance(e, NestingError)
        rep.emit(args.command, None, str(e), status="syntax-error" if syntax else "error")
        return 2 if syntax else 3


if __name__ == "__main__":
    raise SystemExit(main())
