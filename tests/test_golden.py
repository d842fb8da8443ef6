"""Golden outputs: SHA-256s of CLI reports and saved files, byte for byte.

The hashes hold the program's visible output still while its insides change:
the seeded ``check all`` reports, the built-in transductions (also on nested
element types), catalog terms, sample rationals and pipelines as saved, T_3
as a monoid file, and structure files: encoded values, a word encoded at
{a,b}^*, transduction outputs (one with sparse ids), and a hand-built
structure with an arity-3 and an empty relation.  A change that alters any
of them on purpose updates the hash here and says why.
"""
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from listfn.cli import main
from listfn.fileio import (
    save_fot,
    save_monoid,
    save_pipeline,
    save_rational,
    save_structure,
)
from listfn.logic import (
    Structure,
    apply_transduction,
    builtin_fot,
    encode_value,
    parse_formula,
    render_formula,
    word_structure,
)
from listfn.rational import compile_rational
from listfn.registers import t_k_monoid
from listfn.samples import SAMPLE_RATIONALS
from listfn.stdlib import CATALOG
from listfn.syntax import render_term
from listfn.types import parse_type, parse_value

# the built-in instances whose formula files CI compares with the built-ins
FOT_CASES = {"reverse": ["{a,b}"], "append": ["{a,b}"], "coappend": ["{a,b}"],
             "flat": ["{a,b}"], "block": ["{a}", "{b,c}"], "ab_example": []}
# built-ins on element types encoded below depth 0, whose formulas hold
# ``_under``'s hop chains and ``_moved``'s nested paths
NESTED_FOT_CASES = {"reverse": ["({a}+{b})^*"], "append": ["{a}^*"],
                    "coappend": ["({a,b}^*)^*"], "flat": ["{a}*{b}+{c}"],
                    "block": ["{a}^*", "{b}*{c}"]}

GOLDEN = {
    "check-all-text":
        "6c82f20fa06db2a9e39623c496cd89863036a2d52f5fb69b87424e0aaa3f7a6f",
    "check-all-json-lines":
        "e8f551df733cdd74efebd9430bb59f5c4c183a7f09e7028ca897d3b4703c5f7c",
    "catalog-terms":
        "c3513ab482746a861b62e2c23b45e8db622b0f2ea9f8958a0a46887a87585cc5",
    "t3.lmonoid":
        "49cca560e50c19c79410ec71e78d69f8fb6126cdd6da1a2995a4f1f9f37a2a78",
    "reverse.lfot":
        "ba81c27a04a6258b4e584553bae49429e9864ae868928285bc4edf30b8b3c924",
    "append.lfot":
        "7443930e034e5daff090e246544d2667a1d38e537809c4f1e6a8bb2ad7feac03",
    "coappend.lfot":
        "1fda9371cf586da0608bb058a2169177d1d11d55f87af32b2c5a604ff9ea8d41",
    "flat.lfot":
        "9102fc6e49dba3e7c2e6ee9e2387b46f8c5e388e54b6e096084bab9cc329da4e",
    "block.lfot":
        "7f5f4a19a9c449afb7ee5a8c5b9ca66497105fcfe2d74d368c95058cc925be25",
    "ab_example.lfot":
        "eb1a790e07c3e2ec4c12f61d22f55f435e8839aa01f3c93c6321aea5cd6b0f98",
    "reverse@({a}+{b})^*.lfot":
        "e4d4cbfdba9e3b5a9d286f285b5af6ebfcbdfbb5a51e640441b272ef7b993468",
    "append@{a}^*.lfot":
        "ca2e07a063ba0f88bb166bfb545861cae1e6b4d60e7a2d99fce0eeba3f80902a",
    "coappend@({a,b}^*)^*.lfot":
        "cadf449635dd05b621b967a622c7faf75bdd2a6da2d2e1b7ee9bd00b80ad8d12",
    "flat@{a}*{b}+{c}.lfot":
        "c98337b2179bbf3fe299fa4804a65a1f7c381449878f838e83badf772e318c7b",
    "block@{a}^*,{b}*{c}.lfot":
        "c209a4f904fb817e2fe150ee89cb3be8c351a12c831027defc1e179b7b747d4b",
    "keep-a.lrational":
        "51035945444d4ed95873c597ef46d47f48623cb04b1c520b9e3fa56fcd9f62c8",
    "mark-after-ab.lrational":
        "f950498a0c13778b52b249748a7baa51d4d213ec6d8a651e53c1876ae045218e",
    "double-last-b.lrational":
        "711a5127a2ed370b03a67c67a36097a5bd40852ff5e301c8081292cf68e7b973",
    "keep-a.lpipe":
        "4c2d81f0353a8377c6eaaabf4ce0f835e0c14e3d7aef13c576ac1d6464f13a61",
    "mark-after-ab.lpipe":
        "9416347d034986191ebb04bc7f23eafa6c6d6dafda4c888f77e41ee08d25bde6",
    "double-last-b.lpipe":
        "8d1d5731fcb8605cabb555f96693cb498e4a5390d94191986dc5d8fad8f49269",
    "[[a,b],[b]].lstruct":
        "8f78c8b21557e24de4863be6c4cffa8bd57ef6e2633f4e0eac302d56d12524ec",
    "[inl a,inr b,inr c,inl a].lstruct":
        "cccad1de5c9c69e8d69de2f80227f4269d91ca5d21078c7ab072931a8a5a63bf",
    "babba.lstruct":
        "63e6f7f080a518f6b050381e7c4e03c44264a8bcaeb7e2d43a3f5cb08013bf4c",
    "ab_example(babba).lstruct":
        "0840df4da79f0f871c5699449d96054033dbbcba54c5d6e217dcf98d4b4b146b",
    "coappend@{a,b}([a,b,b]).lstruct":
        "00ea781352b5d089d2737a244d36298650a7f5b4739ae975d78f460371a54603",
    "hand.lstruct":
        "4c3c60c9372ce3bf10e59b8ccc0685526812f28de73e7c92355f8b3d3cbd2bf2",
}


def _check_all(fmt):
    def produce(tmp_path):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["check", "all", "--count", "20", "--seed", "7",
                         "--format", fmt]) == 0
        return out.getvalue().encode()
    return produce


def _saved(save, build):
    """The bytes ``save`` writes for the artifact ``build()`` returns."""
    def produce(tmp_path):
        path = tmp_path / "artifact"
        save(path, build())
        return path.read_bytes()
    return produce


def _catalog(tmp_path):
    return "".join(f"{name} {i} {render_term(entry.build(*instance))}\n"
                   for name, entry in CATALOG.items()
                   for i, instance in enumerate(entry.instances)).encode()


def _fot(name, types):
    return lambda: builtin_fot(name, *map(parse_type, types))


def _encoded(value, ty):
    return lambda: encode_value(parse_value(value, parse_type(ty)), parse_type(ty))


# elements other than 0..n-1, an arity-3 relation and an empty one
HAND_STRUCTURE = Structure(
    (3, 7, 10, 12), {"r": 3, "e": 1, "p": 2},
    {"r": frozenset({(3, 7, 10), (12, 3, 3), (7, 7, 12)}), "e": frozenset(),
     "p": frozenset({(10, 12), (3, 3), (12, 7)})})

STRUCTURES = {
    "[[a,b],[b]].lstruct": _encoded("[[a,b],[b]]", "({a,b}^*)^*"),
    "[inl a,inr b,inr c,inl a].lstruct":
        _encoded("[inl a,inr b,inr c,inl a]", "({a}+{b,c})^*"),
    "babba.lstruct": lambda: word_structure("babba"),
    "ab_example(babba).lstruct":
        lambda: apply_transduction(builtin_fot("ab_example"), word_structure("babba")),
    "coappend@{a,b}([a,b,b]).lstruct":
        lambda: apply_transduction(_fot("coappend", ["{a,b}"])(),
                                   _encoded("[a,b,b]", "{a,b}^*")()),
    "hand.lstruct": lambda: HAND_STRUCTURE,
}


def _nested_key(name):
    return f"{name}@{','.join(NESTED_FOT_CASES[name])}.lfot"


PRODUCERS = {
    "check-all-text": _check_all("text"),
    "check-all-json-lines": _check_all("json-lines"),
    "catalog-terms": _catalog,
    "t3.lmonoid": _saved(save_monoid, lambda: t_k_monoid(3)[0]),
    **{f"{name}.lfot": _saved(save_fot, _fot(name, types))
       for name, types in FOT_CASES.items()},
    **{_nested_key(name): _saved(save_fot, _fot(name, types))
       for name, types in NESTED_FOT_CASES.items()},
    **{f"{name}.lrational": _saved(save_rational, lambda r=r: r)
       for name, r in SAMPLE_RATIONALS.items()},
    **{f"{name}.lpipe": _saved(save_pipeline, lambda r=r: compile_rational(r))
       for name, r in SAMPLE_RATIONALS.items()},
    **{name: _saved(save_structure, build) for name, build in STRUCTURES.items()},
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_output_matches_its_golden_hash(tmp_path, name):
    data = PRODUCERS[name](tmp_path)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name,types", [*FOT_CASES.items(), *NESTED_FOT_CASES.items()],
                         ids=[*FOT_CASES, *map(_nested_key, NESTED_FOT_CASES)])
def test_builtin_formulas_round_trip_through_text(name, types):
    # equal saved text then means equal formulas, whichever way they were built
    t = builtin_fot(name, *map(parse_type, types))
    formulas = [*t.universe.values(),
                *(phi for _, table in t.relations.values() for phi in table.values())]
    assert formulas
    for phi in formulas:
        assert parse_formula(render_formula(phi)) == phi
