"""Golden outputs: SHA-256s of CLI reports and saved files, byte for byte.

The hashes hold the program's visible output still while its insides change:
the seeded ``check all`` reports, the built-in transductions (also on nested
element types), catalog terms, sample rationals and pipelines as saved, and
T_3 as a monoid file.  A change that alters any of them on purpose updates the
hash here and says why.
"""
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from listfn.cli import main
from listfn.fileio import save_fot, save_monoid, save_pipeline, save_rational
from listfn.logic import builtin_fot, parse_formula, render_formula
from listfn.rational import compile_rational
from listfn.registers import t_k_monoid
from listfn.samples import SAMPLE_RATIONALS
from listfn.stdlib import CATALOG
from listfn.syntax import render_term
from listfn.types import parse_type

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
        "4e96ef43d889ffabe88d759a2bb8fc4962d890e57e14aa24f8e4831ff8892e71",
    "check-all-json-lines":
        "707d358f1f305e409a32ede30896284b207bbdaf182111410d6c869ec77a4c68",
    "catalog-terms":
        "c3513ab482746a861b62e2c23b45e8db622b0f2ea9f8958a0a46887a87585cc5",
    "t3.lmonoid":
        "49cca560e50c19c79410ec71e78d69f8fb6126cdd6da1a2995a4f1f9f37a2a78",
    "reverse.lfot":
        "a5a9290d6c3ff090b4859ba615ce69d19a1286a9e0533814e4d04f7832559214",
    "append.lfot":
        "372ee2cd7311ef328c3c39217e34caaae364853c943e6e22184978a12154c967",
    "coappend.lfot":
        "b5b1b6ab01d53367b8967eb51f9f1e742ebf2d3aa2d0e75b8782cc9d8b9becea",
    "flat.lfot":
        "5ebcd897a707f9b7c0345895ccd3716e9349527679d2d7c7bc1d6a7bb4ac30a7",
    "block.lfot":
        "d5199a75723a9a2aedc40c9f204934e912709e997973bf718f3777b15c597de3",
    "ab_example.lfot":
        "55ae454f233272214cdf74c7e1c55355d606b56be471a297d3938c9d9970b86f",
    "reverse@({a}+{b})^*.lfot":
        "8e12643c89b3a0c76f7d8f61f3862c840ab9c661f3791e57510628efafc0ae66",
    "append@{a}^*.lfot":
        "627953e65ea3417e903b0580a224b8007c3c1a55a1e504febceba7554d4d9ce4",
    "coappend@({a,b}^*)^*.lfot":
        "f0a207f50d1a4f4e55e007e59768a94fcbc2fd48b13492f340b83422505df682",
    "flat@{a}*{b}+{c}.lfot":
        "e6b1caf241d0ecd77bae4493b574e2c0044562b4d24944deb79a9cb309fcd496",
    "block@{a}^*,{b}*{c}.lfot":
        "2b055a4552b2c2bea8252d1b4ed92e2191e17608f05ff17536367b6d1c766f4f",
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
