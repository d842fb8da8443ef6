"""Named example algebras and transducers shared by tests and the CLI."""
from __future__ import annotations

from .algebra import FiniteMonoid, Homomorphism
from .rational import RationalFn
from .registers import Lit, Reg, SSTSpec
from .terms import GroupSpec


def _table(elements, f):
    return {(a, b): f(a, b) for a in elements for b in elements}


def _tabulate(monoid, letters, block):
    """Context table: block(m, a, mr) for every prefix and suffix image."""
    return {(m, a, mr): block(m, a, mr) for m in monoid.elements
            for a in letters for mr in monoid.elements}


# U1: multiplicative {1, 0}; recognises "no b occurs" style properties.
U1 = FiniteMonoid(
    ("1", "0"),
    _table(("1", "0"), lambda a, b: "1" if a == b == "1" else "0"),
    "1")


def _contains_ab_product(x: str, y: str) -> str:
    if x == "1":
        return y
    if y == "1":
        return x
    if x == "ab" or y == "ab":
        return "ab"
    # remaining elements a, b, ba: the product sees ab iff the junction does
    joins = {("a", "a"): "a", ("a", "b"): "ab", ("a", "ba"): "ab",
             ("b", "a"): "ba", ("b", "b"): "b", ("b", "ba"): "ba",
             ("ba", "a"): "ba", ("ba", "b"): "ab", ("ba", "ba"): "ab"}
    return joins[(x, y)]


# Syntactic monoid of "contains the factor ab"; aperiodic with index 2.
CONTAINS_AB = FiniteMonoid(
    ("1", "a", "b", "ab", "ba"),
    _table(("1", "a", "b", "ab", "ba"), _contains_ab_product),
    "1")


def hom_u1_keep_a() -> Homomorphism:
    """a maps to 1, b to 0: the image is 1 exactly on words without b."""
    return Homomorphism(U1, {"a": "1", "b": "0"})


def hom_contains_ab() -> Homomorphism:
    return Homomorphism(CONTAINS_AB, {"a": "a", "b": "b"})


Z2 = GroupSpec(("0", "1"), (("0", "1"), ("1", "0")), "0")

Z3 = GroupSpec(
    ("0", "1", "2"),
    (("0", "1", "2"), ("1", "2", "0"), ("2", "0", "1")),
    "0")


# Keeps every b, and each a not preceded by any b.  keep_a("abab") = "abb".
R_KEEP_A = RationalFn(
    name="keep-a",
    input_letters=("a", "b"),
    output_letters=("a", "b"),
    monoid=U1,
    h={"a": "1", "b": "0"},
    out=_tabulate(U1, "ab", lambda m, a, mr:
                  (a,) if a == "b" or m == "1" else ()))


# Upper-cases every letter strictly after the first completed ab factor.
R_MARK_AFTER_AB = RationalFn(
    name="mark-after-ab",
    input_letters=("a", "b"),
    output_letters=("a", "b", "A", "B"),
    monoid=CONTAINS_AB,
    h={"a": "a", "b": "b"},
    out=_tabulate(CONTAINS_AB, "ab", lambda m, a, mr:
                  (a.upper(),) if m == "ab" else (a,)))


# Doubles the final b of the word: uses the suffix image, not the prefix.
R_DOUBLE_LAST_B = RationalFn(
    name="double-last-b",
    input_letters=("a", "b"),
    output_letters=("a", "b"),
    monoid=U1,
    h={"a": "1", "b": "0"},
    out=_tabulate(U1, "ab", lambda m, a, mr:
                  (a, a) if a == "b" and mr == "1" else (a,)))

SAMPLE_GROUPS: dict[str, GroupSpec] = {
    "z2": Z2,
    "z3": Z3,
}

SAMPLE_RATIONALS: dict[str, RationalFn] = {
    "keep-a": R_KEEP_A,
    "mark-after-ab": R_MARK_AFTER_AB,
    "double-last-b": R_DOUBLE_LAST_B,
}


def _loop_sst(name: str, update_for) -> SSTSpec:
    """One-state SST over {a,b} whose update depends on the letter only."""
    return SSTSpec(
        name=name,
        input_letters=("a", "b"),
        states=("q",),
        initial="q",
        registers=len(update_for("a")),
        transitions={("q", x): ("q", update_for(x)) for x in ("a", "b")})


# Appends each letter: the run reproduces the input word.
SST_IDENTITY = _loop_sst(
    "identity", lambda x: ((Reg(1), Lit((x,))),))

# Prepends each letter: the run reverses the input word.
SST_REVERSE = _loop_sst(
    "reverse", lambda x: ((Lit((x,)), Reg(1)),))

# Register 2 delays the current letter; register 1 holds all but the last.
SST_DROP_LAST = _loop_sst(
    "drop-last", lambda x: ((Reg(1), Reg(2)), (Lit((x,)),)))

SAMPLE_SSTS: dict[str, SSTSpec] = {
    "identity": SST_IDENTITY,
    "reverse": SST_REVERSE,
    "drop-last": SST_DROP_LAST,
}


def _constant_update_rational(name: str, letter_updates: dict[str, str]) -> RationalFn:
    return RationalFn(
        name=name,
        input_letters=tuple(letter_updates),
        output_letters=tuple(dict.fromkeys(letter_updates.values())),
        monoid=U1,
        h={a: "1" for a in letter_updates},
        out=_tabulate(U1, letter_updates,
                      lambda m, a, mr: (letter_updates[a],)))


# Streams of 1-register updates; multiplying them out and reading register 1
# yields the word unchanged, reversed, or empty respectively.
R_UPDATE_IDENTITY = _constant_update_rational(
    "update-identity",
    {"a": '1 := [$1, "a"]', "b": '1 := [$1, "b"]'})

R_UPDATE_REVERSE = _constant_update_rational(
    "update-reverse",
    {"a": '1 := ["a", $1]', "b": '1 := ["b", $1]'})

R_UPDATE_NOOP = _constant_update_rational(
    "update-noop",
    {"a": "1 := [$1]", "b": "1 := [$1]"})


# Two-register update stream computing the word without its final letter.
R_UPDATE_DROP_LAST = RationalFn(
    name="update-drop-last",
    input_letters=("a", "b"),
    output_letters=('1 := [$1, $2]; 2 := ["a"]', '1 := [$1, $2]; 2 := ["b"]'),
    monoid=U1,
    h={"a": "1", "b": "1"},
    out=_tabulate(U1, "ab",
                  lambda m, a, mr: (f'1 := [$1, $2]; 2 := ["{a}"]',)))

SAMPLE_UPDATE_RATIONALS: dict[str, tuple[RationalFn, int]] = {
    "update-identity": (R_UPDATE_IDENTITY, 1),
    "update-reverse": (R_UPDATE_REVERSE, 1),
    "update-noop": (R_UPDATE_NOOP, 1),
    "update-drop-last": (R_UPDATE_DROP_LAST, 2),
}
