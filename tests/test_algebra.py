"""Semigroups, homomorphisms, and bounded-depth factorisation trees."""
import hashlib
import random
import re
import sys

import pytest

from helpers import LOOP_ROWS, Z2, cubic_associativity_failure, generated
from listfn.algebra import (
    AlgebraError,
    FiniteMonoid,
    FiniteSemigroup,
    Homomorphism,
    Leaf,
    Node,
    NotAperiodicError,
    build_factorisation,
    forest_depth_bound,
    tree_depth,
    tree_yield,
    validate_factorisation,
    _closure,
    _generators,
)
from listfn.registers import (abstraction, abstraction_name, random_update,
                              t_k_monoid)
from listfn.samples import U1, CONTAINS_AB, hom_contains_ab, hom_u1_keep_a


def random_words(rng, count, max_len, letters="ab"):
    for _ in range(count):
        n = rng.randrange(0, max_len + 1)
        yield "".join(rng.choice(letters) for _ in range(n))


def test_semigroup_rejects_non_associative_table():
    with pytest.raises(ValueError):
        FiniteSemigroup(("x", "y"), {
            ("x", "x"): "y", ("x", "y"): "x",
            ("y", "x"): "x", ("y", "y"): "x"})
    with pytest.raises(ValueError):
        FiniteMonoid(("x", "y"), {
            ("x", "x"): "x", ("x", "y"): "x",
            ("y", "x"): "y", ("y", "y"): "y"}, "x")  # x not an identity


def test_semigroup_rejects_a_table_with_products_of_non_elements():
    mult = {(a, b): "0" if "0" in (a, b) else "1" for a in "01" for b in "01"}
    FiniteMonoid(("0", "1"), mult, "1")
    with pytest.raises(AlgebraError, match="^product zz·1 of a non-element in the table$"):
        FiniteMonoid(("0", "1"), {**mult, ("zz", "1"): "0"}, "1")


def _light_failure(table: list[list[int]]):
    """The triple the library's check reports for ``table``, or None."""
    els = tuple(f"x{i}" for i in range(len(table)))
    mult = {(a, b): els[c] for a, row in zip(els, table) for b, c in zip(els, row)}
    try:
        FiniteSemigroup(els, mult)
    except ValueError as e:
        found = re.fullmatch(r"associativity fails at \(x(\d+),x(\d+),x(\d+)\)",
                             str(e))
        assert found, e
        return tuple(map(int, found.groups()))
    return None


def _assert_agrees_with_the_oracle(table: list[list[int]]) -> bool:
    """Check the verdict against the cubic oracle; return True if accepted."""
    gens = _generators(table)
    assert generated(table, gens) == set(range(len(table)))
    light = _light_failure(table)
    assert (light is None) == (cubic_associativity_failure(table) is None)
    if light is not None:
        i, g, k = light
        assert g in gens
        assert table[table[i][g]][k] != table[i][table[g][k]]
    return light is None


def _int_table(rows) -> list[list[int]]:
    index = {e: i for i, e in enumerate(rows[0])}
    return [[index[x] for x in row] for row in rows]


# elements a, z, 0: every product is 0 except a·z = a, so (a·z)·z = a but
# a·(z·z) = 0; associativity fails at the middle z only, the last generator
LAST_GENERATOR_ONLY = [[2, 0, 2], [2, 2, 2], [2, 2, 2]]

NAMED_TABLES = {
    "U1": lambda: U1.table,
    "contains-ab": lambda: CONTAINS_AB.table,
    **{f"T_{k}": (lambda k=k: t_k_monoid(k)[0].table) for k in (1, 2, 3, 4)},
    "loop": lambda: _int_table(LOOP_ROWS),
    "last-generator-only": lambda: LAST_GENERATOR_ONLY,
}


@pytest.mark.parametrize("name", list(NAMED_TABLES))
def test_associativity_check_agrees_with_the_cubic_oracle(name):
    table = NAMED_TABLES[name]()
    rejected = name in ("loop", "last-generator-only")
    assert _assert_agrees_with_the_oracle(table) is not rejected
    if name == "last-generator-only":
        assert _generators(table) == [0, 1]


def _changed(table: list[list[int]], rng, count: int) -> list[list[int]]:
    """A copy of ``table`` with ``count`` entries changed to other elements."""
    out = [row[:] for row in table]
    n = len(out)
    for i, j in rng.sample([(i, j) for i in range(n) for j in range(n)], count):
        out[i][j] = rng.choice([c for c in range(n) if c != out[i][j]])
    return out


@pytest.mark.parametrize("k", [2, 3])
def test_associativity_check_agrees_on_tables_with_changed_entries(k):
    table = t_k_monoid(k)[0].table
    rng = random.Random(f"changed-T_{k}")
    accepted = sum(
        _assert_agrees_with_the_oracle(_changed(table, rng, rng.randint(1, 3)))
        for _ in range(300))
    assert accepted < 100  # most changed tables are not associative


def test_t4_with_one_changed_entry_is_rejected():
    m = t_k_monoid(4)[0]
    others = [x for x in range(len(m)) if m.elements[x] != m.identity]
    rng = random.Random("changed-T_4")
    for _ in range(10):  # one entry outside the identity's row and column
        i, j = rng.choice(others), rng.choice(others)
        table = [row[:] for row in m.table]
        table[i][j] = rng.choice([c for c in range(len(m)) if c != table[i][j]])
        assert not _assert_agrees_with_the_oracle(table)


def test_sample_monoids_are_aperiodic():
    assert U1.aperiodicity is not None
    assert CONTAINS_AB.aperiodicity is not None
    assert U1.aperiodicity >= 1
    n = CONTAINS_AB.aperiodicity
    for m in CONTAINS_AB.elements:
        assert CONTAINS_AB.product([m] * n) == CONTAINS_AB.product([m] * (n + 1))


def test_groups_are_not_aperiodic():
    assert Z2.aperiodicity is None
    h = Homomorphism(Z2, {"a": "1", "b": "0"})
    with pytest.raises(NotAperiodicError):
        build_factorisation(h, "ab")


def test_homomorphism_image_folds_letters():
    h = hom_contains_ab()
    assert h.image("") == CONTAINS_AB.identity
    assert h.image("ab") == CONTAINS_AB.mult(h.image("a"), h.image("b"))
    rng = random.Random(3)
    for w in random_words(rng, 100, 40):
        acc = CONTAINS_AB.identity
        for c in w:
            acc = CONTAINS_AB.mult(acc, h.image(c))
        assert h.image(w) == acc


@pytest.mark.parametrize("make_hom", [hom_u1_keep_a, hom_contains_ab],
                         ids=["u1", "contains-ab"])
def test_factorisation_is_valid_and_bounded(make_hom):
    h = make_hom()
    bound = forest_depth_bound(h.target, 2)
    rng = random.Random(17)
    for w in random_words(rng, 200, 120):
        if not w:
            continue
        t = build_factorisation(h, w)
        assert validate_factorisation(h, t)
        assert "".join(tree_yield(t)) == w
        assert tree_depth(t) <= bound


def test_forest_depth_bound_closed_form():
    assert forest_depth_bound(U1, 2) == 6
    assert forest_depth_bound(CONTAINS_AB, 2) == 66
    t_2, t_3 = t_k_monoid(2)[0], t_k_monoid(3)[0]
    assert (len(t_2), len(t_3)) == (8, 38)
    assert forest_depth_bound(t_2, 8) == 54798
    # T_3 at the default recursion limit: the bound takes no deep recursion
    assert sys.getrecursionlimit() <= 1000
    assert (forest_depth_bound(t_3, 38)
            == 149655039677110341005845709760671787704080278)


def _fresh_copy(m: FiniteMonoid) -> FiniteMonoid:
    els = m.elements
    return FiniteMonoid(els, {(a, b): m.mult(a, b) for a in els for b in els},
                        m.identity)


@pytest.mark.parametrize("name", ["contains-ab", "T_2", "T_3", "T_4"])
def test_memoised_builder_matches_a_cold_one(name):
    m = CONTAINS_AB if name == "contains-ab" else t_k_monoid(int(name[2:]))[0]
    h = Homomorphism(m, {e: e for e in m.elements})
    rng = random.Random(f"memo-{name}")

    def word(n):
        alphabet = rng.sample(m.elements, min(len(m), rng.randint(2, 6)))
        return [rng.choice(alphabet) for _ in range(n)]

    for _ in range(30):  # fill the split memo from other words first
        build_factorisation(h, word(200))
    for n in (1, 2, 3, 8, 40, 250, 1000):
        w = word(n)
        tree = build_factorisation(h, w)
        cold = _fresh_copy(m)
        assert tree == build_factorisation(
            Homomorphism(cold, {e: e for e in cold.elements}), w)
        assert validate_factorisation(h, tree)
        assert tree_yield(tree) == w
        assert tree_depth(tree) <= forest_depth_bound(m, len(set(w)))


def test_factorisation_rejects_empty_word():
    with pytest.raises(ValueError):
        build_factorisation(hom_u1_keep_a(), "")


def test_factorisation_rejects_letters_outside_the_semigroup():
    with pytest.raises(ValueError, match="not an element"):
        build_factorisation(Homomorphism(CONTAINS_AB, {"a": "zz"}), "a")


@pytest.mark.parametrize("use", [
    lambda h: build_factorisation(h, "abc"), lambda h: h.image("abc"), lambda h: h("c"),
], ids=["build_factorisation", "image", "call"])
def test_a_letter_without_an_image_is_an_algebra_error(use):
    with pytest.raises(AlgebraError, match="letter 'c' has no image"):
        use(hom_u1_keep_a())


@pytest.mark.parametrize("style", ["dict", "callable"])
def test_each_letter_is_mapped_once_and_still_checked(style):
    """Each distinct letter's leaf is built once per word.  A letter mapped
    outside the semigroup is refused even after valid letters and when it
    repeats, and long words with repeated letters still give valid trees."""
    images = {"a": "a", "b": "b", "c": "zz"}
    calls = []

    def image(letter):
        calls.append(letter)
        return images[letter]

    h = Homomorphism(CONTAINS_AB, images if style == "dict" else image)
    for bad in ("ab" * 40 + "c", "ba" * 40 + "c" + "ab" + "cc"):
        with pytest.raises(ValueError, match="'c' maps to 'zz', not an element"):
            build_factorisation(h, bad)
    rng = random.Random(37)
    for n in (2, 7, 300, 3000):
        w = [rng.choice("ab") for _ in range(n)]
        calls.clear()
        tree = build_factorisation(h, w)
        if style == "callable":
            assert sorted(calls) == sorted(set(w))
        assert validate_factorisation(h, tree)
        assert tree_yield(tree) == w


def test_register_updates_repeated_in_a_long_word_give_valid_trees():
    """The registers style: letters are k-register updates, mapped by a
    callable to their abstractions in T_k, drawn from a few updates."""
    rng = random.Random(53)
    for k in (2, 3):
        t_k, _ = t_k_monoid(k)
        h = Homomorphism(t_k, lambda eta: abstraction_name(abstraction(eta)))
        pool = [random_update(k, rng) for _ in range(6)]
        for n in (5, 400, 2000):
            w = [rng.choice(pool) for _ in range(n)]
            tree = build_factorisation(h, w)
            assert validate_factorisation(h, tree)
            assert tree_yield(tree) == w


def test_validator_rejects_wrong_labels_and_unequal_runs():
    h = hom_contains_ab()
    good = build_factorisation(h, "abab")
    assert validate_factorisation(h, good)
    bad_label = Node("ba", (Leaf("a"), Leaf("b")))
    res = validate_factorisation(h, bad_label)
    assert not res
    assert res.message
    # wide nodes need all children mapped to one idempotent
    bad_wide = Node("ab", (Leaf("a"), Leaf("b"), Leaf("a")))
    assert not validate_factorisation(h, bad_wide)
    # a wide node over leaf parents whose labels multiply out but differ
    parents = tuple(Node(h(c), (Leaf(c),)) for c in "aba")
    res = validate_factorisation(h, Node(h.target.product([p.label for p in parents]), parents))
    assert not res
    assert "unequal child labels" in res.message


_A, _B = (Node(x, (Leaf(x),)) for x in "ab")  # leaf parents under hom_contains_ab


@pytest.mark.parametrize("tree,message", [
    (Leaf("a"), "a leaf appears without its unary parent"),
    (Node("a", ()), "node without children"),
    (Node("ab", (Leaf("a"), Leaf("b"))), "a leaf has siblings"),
    (Node("b", (Leaf("a"),)), "leaf parent labelled b, letter maps to a"),
    (Node("a", (_A,)), "unary node above non-leaves"),
    (Node("ba", (_A, _B)), "label ba differs from the product of child labels"),
    (Node("ab", (_A, _B, _A)), "node of degree three or more with unequal child labels"),
    (Node("ab", (Node("a", (Leaf("b"),)), _B)), "leaf parent labelled a, letter maps to b"),
], ids=["bare-leaf", "childless", "leaf-siblings", "leaf-label", "unary",
        "product-label", "unequal-run", "below-the-root"])
def test_validator_names_each_rule_a_tree_breaks(tree, message):
    result = validate_factorisation(hom_contains_ab(), tree)
    assert (result.ok, result.message) == (False, message)


def test_forest_evaluation_matches_direct_image():
    for make_hom in (hom_u1_keep_a, hom_contains_ab):
        h = make_hom()
        rng = random.Random(23)
        for w in filter(None, random_words(rng, 150, 200)):
            assert build_factorisation(h, w).label == h.image(w)


def test_depth_does_not_grow_with_length():
    for make_hom in (hom_u1_keep_a, hom_contains_ab):
        h = make_hom()
        rng = random.Random(29)
        def max_depth(length):
            return max(
                tree_depth(build_factorisation(
                    h, "".join(rng.choice("ab") for _ in range(length))))
                for _ in range(60))
        assert max_depth(30) == max_depth(300)


def test_tree_depth_needs_no_stack_per_level():
    """A chain of 5,000 nodes, deeper than the default recursion limit."""
    leaf_parent = Node("e", (Leaf("a"),))
    assert tree_depth(Node("e", (leaf_parent, Node("e", (leaf_parent,))))) == 3
    t = leaf_parent
    for _ in range(4999):
        t = Node("e", (t,))
    assert sys.getrecursionlimit() < 5000
    assert tree_depth(t) == 5000


class _Chain(FiniteMonoid):
    """x·y = max(x, y) on n elements, its table set directly: Light's test
    would take every element as a generator, n³ steps in all."""

    def __init__(self, n: int) -> None:
        super().__init__([f"l{i}" for i in range(n)], {}, "l0")

    def _check_table(self, mult):
        n = len(self.elements)
        return [[max(i, j) for j in range(n)] for i in range(n)]


def _tree_corpus():
    """Words of up to 1000 letters over U1, contains-ab and T_2..T_4; random
    and descending words over the 400-element chain, whose element numbers
    pass 255; and T_4 words over element numbers 10, 45, 92, 93 and 94, the
    characters newline, -, \\, ] and ^."""
    rng = random.Random("tree-corpus")
    monoids = [U1, CONTAINS_AB] + [t_k_monoid(k)[0] for k in (2, 3, 4)]
    for m in monoids:
        for n in (1, 2, 3, 8, 40, 250, 1000):
            for size in (2, 3, 6, len(m)):
                alphabet = rng.sample(m.elements, min(len(m), size))
                yield m, [rng.choice(alphabet) for _ in range(n)]
    t_4 = monoids[-1]
    odd = [t_4.elements[i] for i in (10, 45, 92, 93, 94)]
    for n in (2, 40, 1000):
        yield t_4, [rng.choice(odd) for _ in range(n)]
        yield t_4, [rng.choice(odd + rng.sample(t_4.elements, 3)) for _ in range(n)]
    chain = _Chain(400)
    for n in (8, 250, 1000):
        for size in (3, 20, 400):
            alphabet = rng.sample(chain.elements, size)
            yield chain, [rng.choice(alphabet) for _ in range(n)]
    yield chain, list(reversed(chain.elements))


# SHA-256 of the trees' reprs over _tree_corpus, as the builder gave them
# before it kept its labels as a string.
TREE_CORPUS_SHA256 = "656b26feb5d1cede8de46a798f457573a5652470d16126b8784b6331e6a8a316"


def test_trees_of_a_fixed_corpus_do_not_change():
    digest = hashlib.sha256()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # repr takes frames per level of a 400-deep tree
    try:
        for m, w in _tree_corpus():
            tree = build_factorisation(Homomorphism(m, {e: e for e in m.elements}), w)
            digest.update(repr(tree).encode())
    finally:
        sys.setrecursionlimit(limit)
    assert digest.hexdigest() == TREE_CORPUS_SHA256


@pytest.mark.parametrize("k", [2, 3])
def test_a_split_by_a_left_ideal_is_over_a_left_zero_band(k):
    # _split_choice takes the first generator's left ideal only when no right
    # ideal is strict; its docstring proves the closure then a left-zero band
    m = t_k_monoid(k)[0]
    h = Homomorphism(m, {e: e for e in m.elements})
    rng = random.Random(f"left-zero-T_{k}")
    for _ in range(200):
        alphabet = rng.sample(m.elements, rng.randint(2, 4))
        build_factorisation(h, [rng.choice(alphabet) for _ in range(rng.randint(2, 30))])
    lefts = [key for key, (_, right) in m._splits.items() if not right]
    assert lefts  # the branch is reached
    for key in lefts:
        closure = _closure(m.table, [ord(c) for c in key])
        assert all(m.table[x][y] == x for x in closure for y in closure)
        assert m._splits[key] == (ord(key[0]), False)


@pytest.mark.parametrize("call,message", [
    (lambda: FiniteSemigroup((), {}), "elements must be distinct and nonempty"),
    (lambda: FiniteSemigroup(("a", "a"), {("a", "a"): "a"}),
     "elements must be distinct and nonempty"),
    (lambda: FiniteMonoid(("a",), {("a", "a"): "a"}, "1"), "identity not among the elements"),
], ids=["empty", "repeated", "identity"])
def test_semigroups_refuse_bad_elements_with_algebra_errors(call, message):
    with pytest.raises(AlgebraError) as err:
        call()
    assert str(err.value).startswith(message)
