"""Letterwise rational functions and their compiled pipelines."""
import dataclasses
import itertools
import random

import pytest

from listfn import rational
from listfn.algebra import (AlgebraError, Leaf, Node, NotAperiodicError, build_factorisation,
                            tree_depth)
from listfn.rational import (
    DEAD,
    RationalFn,
    classify_positions,
    compile_rational,
    eval_pipeline,
    eval_rational_direct,
    output_table,
    triple_alphabet,
    triple_name,
    triple_symbols,
)
from listfn.registers import t_k_monoid
from listfn.samples import SAMPLE_RATIONALS, Z2
from listfn.terms import eval_term
from listfn.types import ListV, Sym, TypeMismatch

NAMES = sorted(SAMPLE_RATIONALS)


def all_words(letters, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            yield "".join(tup)


def test_direct_evaluator_point_values():
    keep_a = SAMPLE_RATIONALS["keep-a"]
    assert eval_rational_direct(keep_a, "abab") == ("a", "b", "b")
    assert eval_rational_direct(keep_a, "") == ()
    mark = SAMPLE_RATIONALS["mark-after-ab"]
    assert eval_rational_direct(mark, "abab") == ("a", "b", "A", "B")
    dbl = SAMPLE_RATIONALS["double-last-b"]
    assert eval_rational_direct(dbl, "abab") == ("a", "b", "a", "b", "b")
    assert eval_rational_direct(dbl, "b") == ("b", "b")


@pytest.mark.parametrize("name", NAMES)
def test_pipeline_matches_direct_exhaustively(name):
    r = SAMPLE_RATIONALS[name]
    p = compile_rational(r)
    for w in all_words(r.input_letters, 7):
        assert eval_pipeline(p, w) == eval_rational_direct(r, w), w


@pytest.mark.parametrize("name", NAMES)
def test_pipeline_matches_direct_on_random_words(name):
    r = SAMPLE_RATIONALS[name]
    p = compile_rational(r)
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(0, 80)
        w = "".join(rng.choice(r.input_letters) for _ in range(n))
        assert eval_pipeline(p, w) == eval_rational_direct(r, w)


def test_empty_word_maps_to_empty_word():
    for name in NAMES:
        r = SAMPLE_RATIONALS[name]
        assert eval_rational_direct(r, "") == ()
        assert eval_pipeline(compile_rational(r), "") == ()


@pytest.mark.parametrize("context,message", [
    (("1", "a", "zz"), r"context \(1,zz\) unknown"),
    (("zz", "a", "1"), r"context \(zz,1\) unknown"),
    (("1", "c", "1"), "letter c not in the input"),
], ids=["right", "left", "letter"])
def test_rational_fn_refuses_an_unknown_context(context, message):
    keep_a = SAMPLE_RATIONALS["keep-a"]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(keep_a, out={**keep_a.out, context: ("a",)})


@pytest.mark.parametrize("field", ["input_letters", "output_letters"])
def test_rational_fn_refuses_repeated_letters(field):
    keep_a = SAMPLE_RATIONALS["keep-a"]
    side = field.split("_")[0]
    with pytest.raises(AlgebraError, match=f"keep-a: {side} letters must be distinct"):
        dataclasses.replace(keep_a, **{field: ("a", "a", "b")})


def test_rational_fn_refuses_an_image_for_a_letter_outside_its_input():
    """Else the pipeline's classify stage meets a letter its table lacks."""
    keep_a = SAMPLE_RATIONALS["keep-a"]
    with pytest.raises(AlgebraError, match="^keep-a: image for letter c, not in the input$"):
        dataclasses.replace(keep_a, h={**keep_a.h, "c": "0"})


def test_a_letter_outside_the_input_is_a_library_error():
    keep_a = SAMPLE_RATIONALS["keep-a"]
    with pytest.raises(TypeMismatch, match="keep-a: letter 'c' not in the input"):
        eval_rational_direct(keep_a, "abc")
    with pytest.raises(AlgebraError, match="letter 'c' has no image"):
        eval_pipeline(compile_rational(keep_a), "abc")


def test_output_table_covers_every_context():
    r = SAMPLE_RATIONALS["keep-a"]
    table = output_table(r)
    assert table[DEAD] == ()
    for m in r.monoid.elements:
        for a in r.input_letters:
            for mr in r.monoid.elements:
                assert triple_name(m, a, mr) in table
    assert set(table) == set(triple_alphabet(r).names)


def test_compile_honours_a_supplied_table():
    r = SAMPLE_RATIONALS["keep-a"]
    table = output_table(r)
    # the triple that fires on the first letter of "abab"
    suffix = r.monoid.identity
    for c in "bab":
        suffix = r.monoid.mult(suffix, r.h[c])
    live = triple_name(r.monoid.identity, "a", suffix)
    assert table[live] == ("a",)
    tampered = dict(table)
    tampered[live] = ("b",)
    p = compile_rational(r, table=tampered)
    assert eval_pipeline(p, "abab") != eval_rational_direct(r, "abab")
    assert eval_pipeline(p, "abab") == ("b", "b", "b")


def test_pipeline_reports_its_stage_bound():
    for name in NAMES:
        p = compile_rational(SAMPLE_RATIONALS[name])
        assert p.bound >= 1
        assert p.stages


def _t2_contexts():
    """One letter per element of T_2; each position emits the element
    numbers of its (prefix image, suffix image) pair."""
    m = t_k_monoid(2)[0]
    h = {f"x{i}": e for i, e in enumerate(m.elements)}
    pair = {(p, s): f"{m.index[p]}/{m.index[s]}"
            for p in m.elements for s in m.elements}
    out = {(p, a, s): (pair[p, s],)
           for p in m.elements for a in h for s in m.elements}
    return RationalFn("t2-contexts", tuple(h), tuple(pair.values()), m, h, out)


def test_right_contexts_in_a_non_commutative_monoid():
    """T_2 is not commutative, so a prefix or suffix image multiplied in the
    wrong order names the wrong pair.  Long runs of a non-idempotent letter
    make wide nodes whose children share a label that is not idempotent."""
    r = _t2_contexts()
    m, p = r.monoid, compile_rational(r)
    letters = list(r.input_letters)
    rng = random.Random(13)
    words = [[rng.choice(letters) for _ in range(rng.randrange(1, 1001))]
             for _ in range(120)]
    runs = [a for a in letters if m.mult(r.h[a], r.h[a]) != r.h[a]]
    assert runs
    wide = False
    for a in runs:
        for n in (3, 4, 7, 50, 400):
            for _ in range(4):
                w = ([rng.choice(letters) for _ in range(rng.randrange(3))]
                     + [a] * n
                     + [rng.choice(letters) for _ in range(rng.randrange(3))])
                words.append(w)
                wide = wide or _has_wide_node_of_a_non_idempotent(
                    m, build_factorisation(r.hom(), w))
    assert wide
    for w in words:
        assert eval_pipeline(p, w) == eval_rational_direct(r, w), w


def _has_wide_node_of_a_non_idempotent(m, t):
    work = [t]
    while work:
        node = work.pop()
        if isinstance(node, Node):
            label = node.children[0].label if len(node.children) >= 3 else None
            if label is not None and m.mult(label, label) != label:
                return True
            work.extend(node.children)
    return False


def _leaf_depths(t, depth=0):
    if isinstance(t, Leaf):
        return [depth]
    return [d for c in t.children for d in _leaf_depths(c, depth + 1)]


@pytest.mark.parametrize("name", NAMES)
def test_the_pipeline_runs_forest_ancestors_classify_table(name, monkeypatch):
    """Four stages by these names: forest gives a factorisation tree, classify
    a list of triple symbols that the table stage reads, DEAD among them for
    a position with more ancestors than the bound."""
    r = SAMPLE_RATIONALS[name]
    w = (r.input_letters * 5)[:9]
    p = compile_rational(r)
    assert [s.name for s in p.stages] == ["forest", "ancestors", "classify", "table"]
    assert [s.kind for s in p.stages] == ["opaque"] * 3 + ["term"]
    forest, ancestors, classify, table = p.stages
    tree = forest.run(w)
    assert isinstance(tree, Node) and tree.children
    classes = classify.run(ancestors.run(tree))
    assert isinstance(classes, ListV) and len(classes.items) == len(w)
    assert {s.name for s in classes.items} <= set(triple_alphabet(r).names) - {DEAD}
    assert table.run(classes) == eval_term(table.term, classes)
    monkeypatch.setattr(rational, "forest_depth_bound", lambda m, gens: 0)
    cut = compile_rational(r).stages[2].run(ancestors.run(tree))
    assert isinstance(cut, ListV) and cut.items == (Sym(DEAD),) * len(w)
    assert DEAD in triple_alphabet(r).names


@pytest.mark.parametrize("name", NAMES)
def test_stages_by_hand_count_ancestors_and_go_dead_above_the_bound(name):
    """The ancestors stage gives each position its leaf's depth in the forest
    and the element numbers of its prefix and suffix images.  Classified with
    the bound at the forest's depth, no position is dead and the table gives
    the direct output; one below it, exactly the positions whose leaf sits at
    that depth are dead, and they emit nothing."""
    r = SAMPLE_RATIONALS[name]
    m = r.monoid
    forest, ancestors, _, table = compile_rational(r).stages
    syms = triple_symbols(r)

    def blocks(classes):
        return [eval_term(table.term, ListV((s,))).items for s in classes.items]

    assert blocks(ListV((Sym(DEAD),))) == [()]
    rng = random.Random(43)
    mixed = False
    for n in (1, 2, 3, 5, 8, 40, 700):
        w = [rng.choice(r.input_letters) for _ in range(n)]
        tree = forest.run(w)
        ann = ancestors.run(tree)
        depths = _leaf_depths(tree)
        assert [(a, count) for a, count, _, _ in ann] == list(zip(w, depths))
        prefix = m.identity
        for a, _, left, _ in ann:
            assert m.elements[left] == prefix
            prefix = m.mult(prefix, r.h[a])
        suffix = m.identity
        for a, _, _, right in reversed(ann):
            assert m.elements[right] == suffix
            suffix = m.mult(r.h[a], suffix)

        depth = tree_depth(tree)
        full = classify_positions(syms, depth, ann)
        assert all(s.name != DEAD for s in full.items)
        assert eval_term(table.term, full) == ListV(tuple(
            Sym(g) for g in eval_rational_direct(r, w)))
        cut = classify_positions(syms, depth - 1, ann)
        dead = [d == depth for d in depths]
        assert [s.name == DEAD for s in cut.items] == dead
        live = [b for b, gone in zip(blocks(full), dead) if not gone]
        assert eval_term(table.term, cut).items == sum(live, ())
        mixed = mixed or not all(dead)
    assert mixed


@pytest.mark.parametrize("change,error,message", [
    (dict(monoid=Z2), NotAperiodicError, "keep-a: monoid is not aperiodic"),
    (dict(h={"b": "1"}), AlgebraError, "keep-a: no image for letter a"),
], ids=["not-aperiodic", "no-image"])
def test_rational_functions_refuse_a_bad_monoid_or_image(change, error, message):
    with pytest.raises(error) as err:
        dataclasses.replace(SAMPLE_RATIONALS["keep-a"], **change)
    assert str(err.value).startswith(message)
