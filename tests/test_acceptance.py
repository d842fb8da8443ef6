"""Headline guarantees of the package, each with an explicit time budget.

Every test here pits an implementation against an independent oracle or a
frozen expected value and must finish inside its stated budget, so the suite
doubles as a performance envelope.
"""
import functools
import gc
import itertools
import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    AB,
    ABC,
    BASICS,
    CD,
    DE,
    DEEP_MIX_TYPE,
    HASH,
    mixed_list,
    sym_list,
)
from listfn.algebra import (
    build_factorisation,
    forest_depth_bound,
    tree_depth,
    tree_yield,
    validate_factorisation,
)
from listfn.fileio import load_structure, save_structure
from listfn.logic import (
    apply_transduction,
    builtin_fot,
    builtin_term,
    check_commutes,
    decode_structure,
    encode_value,
)
from listfn.rational import compile_rational, eval_pipeline, eval_rational_direct
from listfn.registers import (
    homogeneous_product,
    normalise,
    product_list_updates,
    random_abstraction,
    random_update,
    random_update_like,
    run_sst_naive,
    run_sst_structured,
    update_product,
    apply_update,
)
from listfn.samples import (
    SAMPLE_GROUPS,
    SAMPLE_RATIONALS,
    SAMPLE_SSTS,
    hom_contains_ab,
    hom_u1_keep_a,
)
from listfn.stdlib import CATALOG, comma, filter_left, len_upto, list_to_pair
from listfn.terms import (
    Block,
    Flat,
    PrefixGroupMult,
    Reverse,
    eval_term,
    infer_type,
    is_first_order,
)
from listfn.types import (
    FinSet,
    InL,
    InR,
    List,
    ListV,
    PairV,
    Sum,
    Sym,
    enumerate_values,
    parse_value,
    random_value,
    render_value,
)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds:.0f}s"


def test_block_and_flat_point_values():
    block = Block(AB, CD)
    block_in = mixed_list("abcdadabcd", "ab")
    block_out = ListV((
        InL(sym_list("ab")), InR(sym_list("cd")), InL(sym_list("a")),
        InR(sym_list("d")), InL(sym_list("ab")), InR(sym_list("cd"))))
    flat = Flat(AB)
    flat_in = ListV((sym_list("ab"), sym_list("c")))
    assert eval_term(block, block_in) == block_out
    assert eval_term(flat, flat_in) == sym_list("abc")
    # steady-state cost of either call stays under a millisecond
    for term, arg in ((block, block_in), (flat, flat_in)):
        timings = []
        for _ in range(20):
            start = time.perf_counter()
            eval_term(term, arg)
            timings.append(time.perf_counter() - start)
        assert min(timings) < 0.001, f"{min(timings) * 1000:.2f} ms"


def test_worked_examples_match_their_displays():
    assert eval_term(len_upto(2, AB), sym_list("aba")) == Sym("2")

    fil = filter_left(ABC, DE)
    assert eval_term(fil, mixed_list("acdebeda", "abc")) == sym_list("acba")

    com = comma(ABC, HASH)
    expected = ListV(tuple(
        sym_list(w) for w in ["ab", "c", "", "a", "", "", "bc", ""]))
    assert eval_term(com, mixed_list("ab#c##a###bc#", "abc")) == expected

    l2p = list_to_pair(AB, Sym("a"))
    assert eval_term(l2p, sym_list("")) == PairV(Sym("a"), Sym("a"))
    assert eval_term(l2p, sym_list("b")) == PairV(Sym("b"), Sym("a"))
    assert eval_term(l2p, sym_list("bab")) == PairV(Sym("b"), Sym("a"))


def test_evaluator_agrees_with_definitional_oracles():
    with budget(60):
        cases = [(label, term, oracle) for label, term, oracle in BASICS]
        for name, entry in CATALOG.items():
            for idx, args in enumerate(entry.instances):
                cases.append((f"{name}-{idx}", entry.build(*args),
                              entry.oracle(*args)))
        rng = random.Random(2024)
        for label, term, oracle in cases:
            dom, _ = infer_type(term)
            for v in enumerate_values(dom, 8):
                assert eval_term(term, v) == oracle(v), label
            for _ in range(1000):
                v = random_value(dom, 40, rng)
                assert eval_term(term, v) == oracle(v), label


def test_forest_depth_is_independent_of_word_length():
    with budget(30):
        for make_hom in (hom_u1_keep_a, hom_contains_ab):
            h = make_hom()
            bound = forest_depth_bound(h.target, 2)
            rng = random.Random(404)

            def sample(length):
                depths = []
                for _ in range(125):
                    w = "".join(rng.choice("ab") for _ in range(length))
                    t = build_factorisation(h, w)
                    assert validate_factorisation(h, t)
                    assert "".join(tree_yield(t)) == w
                    assert tree_depth(t) <= bound
                    depths.append(tree_depth(t))
                return depths

            for _ in range(250):
                n = rng.randrange(1, 301)
                w = "".join(rng.choice("ab") for _ in range(n))
                t = build_factorisation(h, w)
                assert validate_factorisation(h, t)
                assert "".join(tree_yield(t)) == w
                assert tree_depth(t) <= bound
                assert build_factorisation(h, w).label == h.image(w)
            assert max(sample(30)) == max(sample(300))


def test_compiled_pipelines_match_direct_evaluation():
    with budget(120):
        keep_a = SAMPLE_RATIONALS["keep-a"]
        assert eval_rational_direct(keep_a, "abab") == ("a", "b", "b")
        for name, r in sorted(SAMPLE_RATIONALS.items()):
            p = compile_rational(r)
            assert eval_pipeline(p, "") == ()
            assert eval_rational_direct(r, "") == ()
            for n in range(0, 11):
                for tup in itertools.product(r.input_letters, repeat=n):
                    w = "".join(tup)
                    assert eval_pipeline(p, w) == \
                        eval_rational_direct(r, w), (name, w)
            rng = random.Random(808)
            for i in range(1000):
                n = rng.randrange(0, 201)
                w = "".join(rng.choice(r.input_letters) for _ in range(n))
                assert eval_pipeline(p, w) == eval_rational_direct(r, w), name


def test_register_products_match_left_folds():
    with budget(60):
        rng = random.Random(99)
        for _ in range(1000):
            k = rng.randrange(1, 5)
            e1, e2 = random_update(k, rng), random_update(k, rng)
            v = tuple(
                tuple(rng.choice("ab") for _ in range(rng.randrange(0, 5)))
                for _ in range(k))
            assert apply_update(apply_update(v, e1), e2) == \
                apply_update(v, update_product(e1, e2))
        from listfn.registers import abstraction
        for _ in range(1000):
            k = rng.randrange(1, 5)
            e1, e2 = random_update(k, rng), random_update(k, rng)
            lhs = abstraction(update_product(e1, e2))
            rhs = abstraction(normalise(
                update_product(abstraction(e1), abstraction(e2))))
            assert lhs == rhs
        for _ in range(500):
            k = rng.randrange(1, 5)
            tau = random_abstraction(k, rng)
            etas = [random_update_like(tau, rng)
                    for _ in range(rng.randrange(1, 201))]
            fold = normalise(functools.reduce(update_product, etas))
            assert homogeneous_product(etas, tau=tau) == fold
        for _ in range(500):
            k = rng.randrange(1, 5)
            etas = [random_update(k, rng)
                    for _ in range(rng.randrange(1, 201))]
            fold = normalise(functools.reduce(update_product, etas))
            assert product_list_updates(etas, k=k) == fold


def test_sst_structured_run_matches_naive_run():
    with budget(30):
        rng = random.Random(55)
        for name in ("identity", "reverse", "drop-last"):
            sst = SAMPLE_SSTS[name]
            for _ in range(500):
                n = rng.randrange(0, 120)
                w = "".join(rng.choice(sst.input_letters) for _ in range(n))
                assert run_sst_structured(sst, w) == run_sst_naive(sst, w), name


def test_transductions_commute_with_their_terms():
    with budget(120):
        S5 = FinSet(("a", "b", "c", "d", "e"))
        fixed_inputs = {
            "coappend": [(List(S5),
                          parse_value("[[a,b],[c,d],[e]]",
                                      List(List(S5))),
                          "inl ([a,b],[[c,d],[e]])")],
            "block": [((AB, CD),
                       parse_value("[inl a,inl b,inr c,inr d,inl b,inr c]",
                                   List(Sum(AB, CD))),
                       "[inl [a,b],inr [c,d],inl [b],inr [c]]")],
            "ab_example": [((), parse_value("[a,b,a,b,a]", List(AB)), "[a,a,a,b,b]")],
        }
        for name, cases in fixed_inputs.items():
            for types, v, shown in cases:
                types = types if isinstance(types, tuple) else (types,)
                term = builtin_term(name, *types)
                fot = builtin_fot(name, *types)
                dom, cod = infer_type(term)
                got = decode_structure(
                    apply_transduction(fot, encode_value(v, dom)), cod)
                assert got == eval_term(term, v)
                assert render_value(got) == shown

        rng = random.Random(314)
        for name, types in [("reverse", (AB,)), ("append", (AB,)),
                            ("coappend", (AB,)), ("flat", (AB,)),
                            ("block", (AB, CD)), ("ab_example", ())]:
            term = builtin_term(name, *types)
            fot = builtin_fot(name, *types)
            dom, _ = infer_type(term)
            samples = list(enumerate_values(dom, 5))
            samples += [random_value(dom, 6 + (18 * i) // 500, rng)
                        for i in range(500)]
            report = check_commutes(term, fot, samples)
            assert report.ok, f"{name}: {report.summary()}"


def test_group_prefix_products_match_fold():
    with budget(5):
        rng = random.Random(77)
        for gname in ("z2", "z3"):
            g = SAMPLE_GROUPS[gname]
            term = PrefixGroupMult(g)
            assert not is_first_order(term)
            for _ in range(1000):
                word = [rng.choice(g.elements)
                        for _ in range(rng.randrange(0, 40))]
                acc, expected = g.identity, []
                for x in word:
                    acc = g.mult(acc, x)
                    expected.append(Sym(acc))
                got = eval_term(term, ListV(tuple(Sym(x) for x in word)))
                assert got == ListV(tuple(expected))
        assert is_first_order(Reverse(AB))


def test_round_trips_are_identities_across_the_panel():
    from listfn.types import parse_type
    panel = [
        DEEP_MIX_TYPE,
        parse_type("{a,b}^*"),
        parse_type("({a,b}^*)^*"),
        parse_type("{a,b}×({c}+{d}^*)"),
        parse_type("({a,b}+bot)^*"),
    ]
    with budget(30):
        for t in panel:
            count = 0
            for v in enumerate_values(t, 6):
                assert parse_value(render_value(v), t) == v
                assert decode_structure(encode_value(v, t), t) == v
                count += 1
            assert count > 0


def _eval_terms():
    rng = random.Random("garbage-terms")
    for entry in CATALOG.values():
        for args in entry.instances:
            term = entry.build(*args)
            eval_term(term, random_value(infer_type(term)[0], 12, rng))
    for group in SAMPLE_GROUPS.values():
        eval_term(PrefixGroupMult(group), ListV(tuple(map(Sym, group.elements * 5))))


def _pipelines():
    rng = random.Random("garbage-pipelines")
    for r in SAMPLE_RATIONALS.values():
        eval_pipeline(compile_rational(r), [rng.choice(r.input_letters) for _ in range(300)])


def _update_lists(k):
    rng = random.Random(f"garbage-k{k}")
    return [random_update(k, rng) for _ in range(100)]


def _homogeneous(k):
    rng = random.Random(f"garbage-homogeneous-k{k}")
    tau = random_abstraction(k, rng)
    return [random_update_like(tau, rng) for _ in range(100)], tau


def _transduction(name, types, path):
    term = builtin_term(name, *types)
    dom, cod = infer_type(term)
    save_structure(path, encode_value(random_value(dom, 20, random.Random(name)), dom))
    decode_structure(apply_transduction(builtin_fot(name, *types), load_structure(path)), cod)


_OPS = {
    "eval_term": lambda path: _eval_terms(),
    "eval_pipeline": lambda path: _pipelines(),
    "product_list_updates": lambda path: [product_list_updates(_update_lists(k))
                                          for k in (1, 2, 3, 4)],
    "homogeneous_product": lambda path: [homogeneous_product(*_homogeneous(k))
                                         for k in (1, 2, 3, 4)],
    "run_sst_structured": lambda path: [run_sst_structured(sst, sst.input_letters * 60)
                                        for sst in SAMPLE_SSTS.values()],
    **{f"transduction-{name}": functools.partial(_transduction, name, types)
       for name, types in [("reverse", (AB,)), ("append", (AB,)), ("coappend", (AB,)),
                           ("flat", (AB,)), ("block", (AB, CD)), ("ab_example", ())]},
}


@pytest.mark.parametrize("kind", _OPS)
def test_an_op_leaves_no_garbage_cycles(kind, tmp_path):
    """Each kind of op the benchmark times frees all it made by reference
    counts: with the collector off, a full collection after it finds no
    unreachable object.  The first call fills the caches."""
    path = tmp_path / "op.lstruct"
    _OPS[kind](path)
    gc.disable()
    try:
        gc.collect()
        with budget(10):
            _OPS[kind](path)
        assert gc.collect() == 0
    finally:
        gc.enable()
