"""Register updates: products, abstractions, and the transducer runners."""
import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import listfn
from helpers import is_monotone, is_nonduplicating
from listfn import registers
from listfn.registers import (
    Lit,
    Reg,
    SSTSpec,
    UpdateError,
    abstraction,
    abstraction_name,
    apply_update,
    empty_valuation,
    enumerate_abstractions,
    fot_pipeline_eval,
    homogeneous_product,
    identity_update,
    normalise,
    parse_update,
    product_list_updates,
    random_abstraction,
    random_update,
    random_update_like,
    render_update,
    run_sst_naive,
    run_sst_structured,
    t_k_monoid,
    update_product,
)
from listfn.samples import SAMPLE_SSTS, SAMPLE_UPDATE_RATIONALS, _constant_update_rational


def random_valuation(k, rng, letters="ab"):
    return tuple(
        tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        for _ in range(k))


def fold_product(etas):
    return normalise(functools.reduce(update_product, etas))


def assert_product_acts_stepwise(product, etas, rng):
    """The oracle that shares no code with the products: ``product`` is in
    normal form and acts on seeded valuations as ``etas`` do one by one."""
    assert product == normalise(product)
    for _ in range(3):
        v = w = random_valuation(len(product), rng, letters="xy")
        for eta in etas:
            w = apply_update(w, eta)
        assert apply_update(v, product) == w


def unnormalised(eta, rng):
    """``eta`` with each literal split in two and empty literals put
    anywhere."""
    out = []
    for rhs in eta:
        items = [Lit(())]
        for item in rhs:
            if isinstance(item, Lit):
                cut = rng.randrange(len(item.value) + 1)
                items += [Lit(item.value[:cut]), Lit(item.value[cut:])]
            else:
                items.append(item)
            if rng.random() < 0.5:
                items.append(Lit(()))
        out.append(tuple(items))
    return tuple(out)


def test_identity_update_is_neutral():
    rng = random.Random(1)
    for k in (1, 2, 3):
        for _ in range(50):
            e = random_update(k, rng)
            assert update_product(identity_update(k), e) == normalise(e)
            assert update_product(e, identity_update(k)) == normalise(e)


def test_action_compatibility():
    rng = random.Random(2)
    for _ in range(400):
        k = rng.randrange(1, 5)
        e1, e2 = random_update(k, rng), random_update(k, rng)
        v = random_valuation(k, rng)
        assert apply_update(apply_update(v, e1), e2) == \
            apply_update(v, update_product(e1, e2))


def test_abstraction_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(400):
        k = rng.randrange(1, 5)
        e1, e2 = random_update(k, rng), random_update(k, rng)
        lhs = abstraction(update_product(e1, e2))
        rhs = normalise(update_product(abstraction(e1), abstraction(e2)))
        assert lhs == abstraction(rhs)


def test_abstractions_are_nonduplicating_and_named():
    rng = random.Random(4)
    for _ in range(100):
        k = rng.randrange(1, 5)
        tau = random_abstraction(k, rng)
        assert is_nonduplicating(tau)
        assert isinstance(abstraction_name(tau), str)
    assert is_monotone(((Reg(1),), (Reg(2),)))
    assert not is_monotone(((Reg(2),), (Reg(1),)))
    assert not is_nonduplicating(((Reg(1), Reg(1)), ()))


def test_update_monoid_sizes():
    for k, size in ((1, 2), (2, 8), (3, 38)):
        monoid, reps = t_k_monoid(k)
        assert len(monoid.elements) == size
        assert len(reps) == size
        assert len(list(enumerate_abstractions(k))) == size


def test_t_k_multiplication_agrees_with_update_product():
    for k in (1, 2, 3, 4):
        monoid, reps = t_k_monoid(k)
        for x in monoid.elements:
            for y in monoid.elements:
                composed = normalise(update_product(reps[x], reps[y]))
                assert reps[monoid.mult(x, y)] == abstraction(composed)


def test_t_k_products_outside_the_universe_raise_a_named_error(monkeypatch):
    universe = enumerate_abstractions(2)
    last = universe[-1]
    assert last != identity_update(2)
    monkeypatch.setattr(registers, "enumerate_abstractions",
                        lambda k: [t for t in universe if t != last])
    with pytest.raises(AssertionError, match="left the universe"):
        t_k_monoid.__wrapped__(2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_homogeneous_product_on_every_abstraction_acts_stepwise(k):
    """Lengths 1..2k+1 cross the window of k updates that fixes the
    temporaries."""
    rng = random.Random(k)
    for tau in enumerate_abstractions(k):
        for n in range(1, 2 * k + 2):
            etas = [random_update_like(tau, rng) for _ in range(n)]
            assert_product_acts_stepwise(homogeneous_product(etas, tau),
                                         etas, rng)


def test_products_of_unnormalised_updates_are_normalised():
    rng = random.Random(10)
    for _ in range(200):
        k = rng.randrange(1, 5)
        e1, e2 = random_update(k, rng), random_update(k, rng)
        raw = [unnormalised(e, rng) for e in (e1, e2)]
        assert update_product(*raw) == update_product(e1, e2)
        assert_product_acts_stepwise(update_product(*raw), raw, rng)
        tau = random_abstraction(k, rng)
        etas = [unnormalised(random_update_like(tau, rng), rng)
                for _ in range(rng.randrange(1, 12))]
        assert_product_acts_stepwise(homogeneous_product(etas, tau), etas, rng)
        etas = [unnormalised(random_update(k, rng), rng)
                for _ in range(rng.randrange(1, 30))]
        assert_product_acts_stepwise(product_list_updates(etas), etas, rng)


@pytest.mark.parametrize("eta", [
    ((Reg(1), Reg(2)), (Reg(2),)),  # duplicating
    ((Reg(2),), (Reg(1),)),  # the swap: nonduplicating, not monotone
], ids=["duplicating", "swap"])
def test_homogeneous_product_refuses_a_nonmonotone_abstraction(eta):
    with pytest.raises(UpdateError, match="nonduplicating and monotone"):
        homogeneous_product([eta] * 3)
    with pytest.raises(UpdateError, match="nonduplicating and monotone"):
        homogeneous_product([eta] * 3, tau=abstraction(eta))


def test_homogeneous_product_checks_its_abstraction():
    e = ((Lit(("a",)), Reg(1)), (Reg(2),))
    with pytest.raises(UpdateError, match="out of range"):
        homogeneous_product([e], tau=((Reg(3),), ()))
    with pytest.raises(UpdateError, match="register counts differ"):
        homogeneous_product([e], tau=((Reg(1),),))
    with pytest.raises(UpdateError, match="not homogeneous"):
        homogeneous_product([e, ((Reg(1),), ())])
    with pytest.raises(UpdateError, match="empty"):
        homogeneous_product([])


def test_homogeneous_product_matches_fold():
    rng = random.Random(5)
    for _ in range(150):
        k = rng.randrange(1, 4)
        tau = random_abstraction(k, rng)
        etas = [random_update_like(tau, rng)
                for _ in range(rng.randrange(1, 40))]
        assert homogeneous_product(etas, tau=tau) == fold_product(etas)


def test_product_list_updates_matches_fold():
    rng = random.Random(6)
    for _ in range(150):
        k = rng.randrange(1, 5)
        etas = [random_update(k, rng) for _ in range(rng.randrange(1, 40))]
        assert product_list_updates(etas, k=k) == fold_product(etas)


def test_update_text_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randrange(1, 4)
        e = random_update(k, rng)
        assert parse_update(render_update(e)) == e
    e = parse_update('1 := ["ab", $2]; 2 := []')
    assert e == ((Lit(("a", "b")), Reg(2)), ())
    with pytest.raises(UpdateError):
        parse_update('1 := [$3]')  # register index beyond the update arity
    with pytest.raises(UpdateError):
        parse_update('1 := []; 1 := []')


def test_apply_update_reads_before_writing():
    swap = parse_update('1 := [$2, "a"]; 2 := [$1]')
    v = (("x",), ("y",))
    assert apply_update(v, swap) == (("y", "a"), ("x",))
    # the forest-structured sequence product needs monotone updates
    e = parse_update('1 := ["b", $1]; 2 := [$2, "a"]')
    assert apply_update(empty_valuation(2), product_list_updates([e, e], 2)) == \
        apply_update(apply_update(empty_valuation(2), e), e)


@pytest.mark.parametrize("name", sorted(SAMPLE_SSTS))
def test_sst_structured_matches_naive(name):
    sst = SAMPLE_SSTS[name]
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(0, 60)
        w = "".join(rng.choice(sst.input_letters) for _ in range(n))
        assert run_sst_structured(sst, w) == run_sst_naive(sst, w)


def test_sst_point_values():
    assert run_sst_naive(SAMPLE_SSTS["reverse"], "abb") == ("b", "b", "a")
    assert run_sst_naive(SAMPLE_SSTS["identity"], "ab") == ("a", "b")
    assert run_sst_naive(SAMPLE_SSTS["drop-last"], "ab") == ("a",)
    assert run_sst_naive(SAMPLE_SSTS["drop-last"], "") == ()


def test_sst_rejects_missing_transition():
    sst = SAMPLE_SSTS["identity"]
    with pytest.raises(UpdateError):
        run_sst_naive(sst, "az")


@pytest.mark.parametrize("eta,message", [
    (((Reg(5),),), "out of range"),
    (((Reg(1),), ()), "register counts differ"),
    (((Reg(1), Reg(1)),), "nonduplicating and monotone"),
], ids=["range", "count", "duplicating"])
def test_sst_refuses_a_bad_transition_update_at_construction(eta, message):
    with pytest.raises(UpdateError, match=message):
        SSTSpec("x", ("a",), ("q",), "q", 1, {("q", "a"): ("q", eta)})


@pytest.mark.parametrize("letters,states,message", [
    (("a", "b", "a"), ("q",), "x: input letters must be distinct"),
    (("a",), ("q", "q"), "x: states must be distinct"),
], ids=["letters", "states"])
def test_sst_refuses_repeated_letters_and_states(letters, states, message):
    with pytest.raises(UpdateError, match=message):
        SSTSpec("x", letters, states, "q", 1, {("q", "a"): ("q", ((Reg(1),),))})


def test_update_pipeline_refuses_bad_updates():
    g = _constant_update_rational("dup", {"a": "1 := [$1, $1]", "b": "1 := [$1]"})
    assert fot_pipeline_eval(g, 1, "bb") == ()
    with pytest.raises(UpdateError, match="nonduplicating and monotone"):
        fot_pipeline_eval(g, 1, "ba")
    with pytest.raises(UpdateError, match="not over 2 registers"):
        fot_pipeline_eval(g, 2, "b")


@pytest.mark.parametrize("name", sorted(SAMPLE_UPDATE_RATIONALS))
def test_update_pipeline_runs_registers_through_context_triples(name):
    g, k = SAMPLE_UPDATE_RATIONALS[name]
    rng = random.Random(9)
    oracle = {
        "update-identity": lambda w: tuple(w),
        "update-reverse": lambda w: tuple(reversed(w)),
        "update-noop": lambda w: (),
        "update-drop-last": lambda w: tuple(w[:-1]),
    }[name]
    for _ in range(100):
        n = rng.randrange(0, 40)
        w = "".join(rng.choice("ab") for _ in range(n))
        assert fot_pipeline_eval(g, k, w) == oracle(w)


_SAVE_UPDATE_RATIONALS = """
import sys
from pathlib import Path
from listfn.fileio import save_rational
from listfn.samples import SAMPLE_UPDATE_RATIONALS
for name, (r, _) in sorted(SAMPLE_UPDATE_RATIONALS.items()):
    path = Path(sys.argv[1]) / name
    save_rational(path, r)
    print(name, r.output_letters)
    print(path.read_text(encoding="utf-8"))
"""


def test_update_rationals_do_not_depend_on_the_hash_seed(tmp_path):
    """Output letters, and so the saved files, keep one order under every
    PYTHONHASHSEED."""
    src = str(Path(listfn.__file__).resolve().parent.parent)
    outputs = {}
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", _SAVE_UPDATE_RATIONALS, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        outputs[seed] = done.stdout
    assert len(set(outputs.values())) == 1, outputs


_STEP = ("q", ((Reg(1),),))


@pytest.mark.parametrize("call,message", [
    (lambda: SSTSpec("x", ("a",), ("q",), "p", 1, {("q", "a"): _STEP}), "initial state unknown"),
    (lambda: SSTSpec("x", ("a",), ("q",), "q", 1, {("q", "a"): _STEP}, output_register=2),
     "output register out of range"),
    (lambda: SSTSpec("x", ("a",), ("q",), "q", 1, {("p", "a"): _STEP}),
     "unknown state in transition p,a"),
    (lambda: SSTSpec("x", ("a",), ("q",), "q", 1, {("q", "b"): _STEP}), "unknown letter b"),
    (lambda: apply_update(empty_valuation(2), identity_update(1)),
     "valuation has 2 entries, update has 1"),
    (lambda: update_product(identity_update(1), identity_update(2)), "register counts differ"),
    (lambda: product_list_updates([]), "register count needed for an empty product"),
], ids=["initial", "output-register", "transition-state", "transition-letter",
        "valuation-length", "product-counts", "empty-product"])
def test_register_builders_refuse_bad_parts_with_update_errors(call, message):
    with pytest.raises(UpdateError) as err:
        call()
    assert str(err.value).startswith(message)
