"""Register updates over words, their products, and streaming evaluation.

Registers hold words, as in the paper's streaming string transducers.  A
k-register update rewrites every register to a sequence of literal words and
register reads.  Monotone nonduplicating updates form a monoid under
substitution whose register-only abstractions give a finite monoid T_k, so a
long product can be computed through a bounded-depth factorisation tree:
binary products at small nodes, and one left-to-right pass at wide nodes,
where all children share one abstraction.  Temporary registers (those that
do not feed back into themselves) depend only on the last k updates, so that
pass carries their contents from step to step.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import (chain, combinations, combinations_with_replacement,
                       groupby)
from typing import Iterable, Sequence

from .algebra import (FiniteMonoid, Homomorphism, Leaf, FactTree,
                      build_factorisation)
from .rational import RationalFn, eval_rational_direct
from .types import ListfnError


class UpdateError(ListfnError, ValueError):
    pass


@dataclass(frozen=True)
class Reg:
    """Read of register ``index`` (registers are named 1..k)."""
    index: int


@dataclass(frozen=True)
class Lit:
    """A literal word: a tuple of letters, ``()`` being the empty word."""
    value: tuple


Item = Reg | Lit
Rhs = tuple[Item, ...]
RegUpdate = tuple[Rhs, ...]


def identity_update(k: int) -> RegUpdate:
    return tuple(((Reg(i),)) for i in range(1, k + 1))


def _check_update(eta: RegUpdate) -> int:
    k = len(eta)
    for rhs in eta:
        for item in rhs:
            if isinstance(item, Reg) and not 1 <= item.index <= k:
                raise UpdateError(f"register {item.index} out of range 1..{k}")
    return k


def normalise(eta: RegUpdate) -> RegUpdate:
    """Concatenate adjacent literals and drop empty ones."""
    return tuple(_joined(rhs) for rhs in eta)


def _joined(items: Iterable[Item]) -> Rhs:
    """One side in normal form; a run of literals is joined in linear time."""
    out: list[Item] = []
    for cls, run in groupby(items, type):
        if cls is Reg:
            out.extend(run)
        else:
            word = tuple(chain.from_iterable(lit.value for lit in run))
            if word:
                out.append(Lit(word))
    return tuple(out)


def _substituted(rhs: Rhs, sides: Sequence[Rhs]) -> Rhs:
    """``rhs`` with each read of register i replaced by ``sides[i - 1]``, in
    one pass that joins a literal onto a preceding one and drops empty ones."""
    out: list[Item] = []
    for item in rhs:
        for piece in (sides[item.index - 1] if item.__class__ is Reg
                      else (item,)):
            if piece.__class__ is Reg:
                out.append(piece)
            elif not piece.value:
                continue
            elif out and out[-1].__class__ is Lit:
                out[-1] = Lit(out[-1].value + piece.value)
            else:
                out.append(piece)
    return tuple(out)


def apply_update(v: tuple, eta: RegUpdate) -> tuple:
    """Right action: entry i becomes the i-th right-hand side evaluated at v."""
    k = _check_update(eta)
    if len(v) != k:
        raise UpdateError(f"valuation has {len(v)} entries, update has {k}")
    return tuple(
        tuple(letter for item in rhs
              for letter in (v[item.index - 1] if isinstance(item, Reg)
                             else item.value))
        for rhs in eta)


def empty_valuation(k: int) -> tuple:
    return ((),) * k


def update_product(eta1: RegUpdate, eta2: RegUpdate) -> RegUpdate:
    """The update acting like eta1 followed by eta2, in normal form."""
    if len(eta1) != len(eta2):
        raise UpdateError("register counts differ")
    return tuple(_substituted(rhs, eta1) for rhs in eta2)


def abstraction(eta: RegUpdate) -> RegUpdate:
    """Erase all literals, keeping only register reads."""
    return tuple(tuple(i for i in rhs if isinstance(i, Reg)) for rhs in eta)


# ------------------------------------------------------- abstraction monoid

def abstraction_name(tau: RegUpdate) -> str:
    return ";".join(",".join(str(i.index) for i in rhs) for rhs in tau)


def _laid_out(k: int, kept: Sequence[int], cuts: Sequence[int]) -> RegUpdate:
    """Abstraction reading ``kept`` in order, its k sides cut at ``cuts``."""
    bounds = (0, *cuts, len(kept))
    return tuple(tuple(Reg(i) for i in kept[bounds[c]:bounds[c + 1]])
                 for c in range(k))


def enumerate_abstractions(k: int) -> list[RegUpdate]:
    """All monotone nonduplicating k-register abstractions."""
    return [_laid_out(k, kept, cuts)
            for j in range(k + 1)
            for kept in combinations(range(1, k + 1), j)
            for cuts in combinations_with_replacement(range(j + 1), k - 1)]


@lru_cache(maxsize=None)
def t_k_monoid(k: int) -> tuple[FiniteMonoid, dict[str, RegUpdate]]:
    """The finite monoid T_k of abstractions, with a name-to-abstraction map.

    Products are taken on register-number tuples: each left factor
    substitutes every side once, and a right factor is read off side by side.
    """
    by_name = {abstraction_name(t): t for t in enumerate_abstractions(k)}
    name_of = {tuple(tuple(r.index for r in rhs) for rhs in t): n
               for n, t in by_name.items()}
    sides = {rhs for t in name_of for rhs in t}
    table = {}
    for t1, n1 in name_of.items():
        substituted = {rhs: tuple(chain.from_iterable(t1[i - 1] for i in rhs))
                       for rhs in sides}
        for t2, n2 in name_of.items():
            name = name_of.get(tuple(map(substituted.__getitem__, t2)))
            if name is None:
                raise AssertionError("abstraction product left the universe")
            table[(n1, n2)] = name
    identity = abstraction_name(identity_update(k))
    return FiniteMonoid(tuple(by_name), table, identity), by_name


# ------------------------------------------------- homogeneous products

def temporary_registers(tau: RegUpdate) -> set[int]:
    """Registers whose side does not read them: their content never feeds back."""
    return {i for i, rhs in enumerate(tau, start=1)
            if i not in {item.index for item in rhs}}


def _checked_name(eta: RegUpdate, k: int) -> str:
    """Name of ``eta``'s abstraction, after checking, in this order, that its
    reads are in range, that it has ``k`` registers and that its reads are
    monotone (which makes them nonduplicating)."""
    n = len(eta)
    last = 0
    monotone = True
    sides = []
    for rhs in eta:
        reads = []
        for item in rhs:
            if item.__class__ is Reg:
                i = item.index
                if not 1 <= i <= n:
                    raise UpdateError(f"register {i} out of range 1..{n}")
                monotone = monotone and i > last
                last = i
                reads.append(str(i))
        sides.append(",".join(reads))
    if n != k:
        raise UpdateError("register counts differ across the sequence")
    if not monotone:
        raise UpdateError("updates must be nonduplicating and monotone")
    return ";".join(sides)


def homogeneous_product(etas: Sequence[RegUpdate],
                        tau: RegUpdate | None = None) -> RegUpdate:
    """Product of a sequence whose updates all have abstraction ``tau``.

    One left-to-right pass.  Only register r reads a self-feeding register r
    (nonduplication), so temporaries read only temporaries, and those reads
    have no cycle (monotone: an increasing bijection of a finite set is the
    identity).  So the prefix product restricted to temporaries is the
    product of the last k updates; it is carried with one substitution per
    temporary per step.  A self-feeding register collects the parts left and
    right of its read, resolved against the carried temporaries, and joins
    them once at the end.
    """
    if not etas:
        raise UpdateError("empty homogeneous product")
    tau = abstraction(etas[0] if tau is None else tau)
    name = _checked_name(tau, len(tau))
    if any(_checked_name(eta, len(tau)) != name for eta in etas):
        raise UpdateError("sequence is not homogeneous for its abstraction")
    return _homogeneous(etas, tau)


def _homogeneous(etas: Sequence[RegUpdate], tau: RegUpdate) -> RegUpdate:
    """``homogeneous_product`` for a checked, nonempty sequence."""
    temps = temporary_registers(tau)
    feeding = [(r, [], []) for r in range(1, len(tau) + 1) if r not in temps]
    carried = identity_update(len(tau))  # only temporaries' entries are read
    for eta in etas:
        for r, lefts, rights in feeding:
            rhs = eta[r - 1]
            pos = next(p for p, item in enumerate(rhs)
                       if item.__class__ is Reg and item.index == r)
            lefts.append(_substituted(rhs[:pos], carried))
            rights.append(_substituted(rhs[pos + 1:], carried))
        carried = [_substituted(rhs, carried) if r in temps else ()
                   for r, rhs in enumerate(eta, start=1)]
    for r, lefts, rights in feeding:
        lefts.reverse()
        carried[r - 1] = _joined(chain(chain.from_iterable(lefts), (Reg(r),),
                                       chain.from_iterable(rights)))
    return tuple(carried)


def product_list_updates(etas: Sequence[RegUpdate],
                         k: int | None = None) -> RegUpdate:
    """Product of any update list, structured by a factorisation tree.

    One pass checks each update and names its abstraction; the tree is built
    over those names in T_k.  Binary nodes multiply, and wide nodes, whose
    children share one abstraction, take a homogeneous product.
    """
    if not etas:
        if k is None:
            raise UpdateError("register count needed for an empty product")
        return identity_update(k)
    k = len(etas[0])
    names = [_checked_name(eta, k) for eta in etas]
    if len(etas) == 1:
        return normalise(etas[0])
    t_k, by_name = t_k_monoid(k)
    tree = build_factorisation(Homomorphism(t_k, {n: n for n in by_name}),
                               names)
    leaves = iter(etas)

    def evaluate(t: FactTree) -> RegUpdate:
        if isinstance(t.children[0], Leaf):
            return next(leaves)
        parts = [evaluate(c) for c in t.children]
        if len(parts) == 2:
            return update_product(parts[0], parts[1])
        return _homogeneous(parts, by_name[t.label])

    total = evaluate(tree)
    del evaluate  # its closure refers to it: clear it, so no cycle outlives the call
    return total


def random_abstraction(k: int, rng) -> RegUpdate:
    """Uniformly shaped monotone nonduplicating abstraction."""
    kept = sorted(rng.sample(range(1, k + 1), rng.randint(0, k)))
    return _laid_out(k, kept,
                     sorted(rng.randint(0, len(kept)) for _ in range(k - 1)))


def random_update_like(tau: RegUpdate, rng) -> RegUpdate:
    """Random update with abstraction ``tau``: words over {a, b} of up to three
    letters around each read."""
    def lit() -> Lit:
        return Lit(tuple(rng.choice("ab") for _ in range(rng.randint(0, 3))))

    out = []
    for rhs in tau:
        items: list[Item] = [lit()]
        for item in rhs:
            items.append(item)
            items.append(lit())
        out.append(tuple(items))
    return normalise(tuple(out))


def random_update(k: int, rng) -> RegUpdate:
    return random_update_like(random_abstraction(k, rng), rng)


# --------------------------------------------------------------- update text

_COMPONENT_RE = re.compile(r"^\s*(\d+)\s*:=\s*\[(.*)\]\s*$")
_ITEM_RE = re.compile(r'\s*(?:\$(\d+)|"([^"]*)"|([A-Za-z0-9_#\'.]+))\s*$')


def _register_number(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise UpdateError(f"register number of {len(digits)} digits") from None


def parse_update(text: str) -> RegUpdate:
    """Parse `1 := ["ab", $2]; 2 := []` into an update.

    Quoted literals are words read letter by letter; bare names are rejected.
    """
    rhss = []
    components = text.split(";")
    for expected, component in enumerate(components, start=1):
        m = _COMPONENT_RE.match(component)
        if not m:
            raise UpdateError(f"bad update component: {component.strip()!r}")
        if _register_number(m.group(1)) != expected:
            raise UpdateError(
                f"components must name registers 1..{len(components)} in "
                f"order, got {m.group(1)}")
        body = m.group(2).strip()
        items: list[Item] = []
        if body:
            for piece in body.split(","):
                im = _ITEM_RE.match(piece)
                if not im:
                    raise UpdateError(f"bad update item: {piece.strip()!r}")
                reg, quoted, bare = im.groups()
                if reg is not None:
                    items.append(Reg(_register_number(reg)))
                elif quoted is not None:
                    items.append(Lit(tuple(quoted)))
                else:
                    raise UpdateError(
                        f"free-monoid literals must be quoted: {bare!r}")
        rhss.append(tuple(items))
    update = tuple(rhss)
    _check_update(update)
    return update


def render_update(eta: RegUpdate) -> str:
    parts = []
    for i, rhs in enumerate(eta, start=1):
        items = [f"${item.index}" if isinstance(item, Reg)
                 else '"' + "".join(item.value) + '"' for item in rhs]
        parts.append(f"{i} := [" + ", ".join(items) + "]")
    return "; ".join(parts)


# ----------------------------------------------------------------------- SST

@dataclass(frozen=True)
class SSTSpec:
    """Deterministic streaming transducer with copyless register updates."""
    name: str
    input_letters: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    registers: int
    transitions: dict[tuple[str, str], tuple[str, RegUpdate]]
    output_register: int = 1

    def __post_init__(self) -> None:
        for what, items in (("input letters", self.input_letters), ("states", self.states)):
            if len(set(items)) != len(items):
                raise UpdateError(f"{self.name}: {what} must be distinct")
        if self.initial not in self.states:
            raise UpdateError("initial state unknown")
        if not 1 <= self.output_register <= self.registers:
            raise UpdateError("output register out of range")
        for (state, letter), (target, eta) in self.transitions.items():
            if state not in self.states or target not in self.states:
                raise UpdateError(f"unknown state in transition {state},{letter}")
            if letter not in self.input_letters:
                raise UpdateError(f"unknown letter {letter}")
            _checked_name(eta, self.registers)

    def _updates_along(self, word: Sequence[str]) -> list[RegUpdate]:
        state = self.initial
        etas = []
        for a in word:
            try:
                state, eta = self.transitions[(state, a)]
            except KeyError:
                raise UpdateError(f"missing transition from {state} on {a!r}")
            etas.append(eta)
        return etas


def run_sst_naive(sst: SSTSpec, word: Sequence[str]) -> tuple:
    """Stepwise run: apply every transition update to the valuation."""
    v = empty_valuation(sst.registers)
    for eta in sst._updates_along(word):
        v = apply_update(v, eta)
    return v[sst.output_register - 1]


def run_sst_structured(sst: SSTSpec, word: Sequence[str]) -> tuple:
    """Collect the update stream, take one structured product, apply once."""
    etas = sst._updates_along(word)
    total = product_list_updates(etas, sst.registers)
    v = apply_update(empty_valuation(sst.registers), total)
    return v[sst.output_register - 1]


def fot_pipeline_eval(g: RationalFn, k: int, word: Sequence[str]) -> tuple:
    """Evaluate a rational function whose output letters are update text.

    The emitted updates are multiplied out and applied to the all-empty
    valuation; the first register is the output word.
    """
    letters = eval_rational_direct(g, word)
    etas = []
    for letter in letters:
        eta = parse_update(letter)
        if len(eta) != k:
            raise UpdateError(f"update {letter!r} is not over {k} registers")
        etas.append(eta)
    return apply_update(empty_valuation(k), product_list_updates(etas, k))[0]
