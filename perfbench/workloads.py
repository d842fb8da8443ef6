"""The four benchmark workloads, built only from listfn's public functions.

Each workload sets up its objects (terms, pipelines, the monoids T_k,
transductions), then turns a seeded random generator into one *round*: a
fixed list of ops whose inputs are all generated before timing.  The timed
loop replays the round.  Every library call goes through ``tr.call`` so that
a traced run can put a span around it; untraced runs pass a tracer that calls
straight through.

Input sizes follow a fixed ramp per workload and only the contents depend on
the seed, so two seeds load the library with the same mix of sizes.
"""
from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field

from listfn.algebra import Homomorphism, Leaf, build_factorisation
from listfn.fileio import load_structure, save_structure
from listfn.logic import (apply_transduction, builtin_fot, builtin_term,
                          decode_structure, decode_word_structure,
                          encode_value, word_structure)
from listfn.rational import DEAD, compile_rational, eval_pipeline, eval_rational_direct
from listfn.registers import (abstraction, abstraction_name, homogeneous_product,
                              normalise, product_list_updates, random_abstraction,
                              random_update_like, render_update,
                              run_sst_naive, run_sst_structured, t_k_monoid,
                              update_product)
from listfn.samples import SAMPLE_GROUPS, SAMPLE_RATIONALS, SAMPLE_SSTS
from listfn.stdlib import CATALOG
from listfn.syntax import parse_term, render_term
from listfn.terms import PrefixGroupMult, eval_term, infer_type, subterms
from listfn.types import (FinSet, ListV, Sym, default_value, enumerate_values,
                          parse_value, random_value, render_value, value_size)


@dataclass
class Op:
    """One call the timed loop makes, with its generated input."""
    label: str         # what the op runs, for failure reports
    obj: object        # the term, pipeline or transduction the op reuses
    size: int          # input size: value nodes, letters or updates
    arg: object
    want: object = field(default=None, repr=False)   # the oracle's answer


def ramp(lo: int, hi: int, steps: int, power: int) -> list[int]:
    """``steps`` sizes from lo to hi, spaced by ``power``: many small, few large.

    Costs grow faster than linearly in size, so an evenly spaced ramp would
    spend nearly all of a round on its last few ops; the steeper the cost
    curve, the higher the power.
    """
    return [lo + round((hi - lo) * (i / (steps - 1)) ** power) for i in range(steps)]


def near_size(t, target: int, rng, draws: int = 64):
    """A random value of type ``t`` whose size is the closest of ``draws`` to target."""
    best = None
    for _ in range(draws):
        v = random_value(t, target, rng)
        if best is None or abs(value_size(v) - target) < abs(value_size(best) - target):
            best = v
    return best


def tree_shape(t) -> tuple[int, int, int, int]:
    """Depth, inner nodes, binary nodes and wide (three or more children) nodes."""
    depth = nodes = binary = wide = 0
    work = [(t, 0)]
    while work:
        cur, d = work.pop()
        if isinstance(cur, Leaf):
            depth = max(depth, d)
            continue
        nodes += 1
        binary += len(cur.children) == 2
        wide += len(cur.children) > 2
        work.extend((c, d + 1) for c in cur.children)
    return depth, nodes, binary, wide


class Capture:
    """Tracer stand-in that keeps the last result of each named call.

    Count metrics come from one extra untimed pass over a round through this,
    so they repeat exactly for a seed however many rounds a run times.
    """

    enabled = True
    op = None

    def __init__(self) -> None:
        self.seen: dict[str, object] = {}

    def call(self, name: str, fn, *args):
        out = fn(*args)
        self.seen[name] = out
        return out


class Workload:
    name = ""
    # per-layer metric name -> span name, where a workload's span for a
    # stage is the library call the stage makes
    aliases: dict[str, str] = {}

    def warm_up(self) -> None:
        """Run every object once on a tiny input, so lazy set-up is done."""

    def make_ops(self, rng) -> list[Op]:
        raise NotImplementedError

    def oracle(self, tr, op: Op):
        raise NotImplementedError

    def run(self, tr, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> bool:
        return out == op.want

    def render(self, op: Op, out) -> str:
        """The output as text, for the digest."""
        raise NotImplementedError

    def probe(self, tr, op: Op) -> None:
        """Traced runs only: extra calls timed apart from the op."""

    def counts(self, ops: list[Op]) -> dict[str, float]:
        return {}


# ------------------------------------------------------------------ calculus

@dataclass(frozen=True)
class TermCase:
    label: str
    term: object
    dom: object
    cod: object
    oracle: object


def _fold_oracle(g):
    def run(v):
        acc, out = g.identity, []
        for x in v.items:
            acc = g.mult(acc, x.name)
            out.append(Sym(acc))
        return ListV(tuple(out))
    return run


class Calculus(Workload):
    """eval_term on every catalog instance and both group-prefix terms."""

    name = "calculus"
    SMALL_SIZE = 8      # all values up to this size ...
    SMALL_CAP = 64      # ... or a seeded sample of this many
    RANDOM_SIZES = list(range(1, 41))

    def __init__(self, tr, workdir) -> None:
        self.cases: list[TermCase] = []
        for name, entry in CATALOG.items():
            for idx, args in enumerate(entry.instances):
                term = tr.call("stdlib.build", entry.build, *args)
                self._add(tr, f"{name}-{idx}", term, entry.oracle(*args))
        for gname, group in SAMPLE_GROUPS.items():
            self._add(tr, f"gprefix-{gname}", PrefixGroupMult(group),
                      _fold_oracle(group))

    def _add(self, tr, label, term, oracle) -> None:
        dom, cod = tr.call("terms.infer_type", infer_type, term)
        text = tr.call("syntax.render_term", render_term, term)
        if tr.call("syntax.parse_term", parse_term, text) != term:
            raise RuntimeError(f"{label}: term does not round-trip through its text")
        self.cases.append(TermCase(label, term, dom, cod, oracle))

    def warm_up(self) -> None:
        for c in self.cases:
            render_value(eval_term(c.term, default_value(c.dom)))

    def make_ops(self, rng) -> list[Op]:
        ops = []
        for c in self.cases:
            values = list(enumerate_values(c.dom, self.SMALL_SIZE))
            if len(values) > self.SMALL_CAP:
                keep = sorted(rng.sample(range(len(values)), self.SMALL_CAP))
                values = [values[i] for i in keep]
            values += [near_size(c.dom, s, rng) for s in self.RANDOM_SIZES]
            ops += [Op(c.label, c, value_size(v), v) for v in values]
        rng.shuffle(ops)
        return ops

    def oracle(self, tr, op):
        return tr.call("stdlib.oracle", op.obj.oracle, op.arg)

    def run(self, tr, op):
        out = tr.call("terms.eval_term", eval_term, op.obj.term, op.arg)
        return tr.call("types.render_value", render_value, out)

    def check(self, op, out) -> bool:
        return parse_value(out, op.obj.cod) == op.want

    def render(self, op, out) -> str:
        return out

    def counts(self, ops):
        return {
            "terms.nodes": sum(sum(1 for _ in subterms(c.term)) for c in self.cases),
            "terms.distinct": len(self.cases),
            "types.value_size.in": sum(op.size for op in ops) / len(ops),
            "types.value_size.out": sum(value_size(op.want) for op in ops) / len(ops),
        }


# ------------------------------------------------------------------ rational

class Rational(Workload):
    """eval_pipeline of the three sample rationals on long words."""

    name = "rational"
    LENGTHS = ramp(25, 3000, 34, 3)
    aliases = {"rational.stage.forest": "algebra.build_factorisation",
               "rational.stage.table": "terms.eval_term"}

    def __init__(self, tr, workdir) -> None:
        self.pipelines = [(name, r, tr.call("rational.compile", compile_rational, r))
                          for name, r in SAMPLE_RATIONALS.items()]

    def warm_up(self) -> None:
        for _, r, p in self.pipelines:
            eval_pipeline(p, r.input_letters * 4)

    def make_ops(self, rng) -> list[Op]:
        ops = []
        for name, r, p in self.pipelines:
            obj = (r, p)
            for n in self.LENGTHS:
                word = "".join(rng.choice(r.input_letters) for _ in range(n))
                ops.append(Op(name, obj, n, word))
        rng.shuffle(ops)
        return ops

    def oracle(self, tr, op):
        return tr.call("rational.direct", eval_rational_direct, op.obj[0], op.arg)

    def run(self, tr, op):
        p = op.obj[1]
        if not tr.enabled:
            return eval_pipeline(p, op.arg)
        # the loop of eval_pipeline, one span per stage
        current = list(op.arg)
        for stage in p.stages:
            span = self.aliases.get(f"rational.stage.{stage.name}",
                                    f"rational.stage.{stage.name}")
            if stage.kind == "opaque":
                current = tr.call(span, stage.run, current)
            else:
                current = tr.call(span, eval_term, stage.term, current)
        return tuple(v.name for v in current.items)

    def render(self, op, out) -> str:
        return "".join(out)

    def counts(self, ops):
        depth = nodes = live = positions = 0
        for op in ops:
            cap = Capture()
            self.run(cap, op)
            d, n, _, _ = tree_shape(cap.seen["algebra.build_factorisation"])
            depth, nodes = max(depth, d), nodes + n
            classes = cap.seen["rational.stage.classify"].items
            live += sum(1 for s in classes if s.name != DEAD)
            positions += len(classes)
        return {
            "terms.nodes": sum(sum(1 for _ in subterms(s.term))
                               for _, _, p in self.pipelines for s in p.term_stages()),
            "terms.distinct": sum(len(p.term_stages()) for _, _, p in self.pipelines),
            "algebra.forest_depth.max": depth,
            "algebra.forest_nodes": nodes,
            "rational.positions": positions,
            "rational.live_ratio": live / positions,
        }


# ----------------------------------------------------------------- registers

def _fold(etas):
    return normalise(functools.reduce(update_product, etas))


class Registers(Workload):
    """Structured register products against left folds, k spread over 1..4."""

    name = "registers"
    KS = (1, 2, 3, 4)
    LENGTHS = ramp(10, 400, 10, 2)
    SST_LENGTHS = ramp(20, 800, 10, 2)

    def __init__(self, tr, workdir) -> None:
        self.t_k = {k: tr.call("registers.t_k_monoid", t_k_monoid, k)[0]
                    for k in self.KS}

    def warm_up(self) -> None:
        etas = [((), ()), ((), ())]
        product_list_updates(etas, k=2)
        homogeneous_product(etas)
        for sst in SAMPLE_SSTS.values():
            run_sst_structured(sst, sst.input_letters * 2)

    def make_ops(self, rng) -> list[Op]:
        ops = []
        for k in self.KS:
            plu, homog = ("plu", k), ("homog", k)
            # Register shapes (abstractions) decide the cost; they come from a
            # generator fixed per k, and the seed picks only the literals.
            shapes = random.Random(f"registers-k{k}")
            for n in self.LENGTHS:
                etas = [random_update_like(random_abstraction(k, shapes), rng)
                        for _ in range(n)]
                ops.append(Op(f"product_list_updates-k{k}", plu, n, etas))
            for n in self.LENGTHS:
                tau = random_abstraction(k, shapes)
                etas = [random_update_like(tau, rng) for _ in range(n)]
                ops.append(Op(f"homogeneous_product-k{k}", homog, n, (etas, tau)))
        for name, sst in SAMPLE_SSTS.items():
            for n in self.SST_LENGTHS:
                word = "".join(rng.choice(sst.input_letters) for _ in range(n))
                ops.append(Op(f"sst-{name}", sst, n, word))
        rng.shuffle(ops)
        return ops

    def oracle(self, tr, op):
        if isinstance(op.obj, tuple):
            etas = op.arg if op.obj[0] == "plu" else op.arg[0]
            return tr.call("registers.fold", _fold, etas)
        return tr.call("registers.run_sst_naive", run_sst_naive, op.obj, op.arg)

    def run(self, tr, op):
        if not isinstance(op.obj, tuple):
            return tr.call("registers.run_sst_structured", run_sst_structured,
                           op.obj, op.arg)
        kind, k = op.obj
        if kind == "plu":
            return tr.call(f"registers.product_list_updates.k{k}",
                           product_list_updates, op.arg)
        etas, tau = op.arg
        return tr.call("registers.homogeneous_product", homogeneous_product, etas, tau)

    def render(self, op, out) -> str:
        return render_update(out) if isinstance(op.obj, tuple) else "".join(out)

    def probe(self, tr, op) -> None:
        """The factorisation over T_k that product_list_updates builds inside."""
        if not (isinstance(op.obj, tuple) and op.obj[0] == "plu"):
            return
        hom = Homomorphism(self.t_k[op.obj[1]],
                           lambda eta: abstraction_name(abstraction(eta)))
        tr.call("algebra.build_factorisation", build_factorisation, hom, list(op.arg))

    def counts(self, ops):
        depth = nodes = binary = wide = updates = 0
        for op in ops:
            updates += op.size
            cap = Capture()
            self.probe(cap, op)
            if cap.seen:
                d, n, b, w = tree_shape(cap.seen["algebra.build_factorisation"])
                depth, nodes = max(depth, d), nodes + n
                binary, wide = binary + b, wide + w
        return {"registers.updates": updates, "registers.binary_nodes": binary,
                "registers.wide_nodes": wide, "algebra.forest_depth.max": depth,
                "algebra.forest_nodes": nodes}


# -------------------------------------------------------------- transduction

AB = FinSet(("a", "b"))
CD = FinSet(("c", "d"))
FOT_TYPES = {"reverse": (AB,), "append": (AB,), "coappend": (AB,),
             "flat": (AB,), "block": (AB, CD)}


@dataclass(frozen=True)
class FotCase:
    name: str
    fot: object
    term: object       # the paired combinator; None for ab_example
    dom: object
    cod: object


class Transduction(Workload):
    """encode → save → load → apply_transduction → decode, per op."""

    name = "transduction"
    SIZES = ramp(4, 48, 12, 4)   # costs grow about as n^2.8
    WORD_LENGTHS = ramp(4, 60, 12, 4)

    def __init__(self, tr, workdir) -> None:
        self.path = os.path.join(workdir, "op.lstruct")
        self.cases = []
        for name, types in FOT_TYPES.items():
            term = builtin_term(name, *types)
            dom, cod = infer_type(term)
            self.cases.append(FotCase(name, builtin_fot(name, *types), term, dom, cod))
        self.cases.append(FotCase("ab_example", builtin_fot("ab_example"),
                                  None, None, None))

    def warm_up(self) -> None:
        for c in self.cases:
            small = Op(c.name, c, 1, "ab" if c.term is None else default_value(c.dom))
            self.run(Capture(), small)

    def make_ops(self, rng) -> list[Op]:
        ops = []
        for c in self.cases:
            if c.term is None:
                for n in self.WORD_LENGTHS:
                    word = "".join(rng.choice("ab") for _ in range(n))
                    ops.append(Op(c.name, c, n, word))
            else:
                for s in self.SIZES:
                    v = near_size(c.dom, s, rng)
                    ops.append(Op(c.name, c, value_size(v), v))
        rng.shuffle(ops)
        return ops

    def oracle(self, tr, op):
        c = op.obj
        if c.term is None:
            return tr.call("logic.oracle", lambda w: "".join(sorted(w)), op.arg)
        return tr.call("logic.oracle", eval_term, c.term, op.arg)

    def run(self, tr, op):
        c = op.obj
        if c.term is None:
            s = tr.call("logic.encode_value", word_structure, op.arg)
        else:
            s = tr.call("logic.encode_value", encode_value, op.arg, c.dom)
        tr.call("fileio.save_structure", save_structure, self.path, s)
        loaded = tr.call("fileio.load_structure", load_structure, self.path)
        out = tr.call(f"logic.apply.{c.name}", apply_transduction, c.fot, loaded)
        if c.term is None:
            return tr.call("logic.decode_structure", decode_word_structure, out)
        return tr.call("logic.decode_structure", decode_structure, out, c.cod)

    def render(self, op, out) -> str:
        return out if op.obj.term is None else render_value(out)

    def counts(self, ops):
        u_in = u_out = copies = size = 0
        for op in ops:
            cap = Capture()
            self.run(cap, op)
            n_in = len(cap.seen["logic.encode_value"].universe)
            u_in += n_in
            u_out += len(cap.seen[f"logic.apply.{op.obj.name}"].universe)
            copies += op.obj.fot.k * n_in
            size += os.path.getsize(self.path)
        return {"logic.universe_in": u_in, "logic.universe_out": u_out,
                "logic.kept_ratio": u_out / copies, "fileio.bytes": size}


WORKLOADS = {w.name: w for w in (Calculus, Rational, Registers, Transduction)}

