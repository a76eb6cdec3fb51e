"""Compile CMSO sentences to tree automata over concrete decomposition bags.

A sentence is compiled by induction over its structure.  An open
subformula with free variables X is handled on an enriched alphabet of
interpreted bags: each concrete bag additionally carries flags recording
which variables of X touch which labels (vertex variables) or the
realized edge (edge variables) at that position.

Flaggings are kept canonical so that boolean operations, in particular
complement, are sound:

  - an FO vertex variable is flagged on exactly one s-maximal component
    (and at most one label per bag),
  - an SO vertex variable is flagged per component all-or-nothing
    (saturation),
  - edge variables are flagged only at positions that realize an edge,
    and an FO edge variable at exactly one such position.

The validity automaton accepts exactly the canonical interpreted terms.
Each subformula is compiled over exactly its own free variables, which
keeps alphabets minimal deep in the formula.  Every boolean step is one
construction, `subset_product`: the validity automaton of the node's
scope in product with subset simulations of the operands, each lifted
to that scope by reading symbols through a flag-erasure map.  It
computes and, or, negation relative to validity, and the lift of an
operand into a scope with a variable it does not use.
Existential quantification is flag erasure (projection), and a final
erasure to the plain bag alphabet yields the sentence automaton.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product as iproduct

from ..decomp import bag_alphabet
from ..errors import AlphabetMismatchError, CmsoKindError
from ..tree_automata import TreeAutomaton, project, reduce_bisim, trim
from ..util import Budget, ChargedCache, gc_paused, osorted, register_cache
from .ast import (And, Card, Exists, FalseF, Forall, Iff, Implies, Inc, MemE,
                  MemV, Not, Or, TrueF, Var, VarEq, VarKind, free_vars,
                  standardize, substitute)


class InterpretedBag:
    """A concrete bag plus variable flags.

    vflags is a frozenset of (var, label) pairs for vertex-sort
    variables; eflags a frozenset of edge-sort variables flagged at this
    position.  Edge flags require a realized edge (b nonempty).
    """

    __slots__ = ("bag", "vflags", "eflags", "_hash")

    def __init__(self, bag, vflags=frozenset(), eflags=frozenset()):
        vflags = frozenset(vflags)
        eflags = frozenset(eflags)
        seen_fo = set()
        for pair in vflags:
            var, label = pair
            if not var.kind.is_vertex_sort:
                raise CmsoKindError(f"vertex flag on non-vertex variable {var!r}")
            if label not in bag.B:
                raise CmsoKindError(f"flag label {label} outside bag {bag!r}")
            if var.kind == VarKind.VERTEX:
                if var in seen_fo:
                    raise CmsoKindError(
                        f"FO vertex variable {var!r} flagged twice in one bag")
                seen_fo.add(var)
        for var in eflags:
            if var.kind.is_vertex_sort:
                raise CmsoKindError(f"edge flag on vertex variable {var!r}")
        if eflags and not bag.b:
            raise CmsoKindError("edge flags require a realized edge (b nonempty)")
        self.bag = bag
        self.vflags = vflags
        self.eflags = eflags
        self._hash = hash((bag, vflags, eflags))

    def __eq__(self, other):
        return (self is other) or (
            isinstance(other, InterpretedBag)
            and self._hash == other._hash
            and self.bag == other.bag
            and self.vflags == other.vflags
            and self.eflags == other.eflags)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.bag.sort_key(),
                tuple(sorted((v.sort_key(), s) for v, s in self.vflags)),
                tuple(sorted(v.sort_key() for v in self.eflags)))

    def __repr__(self):
        vf = ",".join(f"{v.name}@{s}" for v, s in
                      sorted(self.vflags, key=lambda p: (p[0].sort_key(), p[1])))
        ef = ",".join(v.name for v in sorted(self.eflags, key=Var.sort_key))
        return f"{self.bag!r}[{vf}|{ef}]"

    def to_obj(self):
        return {"k": "ibag", "B": osorted(self.bag.B), "b": osorted(self.bag.b),
                "vf": sorted([[v.name, v.kind.value, s] for v, s in self.vflags]),
                "ef": sorted([[v.name, v.kind.value] for v in self.eflags])}


def _xtuple(xvars):
    return tuple(sorted(set(xvars), key=Var.sort_key))


_ALPHABET_CACHE = register_cache({})


def interpreted_alphabet(t: int, xvars) -> tuple:
    """All interpreted bags over B(t) with flags for the variables xvars."""
    xs = _xtuple(xvars)
    key = (t, xs)
    cached = _ALPHABET_CACHE.get(key)
    if cached is not None:
        return cached
    symbols = []
    for cb in bag_alphabet(t):
        labels = osorted(cb.B)
        has_edge = bool(cb.b)
        option_lists = []
        for v in xs:
            if v.kind == VarKind.VERTEX:
                option_lists.append([None] + labels)
            elif v.kind == VarKind.VERTEX_SET:
                subs = [comb for k in range(len(labels) + 1)
                        for comb in combinations(labels, k)]
                option_lists.append(subs)
            else:
                option_lists.append([False, True] if has_edge else [False])
        for combo in iproduct(*option_lists):
            vf = []
            ef = []
            for v, choice in zip(xs, combo):
                if v.kind == VarKind.VERTEX:
                    if choice is not None:
                        vf.append((v, choice))
                elif v.kind == VarKind.VERTEX_SET:
                    vf.extend((v, s) for s in choice)
                elif choice:
                    ef.append(v)
            symbols.append(InterpretedBag(cb, frozenset(vf), frozenset(ef)))
    result = tuple(osorted(symbols))
    _ALPHABET_CACHE[key] = result
    return result


def _erase_map(t, xs_from, xs_to):
    """dict mapping each symbol over xs_from to its erasure onto xs_to."""
    keep = set(xs_to)
    return {sym: InterpretedBag(
                sym.bag,
                frozenset(p for p in sym.vflags if p[0] in keep),
                frozenset(v for v in sym.eflags if v in keep))
            for sym in interpreted_alphabet(t, xs_from)}


_VALIDITY_CACHE = ChargedCache("validity")


def validity_automaton(t: int, xvars, budget=None) -> TreeAutomaton:
    """Automaton accepting exactly the canonical interpreted terms.

    Bottom-up state: (B, vflags, closed, eseen) where closed is the set
    of FO vertex variables whose flagged component has already closed
    and eseen the set of FO edge variables whose flag has been read.
    A transition from child states to a parent symbol checks arc
    continuity: on every label shared between a child root bag and the
    parent bag, the vertex flags must agree exactly (components neither
    gain nor lose a variable while alive).
    """
    xs = _xtuple(xvars)
    if budget is None:
        budget = Budget()
    aut, _ = _VALIDITY_CACHE.fetch(
        (t, xs), budget, lambda: _build_validity(t, xs, budget))
    return aut


def _build_validity(t, xs, budget):
    """Emits each transition once: the pop of c pairs it per symbol with
    the partners filed before it and with c itself, once for (c, c)."""
    alphabet = interpreted_alphabet(t, xs)
    fo_v = frozenset(v for v in xs if v.kind == VarKind.VERTEX)
    fo_e = frozenset(v for v in xs if v.kind == VarKind.EDGE)

    syminfo = []
    for sym in alphabet:
        open_fo = frozenset(v for v, _ in sym.vflags if v.kind == VarKind.VERTEX)
        new_e = frozenset(v for v in sym.eflags if v.kind == VarKind.EDGE)
        syminfo.append((sym, sym.bag.B, sym.vflags, open_fo, new_e))

    states = {}
    transitions = []
    queue = deque()
    # per symbol index: signature (closed-after, eseen) -> child states
    buckets = [dict() for _ in syminfo]

    def add_state(st):
        if st not in states:
            states[st] = None
            queue.append(st)

    def emit(children, sym, tgt):
        transitions.append((children, sym, tgt))
        budget.spend(1, "validity")

    for sym, B, vfl, open_fo, new_e in syminfo:
        st = (B, vfl, frozenset(), new_e)
        emit((), sym, st)
        add_state(st)

    while queue:
        c = queue.popleft()
        c_B, c_vfl, c_closed, c_eseen = c
        for i, (sym, B, vfl, open_fo, new_e) in enumerate(syminfo):
            shared = c_B & B
            if shared:
                child_side = {p for p in c_vfl if p[1] in shared}
                parent_side = {p for p in vfl if p[1] in shared}
                if child_side != parent_side:
                    continue
            closings = frozenset(z for z, s in c_vfl
                                 if s not in B and z in fo_v)
            if closings & c_closed:
                continue
            prog = c_closed | closings
            if prog & open_fo:
                continue
            if c_eseen & new_e:
                continue
            tgt = (B, vfl, prog, c_eseen | new_e)
            emit((c,), sym, tgt)
            add_state(tgt)

            sig = (prog, c_eseen)
            bucket = buckets[i]
            bucket.setdefault(sig, []).append(c)
            for (prog2, eseen2), partners in bucket.items():
                if prog & prog2:
                    continue
                both_closed = prog | prog2
                if both_closed & open_fo:
                    continue
                if c_eseen & eseen2:
                    continue
                both_eseen = c_eseen | eseen2
                if both_eseen & new_e:
                    continue
                tgt2 = (B, vfl, both_closed, both_eseen | new_e)
                for d in partners:
                    emit((c, d), sym, tgt2)
                    if d is not c:
                        emit((d, c), sym, tgt2)
                add_state(tgt2)

    final = []
    for st in states:
        _, vfl, closed, eseen = st
        if eseen != fo_e:
            continue
        open_now = frozenset(z for z, _ in vfl if z in fo_v)
        if all((x in closed) != (x in open_now) for x in fo_v):
            final.append(st)

    return trim(TreeAutomaton.raw(alphabet, states, final, transitions), budget)


def functional_product(base, leaf_f, unary_f, binary_f, final_f, budget, stage):
    """Product of a materialized automaton with a functional one.

    The functional side is given by step functions returning the next
    functional state or None to reject.  The result runs over
    base.alphabet; a product state (q, m) is final iff q is base-final
    and final_f(m) holds.

    Each product state is numbered when it is discovered: the result's
    states are the dense ids 0..n-1 in discovery order, not (q, m) pairs.
    Discovery order, transition order and the `budget.spend` calls are
    those of the pairs, and `to_json` numbers states by position, so the
    dump is the one the pairs would give.

    States are popped in id order. The pop of state i joins i, once per
    binary rule, with a snapshot of the partners discovered so far, and
    skips those that met i at their own pop: each pair of states meets
    once per rule, with the same emissions. Say the pop of `born` found i.
    A partner popped after `born` and before i met i at its own pop; so
    did `born` if its snapshot for the rule came after it found i; and on
    the right, so did i itself, on the left. Base transitions are distinct
    and the steps deterministic, so each transition is appended once.
    """
    bidx = {q: i for i, q in enumerate(base.states)}
    leaf_trans = []
    un_by_child = {}
    bin_by_left = {}   # left child -> [(right child, rule, slot)]
    bin_by_right = {}  # right child -> [(left child, rule, slot)]
    for children, sym, tgt in base.transitions:
        rule = (sym, bidx[tgt])
        if not children:
            leaf_trans.append(rule)
        elif len(children) == 1:
            un_by_child.setdefault(bidx[children[0]], []).append(rule)
        else:
            l, r = bidx[children[0]], bidx[children[1]]
            by_l = bin_by_left.setdefault(l, [])
            by_r = bin_by_right.setdefault(r, [])
            by_l.append((r, rule, len(by_r)))
            by_r.append((l, rule, len(by_l) - 1))
    # The pop of a state over base state q takes its partner snapshots
    # in the order of q's rules by left child, then by right child. An
    # entry's slot is the position of its rule in that order for the
    # partner's base state, where the partner is on the other side.
    for l, entries in bin_by_left.items():
        bin_by_left[l] = [(r, rule, len(bin_by_left.get(r, ())) + slot)
                          for r, rule, slot in entries]

    ids = {}          # (base state, m) -> product state id
    discovered = {}   # base state -> [(m, id)] in discovery order
    transitions = []  # (children ids, symbol, target id)
    queue = deque()   # (base state, m, id, born, seen), see the loop
    popped = -1       # the state being popped; -1 while seeding leaves
    snaps = 0         # partner snapshots taken so far by that pop

    def emit(children, sym, qb, m):
        """Transition into product state (qb, m), numbering it if new."""
        st = (qb, m)
        tgt = ids.get(st)
        if tgt is None:
            tgt = ids[st] = len(ids)
            discovered.setdefault(qb, []).append((m, tgt))
            queue.append((qb, m, tgt, popped, snaps))
        transitions.append((children, sym, tgt))
        budget.spend(1, stage)

    for sym, tgt in leaf_trans:
        m = leaf_f(sym)
        if m is None:
            continue
        emit((), sym, tgt, m)

    # state i was found by the pop of `born` (-1 for leaves) after `seen`
    # of its snapshots, so its snapshots from slot `seen` on held i
    while queue:
        qb, m, i, born, seen = queue.popleft()
        popped, snaps = i, 0
        for sym, tgt in un_by_child.get(qb, ()):
            m2 = unary_f(m, sym)
            if m2 is None:
                continue
            emit((i,), sym, tgt, m2)
        for qb2, (sym, tgt), slot in bin_by_left.get(qb, ()):
            met = seen <= slot
            snaps += 1
            for m2, i2 in tuple(discovered.get(qb2, ())):
                if born < i2 < i or met and i2 == born:
                    continue
                mm = binary_f(m, m2, sym)
                if mm is None:
                    continue
                emit((i, i2), sym, tgt, mm)
        for qb1, (sym, tgt), slot in bin_by_right.get(qb, ()):
            met = seen <= slot
            snaps += 1
            for m1, i1 in tuple(discovered.get(qb1, ())):
                if born < i1 <= i or met and i1 == born:
                    continue
                mm = binary_f(m1, m, sym)
                if mm is None:
                    continue
                emit((i1, i), sym, tgt, mm)

    base_final = {bidx[q] for q in base.final}
    final = [i for (qb, m), i in ids.items() if qb in base_final and final_f(m)]
    return TreeAutomaton.raw(base.alphabet, range(len(ids)), final, transitions)


class _SubsetSim:
    """Subset simulation of an automaton, optionally reading the driving
    symbols through an erasure map (to lift over a larger alphabet)."""

    def __init__(self, other, erase=None):
        self.alphabet = other.alphabet
        self.final = frozenset(other.final)
        self.erase = erase
        leaf_by_sym = {}
        un = {}
        bn = {}
        for children, sym, tgt in other.transitions:
            if not children:
                leaf_by_sym.setdefault(sym, set()).add(tgt)
            elif len(children) == 1:
                un.setdefault(sym, {}).setdefault(children[0], []).append(tgt)
            else:
                l, r = children
                bn.setdefault(sym, {}).setdefault(l, {}).setdefault(r, []).append(tgt)
        self.leaf_by_sym = {s: frozenset(v) for s, v in leaf_by_sym.items()}
        self.un = un
        self.bn = bn
        self.bcache = {}

    def sym(self, sym):
        return self.erase[sym] if self.erase is not None else sym

    def leaf(self, sym):
        return self.leaf_by_sym.get(self.sym(sym), frozenset())

    def unary(self, s, sym):
        d = self.un.get(self.sym(sym))
        acc = set()
        if d:
            for q in s:
                acc.update(d.get(q, ()))
        return frozenset(acc)

    def binary(self, s1, s2, sym):
        sym = self.sym(sym)
        key = (s1, s2, sym)
        out = self.bcache.get(key)
        if out is None:
            d = self.bn.get(sym)
            acc = set()
            if d:
                for q1 in s1:
                    row = d.get(q1)
                    if row:
                        for q2 in s2:
                            acc.update(row.get(q2, ()))
            out = frozenset(acc)
            self.bcache[key] = out
        return out

    def hit(self, s):
        return bool(s & self.final)


def subset_product(val, sims, mode, budget):
    """Product of the validity automaton with subset simulations.

    A product state pairs a state of val with one subset per simulation.
    mode "and" accepts when every simulation hits a final state, and
    prunes the states where some simulation dies. mode "or" accepts when
    at least one hits. mode "not" accepts when none hits: with one
    simulation it is L(val) minus the operand's language, the canonical
    complement. The budget stage is "not" for "not" and "combine" for
    "and" and "or". A simulation read without an erasure map must run
    over val's alphabet.
    """
    for sim in sims:
        if sim.erase is None and sim.alphabet != val.alphabet:
            raise AlphabetMismatchError(
                f"{mode}: operand and validity alphabets differ")
    if mode == "and":
        def leaf_f(sym):
            out = []
            for sim in sims:
                s = sim.leaf(sym)
                if not s:
                    return None
                out.append(s)
            return tuple(out)

        def unary_f(m, sym):
            out = []
            for s, sim in zip(m, sims):
                s2 = sim.unary(s, sym)
                if not s2:
                    return None
                out.append(s2)
            return tuple(out)

        def binary_f(m1, m2, sym):
            out = []
            for s1, s2, sim in zip(m1, m2, sims):
                s3 = sim.binary(s1, s2, sym)
                if not s3:
                    return None
                out.append(s3)
            return tuple(out)

        def final_f(m):
            return all(map(_SubsetSim.hit, sims, m))
    else:  # loops, not generators: negation runs these steps most
        def leaf_f(sym):
            return tuple(sim.leaf(sym) for sim in sims)

        def unary_f(m, sym):
            out = []
            for s, sim in zip(m, sims):
                out.append(sim.unary(s, sym))
            return tuple(out)

        def binary_f(m1, m2, sym):
            out = []
            for s1, s2, sim in zip(m1, m2, sims):
                out.append(sim.binary(s1, s2, sym))
            return tuple(out)

        if mode == "or":
            def final_f(m):
                return any(map(_SubsetSim.hit, sims, m))
        else:
            def final_f(m):
                return not any(map(_SubsetSim.hit, sims, m))

    return functional_product(val, leaf_f, unary_f, binary_f, final_f, budget,
                              "not" if mode == "not" else "combine")


def _pointwise_steps(pred):
    cache = {}

    def ok(sym):
        r = cache.get(sym)
        if r is None:
            r = pred(sym)
            cache[sym] = r
        return r

    def leaf_f(sym):
        return 0 if ok(sym) else None

    def unary_f(m, sym):
        return 0 if ok(sym) else None

    def binary_f(m1, m2, sym):
        return 0 if ok(sym) else None

    return leaf_f, unary_f, binary_f, lambda m: True


def _vertex_flags(sym, var):
    return frozenset(s for z, s in sym.vflags if z == var)


def _atom_steps(phi):
    """Step functions for an atomic formula, to be run against validity."""
    if isinstance(phi, VarEq):
        z1, z2 = phi.left, phi.right
        if z1.kind.is_vertex_sort:
            return _pointwise_steps(
                lambda sym: _vertex_flags(sym, z1) == _vertex_flags(sym, z2))
        return _pointwise_steps(
            lambda sym: (z1 in sym.eflags) == (z2 in sym.eflags))
    if isinstance(phi, MemV):
        x, big = phi.elem, phi.container
        return _pointwise_steps(
            lambda sym: _vertex_flags(sym, x) <= _vertex_flags(sym, big))
    if isinstance(phi, MemE):
        y, big = phi.elem, phi.container
        return _pointwise_steps(
            lambda sym: (y not in sym.eflags) or (big in sym.eflags))
    if isinstance(phi, Inc):
        x, y = phi.vertex, phi.edge

        def witness(sym):
            if y not in sym.eflags:
                return 0
            b = sym.bag.b
            return 1 if any(z == x and s in b for z, s in sym.vflags) else 0

        return (lambda sym: witness(sym),
                lambda m, sym: m | witness(sym),
                lambda m1, m2, sym: m1 | m2 | witness(sym),
                lambda m: m == 1)
    if isinstance(phi, Card):
        a, r, zv = phi.a, phi.r, phi.setvar
        if zv.kind == VarKind.EDGE_SET:
            def cnt(sym):
                return 1 if zv in sym.eflags else 0

            return (lambda sym: cnt(sym) % r,
                    lambda m, sym: (m + cnt(sym)) % r,
                    lambda m1, m2, sym: (m1 + m2 + cnt(sym)) % r,
                    lambda m: m == a)

        # vertex-set cardinality: count flagged components as they close
        def leaf_f(sym):
            return (sym.bag.B, _vertex_flags(sym, zv), 0)

        def unary_f(m, sym):
            newB = sym.bag.B
            closing = sum(1 for s in m[1] if s not in newB)
            return (newB, _vertex_flags(sym, zv), (m[2] + closing) % r)

        def binary_f(m1, m2, sym):
            newB = sym.bag.B
            closing = sum(1 for s in m1[1] if s not in newB)
            closing += sum(1 for s in m2[1] if s not in newB)
            return (newB, _vertex_flags(sym, zv),
                    (m1[2] + m2[2] + closing) % r)

        def final_f(m):
            return (m[2] + len(m[1])) % r == a

        return leaf_f, unary_f, binary_f, final_f
    raise CmsoKindError(f"not an atomic formula: {phi!r}")


class _Compiler:
    """Recursive compiler; each node is compiled over exactly its free
    variables, with on-the-fly lifting where operands meet."""

    def __init__(self, t, budget):
        self.t = t
        self.budget = budget
        self.memo = {}

    def validity(self, xs):
        return validity_automaton(self.t, xs, self.budget)

    def shrink(self, aut):
        return reduce_bisim(trim(aut, self.budget), self.budget)

    def combine(self, mode, xs, *operands):
        """`subset_product` of validity(xs) with the operands, shrunk.

        Each operand is (automaton, its scope); one over a narrower scope
        is lifted into xs by reading each symbol through a flag erasure.
        """
        sims = [_SubsetSim(aut, None if own_xs == xs
                           else _erase_map(self.t, xs, own_xs))
                for aut, own_xs in operands]
        return self.shrink(subset_product(self.validity(xs), sims, mode,
                                          self.budget))

    def go(self, phi):
        cached = self.memo.get(phi)
        if cached is not None:
            return cached
        out = self.dispatch(phi)
        self.memo[phi] = out
        return out

    def dispatch(self, phi):
        xs = _xtuple(free_vars(phi))
        if isinstance(phi, TrueF):
            return self.validity(xs)
        if isinstance(phi, FalseF):
            return TreeAutomaton(interpreted_alphabet(self.t, xs), (), (), ())
        if isinstance(phi, (VarEq, MemV, MemE, Inc, Card)):
            return self.shrink(functional_product(
                self.validity(xs), *_atom_steps(phi), self.budget, "atom"))
        if isinstance(phi, Not):
            if isinstance(phi.body, Not):
                return self.go(phi.body.body)
            return self.combine("not", xs, (self.go(phi.body), xs))
        if isinstance(phi, (And, Or)):
            mode = "and" if isinstance(phi, And) else "or"
            a = self.go(phi.left)
            b = self.go(phi.right)
            return self.combine(mode, xs, (a, _xtuple(free_vars(phi.left))),
                                (b, _xtuple(free_vars(phi.right))))
        if isinstance(phi, Implies):
            return self.go(Or(Not(phi.left), phi.right))
        if isinstance(phi, Iff):
            l, r = phi.left, phi.right
            return self.go(Or(And(l, r), And(Not(l), Not(r))))
        if isinstance(phi, Exists):
            return self.exists(phi.var, phi.body)
        if isinstance(phi, Forall):
            # collapse the maximal forall block to one complement:
            # forall x1..xk psi  =  not exists x1..xk not psi.  Projections
            # are cheap; complementing once at the block's outer scope keeps
            # the subset construction on the smallest possible alphabet.
            binders = []
            body = phi
            while isinstance(body, Forall):
                binders.append(body.var)
                body = body.body
            scope = free_vars(body)
            binders = [var for var in binders
                       if not _vacuous_set_binder(var, scope)]
            if not binders:
                return self.go(body)
            inner = body.body if isinstance(body, Not) else Not(body)
            aut = self.go(inner)
            cur_xs = _xtuple(free_vars(inner))
            for var in reversed(binders):
                aut, cur_xs = self.project_var(var, aut, cur_xs)
            return self.combine("not", xs, (aut, cur_xs))
        raise CmsoKindError(f"not a formula: {phi!r}")

    def exists(self, var, body):
        """Automaton for (exists var. body) over free(body) minus var."""
        if _vacuous_set_binder(var, free_vars(body)):
            return self.go(body)
        z = _eq_partner(var, body)
        if z is not None:
            # exists w (psi /\ w = z)  ==  psi[w := z]; one variable less
            # in every scope below makes the alphabets drastically smaller
            return self.go(substitute(body, var, z))
        inner = self.go(body)
        aut, _ = self.project_var(var, inner, _xtuple(free_vars(body)))
        return aut

    def project_var(self, var, aut, body_xs):
        """Erase one variable's flags; returns (automaton, its scope)."""
        inner_xs = _xtuple(set(body_xs) | {var})
        if body_xs != inner_xs:
            # vacuous first-order binder: lift so validity still demands
            # a vertex or an edge
            aut = self.combine("and", inner_xs, (aut, body_xs))
        outer_xs = _xtuple(set(inner_xs) - {var})
        target = interpreted_alphabet(self.t, outer_xs)
        erase = _erase_map(self.t, inner_xs, outer_xs)
        out = self.shrink(project(aut, lambda sym: erase[sym], target))
        return out, outer_xs


def _vacuous_set_binder(var, scope):
    """Whether a binder of var over a body with free variables `scope`
    may be dropped: exists A. psi and forall A. psi are psi when the set
    variable A is not free in psi, since the empty set always exists. A
    vacuous first-order binder still asks for some vertex or edge."""
    return var.kind.is_set and var not in scope


def _eq_partner(var, body):
    """A variable z != var with a conjunct var = z on body's And-spine."""
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, VarEq):
            if node.left == var and node.right != var:
                return node.right
            if node.right == var and node.left != var:
                return node.left
    return None


def compile_open(phi, t: int, xvars, budget=None) -> TreeAutomaton:
    """Automaton over interpreted bags for an open formula with free
    variables among xvars."""
    if t < 1:
        raise CmsoKindError("label count t must be >= 1")
    xs = _xtuple(xvars)
    missing = free_vars(phi) - set(xs)
    if missing:
        names = ", ".join(repr(v) for v in sorted(missing, key=Var.sort_key))
        raise CmsoKindError(f"free variables not in scope: {names}")
    phi = standardize(phi, avoid=[v.name for v in xs])
    if budget is None:
        budget = Budget()
    comp = _Compiler(t, budget)
    aut = comp.go(phi)
    own_xs = _xtuple(free_vars(phi))
    if own_xs == xs:
        return aut
    return comp.combine("and", xs, (aut, own_xs))


_COMPILE_CACHE = ChargedCache("compile")


@gc_paused()
def compile(phi, t: int, budget=None) -> TreeAutomaton:
    """Automaton over B(t) accepting exactly the t-label decomposition
    terms whose decoded graph satisfies the sentence phi.

    Results are cached per (phi, t); a hit is charged to the budget at
    its cold cost, as `Budget` describes. Runs with the cyclic garbage
    collector paused, as `util.gc_paused` describes."""
    if free_vars(phi):
        raise CmsoKindError("compile requires a sentence (no free variables)")
    if budget is None:
        budget = Budget()
    aut, _ = _COMPILE_CACHE.fetch(
        (phi, t), budget, lambda: _compile_sentence(phi, t, budget))
    return aut


def is_compiled(phi, t: int) -> bool:
    """Whether compile(phi, t) would be answered from the cache."""
    return (phi, t) in _COMPILE_CACHE


def _compile_sentence(phi, t, budget):
    aut = compile_open(phi, t, (), budget)
    base_of = {sym: sym.bag for sym in aut.alphabet}
    return reduce_bisim(trim(project(aut, lambda sym: base_of[sym],
                                     bag_alphabet(t)), budget), budget)
