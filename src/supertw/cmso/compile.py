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
construction: a step machine run against the validity automaton of its
scope by `functional_product` (`_step_machine`).  Its leaves are atoms,
exists e. inc(x1, e) and ... and inc(xk, e) (an edge on which every xi
is flagged, so no scope with e), forall x. P(x) for the atoms P that
make it pointwise over the outer scope (x in A, e in E, inc(x, e) bound
at e), and compiled operands, read by subset simulation (`_SubsetSim`)
and lifted into the scope through a flag-erasure map when theirs is
narrower.  Its state is the tuple of the leaves' states, which never
reject except where a sticky bit, an emptied subset or a subset holding
a sure state (one from which the operand accepts in every context)
dooms the whole formula, so negation flips a final test, and the
states a step rejects are all states trim would drop.  A step-shaped
subformula, any boolean combination of the atom-like leaves, is one
machine with no subset construction; any other not, and or or runs one
over its operands, each compiled and shrunk first, and so does the
lift of an operand into a scope with a variable it does not use.
Existential quantification is flag erasure (projection), one per
quantifier block, and a final erasure to the plain bag alphabet yields
the sentence automaton.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import cached_property
from itertools import combinations, product as iproduct

from ..decomp import bag_alphabet
from ..errors import AlphabetMismatchError, CmsoKindError
from ..tree_automata import (TreeAutomaton, int_columns, project,
                             reduce_bisim, trim)
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
    """Numbers each state (B, vflags, closed, eseen) when it is first
    found, so the automaton's states are 0..n-1 in discovery order and its
    transitions int columns over those ids: `to_json` numbers the states
    by position, so the dump is the one the tuple states gave. A target
    is numbered before its transition is emitted.

    Emits each transition once: the pop of c pairs it per symbol with
    the partners filed before it and with c itself, once for (c, c)."""
    alphabet = interpreted_alphabet(t, xs)
    fo_v = frozenset(v for v in xs if v.kind == VarKind.VERTEX)
    fo_e = frozenset(v for v in xs if v.kind == VarKind.EDGE)

    syminfo = []
    for sym in alphabet:
        open_fo = frozenset(v for v, _ in sym.vflags if v.kind == VarKind.VERTEX)
        new_e = frozenset(v for v in sym.eflags if v.kind == VarKind.EDGE)
        syminfo.append((sym.bag.B, sym.vflags, open_fo, new_e))

    ids = {}          # state -> id, in discovery order
    keys = []         # id -> state
    cols = int_columns()  # (left, right, symbol position, target id)
    add_l, add_r, add_s, add_q = (col.append for col in cols)
    queue = deque()
    # per symbol index: signature (closed-after, eseen) -> child ids
    buckets = [dict() for _ in syminfo]

    def number(st):
        i = ids.get(st)
        if i is None:
            i = ids[st] = len(keys)
            keys.append(st)
            queue.append(i)
        return i

    def emit(l, r, si, tgt):
        add_l(l)
        add_r(r)
        add_s(si)
        add_q(tgt)
        budget.spend(1, "validity")

    for i, (B, vfl, open_fo, new_e) in enumerate(syminfo):
        emit(-1, -1, i, number((B, vfl, frozenset(), new_e)))

    while queue:
        c = queue.popleft()
        c_B, c_vfl, c_closed, c_eseen = keys[c]
        for i, (B, vfl, open_fo, new_e) in enumerate(syminfo):
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
            emit(c, -1, i, number((B, vfl, prog, c_eseen | new_e)))

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
                tgt2 = number((B, vfl, both_closed, both_eseen | new_e))
                for d in partners:
                    emit(c, d, i, tgt2)
                    if d != c:
                        emit(d, c, i, tgt2)

    final = []
    for i, (_, vfl, closed, eseen) in enumerate(keys):
        if eseen != fo_e:
            continue
        open_now = frozenset(z for z, _ in vfl if z in fo_v)
        if all((x in closed) != (x in open_now) for x in fo_v):
            final.append(i)

    return trim(TreeAutomaton.from_columns(alphabet, range(len(keys)), final,
                                           cols), budget)


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

    The base is read from its columns, by state position. Its binary
    rules are indexed per base state in int columns: one flat
    `array("i")` per side, four ints per rule (other child, symbol
    position, target, slot), read four at a time. The slots of the left
    side are fixed up in place once the pass has counted every state's
    left rules. The result's transitions are emitted as int columns.
    """
    alphabet = base.alphabet
    leaf_trans = []
    un_by_child = {}
    # base state -> its binary rules by left (right) child, flat int
    # columns: (right (left) child, symbol position, target, slot) each
    bin_by_left = {}
    bin_by_right = {}
    for l, r, si, q in zip(*base.columns):
        if l < 0:
            leaf_trans.append((si, q))
        elif r < 0:
            un_by_child.setdefault(l, []).append((si, q))
        else:
            by_l = bin_by_left.get(l)
            if by_l is None:
                by_l = bin_by_left[l] = array("i")
            by_r = bin_by_right.get(r)
            if by_r is None:
                by_r = bin_by_right[r] = array("i")
            by_l.extend((r, si, q, len(by_r) >> 2))
            by_r.extend((l, si, q, (len(by_l) >> 2) - 1))
    # The pop of a state over base state q takes its partner snapshots
    # in the order of q's rules by left child, then by right child. An
    # entry's slot is the position of its rule in that order for the
    # partner's base state, where the partner is on the other side: a
    # left entry's slot gains the count of its partner's left rules.
    for cols in bin_by_left.values():
        for k in range(3, len(cols), 4):
            other = bin_by_left.get(cols[k - 3])
            if other is not None:
                cols[k] += len(other) >> 2

    ids = {}          # (base state, m) -> product state id
    discovered = {}   # base state -> [(m, id)] in discovery order
    cols = int_columns()  # (left, right, symbol position, target id)
    add_l, add_r, add_s, add_q = (col.append for col in cols)
    queue = deque()   # (base state, m, id, born, seen), see the loop
    popped = -1       # the state being popped; -1 while seeding leaves
    snaps = 0         # partner snapshots taken so far by that pop

    def emit(l, r, si, qb, m):
        """Transition into product state (qb, m), numbering it if new."""
        st = (qb, m)
        tgt = ids.get(st)
        if tgt is None:
            tgt = ids[st] = len(ids)
            discovered.setdefault(qb, []).append((m, tgt))
            queue.append((qb, m, tgt, popped, snaps))
        add_l(l)
        add_r(r)
        add_s(si)
        add_q(tgt)
        budget.spend(1, stage)

    for si, tgt in leaf_trans:
        m = leaf_f(alphabet[si])
        if m is None:
            continue
        emit(-1, -1, si, tgt, m)

    # state i was found by the pop of `born` (-1 for leaves) after `seen`
    # of its snapshots, so its snapshots from slot `seen` on held i
    while queue:
        qb, m, i, born, seen = queue.popleft()
        popped, snaps = i, 0
        for si, tgt in un_by_child.get(qb, ()):
            m2 = unary_f(m, alphabet[si])
            if m2 is None:
                continue
            emit(i, -1, si, tgt, m2)
        it = iter(bin_by_left.get(qb, ()))
        for qb2, si, tgt, slot in zip(it, it, it, it):
            sym = alphabet[si]
            met = seen <= slot
            snaps += 1
            for m2, i2 in tuple(discovered.get(qb2, ())):
                if born < i2 < i or met and i2 == born:
                    continue
                mm = binary_f(m, m2, sym)
                if mm is None:
                    continue
                emit(i, i2, si, tgt, mm)
        it = iter(bin_by_right.get(qb, ()))
        for qb1, si, tgt, slot in zip(it, it, it, it):
            sym = alphabet[si]
            met = seen <= slot
            snaps += 1
            for m1, i1 in tuple(discovered.get(qb1, ())):
                if born < i1 <= i or met and i1 == born:
                    continue
                mm = binary_f(m1, m, sym)
                if mm is None:
                    continue
                emit(i1, i, si, tgt, mm)

    base_final = base.final_ids
    final = [i for (qb, m), i in ids.items() if qb in base_final and final_f(m)]
    return TreeAutomaton.from_columns(alphabet, range(len(ids)), final, cols)


class _SubsetSim:
    """Subset simulation of an automaton, optionally reading the driving
    symbols through an erasure map (to lift over a larger alphabet): the
    leaf of `_step_machine` for a compiled operand, whose steps are the
    simulation's and whose final test is `hit`.

    Subsets hold the operand's state positions, read from its columns,
    which are its states when they are 0..n-1. `binary` interns each
    subset it computes in `subsets`, so its cache values and the product
    states built from them share one frozenset per distinct subset. The
    table lives and dies with the simulation.

    `sure` holds operand states from which every context accepts, for
    the steps of a complement (`_sim_steps`). It is computed on first
    use, and each of its fixpoint rounds checks the deadline of `budget`
    under the stage "not"."""

    def __init__(self, other, erase=None, budget=None):
        alphabet = other.alphabet
        self.alphabet = alphabet
        self.final = other.final_ids
        self.erase = erase
        self.budget = budget
        leaf_by_sym = {}
        un = {}
        bn = {}
        for l, r, si, tgt in zip(*other.columns):
            sym = alphabet[si]
            if l < 0:
                leaf_by_sym.setdefault(sym, set()).add(tgt)
            elif r < 0:
                un.setdefault(sym, {}).setdefault(l, []).append(tgt)
            else:
                bn.setdefault(sym, {}).setdefault(l, {}).setdefault(r, []).append(tgt)
        self.leaf_by_sym = {s: frozenset(v) for s, v in leaf_by_sym.items()}
        self.un = un
        self.bn = bn
        self.bcache = {}
        self.subsets = {}

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
            out = self.bcache[key] = self.subsets.setdefault(out, out)
        return out

    def hit(self, s):
        return bool(s & self.final)

    def sure_partners(self, s, sym):
        """The states q2 such that `binary(s, s2, sym)` holds a sure state
        exactly when s2 meets them: the test of that subset without
        building it."""
        d = self.bn.get(self.sym(sym))
        sure = self.sure
        out = set()
        if d:
            for q1 in s:
                row = d.get(q1)
                if row:
                    out.update(q2 for q2, targets in row.items()
                               if not sure.isdisjoint(targets))
        return frozenset(out)

    @cached_property
    def sure(self):
        """The final states p from which every context accepts: the
        greatest set of final states in which, under every symbol, p's
        unary step and its binary steps with each state n of the cover,
        on either side, each reach a state of the set.

        Why a subset S that holds a sure state p is hit in every context:
        every subset the simulation reaches meets the cover (`_cover`),
        so at each step up the context the sibling subset holds some n,
        and the step of p with n reaches a sure state again. At the root
        the subset still holds one, and sure states are final. Empty when
        there is no cover."""
        budget = self.budget or Budget()
        unaries = [self.un.get(sym, {}) for sym in self.alphabet]
        binaries = [self.bn.get(sym, {}) for sym in self.alphabet]
        cover = self._cover(unaries, binaries, budget)
        if not cover:
            return frozenset()

        def stays(p):
            for un, bn in zip(unaries, binaries):
                if sure.isdisjoint(un.get(p, ())):
                    return False
                row = bn.get(p, {})
                for n in cover:
                    if (sure.isdisjoint(row.get(n, ()))
                            or sure.isdisjoint(bn.get(n, {}).get(p, ()))):
                        return False
            return True

        sure = set(self.final)
        while True:
            budget.check_time("not")
            drop = [p for p in sure if not stays(p)]
            if not drop:
                return frozenset(sure)
            sure.difference_update(drop)

    def _cover(self, unaries, binaries, budget):
        """A set N of states that every leaf step over the operand's
        alphabet meets and that every unary and binary step out of N meets
        again, so every subset the simulation reaches meets N; None if
        this construction finds none. unaries and binaries hold the
        operand's rules per symbol of its alphabet. N starts from the
        least leaf target per symbol and gains the least target of each
        step out of N that misses it, always among the states with a
        unary rule under every symbol; a round that adds nothing has
        checked the closure."""
        able = set.intersection(*(set(d) for d in unaries)) if unaries else set()
        cover = set()

        def pick(targets):
            return min((q for q in targets if q in able), default=None)

        for sym in self.alphabet:
            targets = self.leaf_by_sym.get(sym, ())
            if cover.isdisjoint(targets):
                q = pick(targets)
                if q is None:
                    return None
                cover.add(q)
        while True:
            budget.check_time("not")
            found = set()
            order = sorted(cover)
            for n in order:
                steps = [d[n] for d in unaries]
                for bn in binaries:
                    row = bn.get(n, {})
                    steps.extend(row.get(n2, ()) for n2 in order)
                for targets in steps:
                    if cover.isdisjoint(targets):
                        q = pick(targets)
                        if q is None:
                            return None
                        found.add(q)
            if not found:
                return cover
            cover |= found


def _sim_steps(sim, dooms):
    """Steps of a compiled operand read by its subset simulation `sim`.
    An empty subset decides the operand false; when that dooms the whole
    formula (`_step_machine`) the steps reject instead of reaching it.
    A subset that holds a sure state (`_SubsetSim.sure`) decides it true
    in every context; when that dooms the formula, as under a not, the
    steps reject it too, a binary step by `sure_partners` before the
    subset is built.

    Either way a rejected state can reach no final product state, and
    every step out of it would be rejected too (an emptied subset stays
    empty, one that holds a sure state holds one after each step), so
    no surviving state is found through it. The survivors are found, and
    their transitions emitted, in the order they were without rejection,
    and `trim` gives the same automaton byte for byte."""
    if dooms is False:
        return (lambda sym: sim.leaf(sym) or None,
                lambda m, sym: sim.unary(m, sym) or None,
                lambda m1, m2, sym: sim.binary(m1, m2, sym) or None,
                sim.hit)
    sure = sim.sure if dooms is True else None
    if not sure:
        return sim.leaf, sim.unary, sim.binary, sim.hit

    def leaf_f(sym):
        s = sim.leaf(sym)
        return s if sure.isdisjoint(s) else None

    def unary_f(m, sym):
        s = sim.unary(m, sym)
        return s if sure.isdisjoint(s) else None

    partners = {}  # (m1, sym) -> sim.sure_partners(m1, sym)

    def binary_f(m1, m2, sym):
        key = (m1, sym)
        doomed = partners.get(key)
        if doomed is None:
            doomed = partners[key] = sim.sure_partners(m1, sym)
        return None if not doomed.isdisjoint(m2) else sim.binary(m1, m2, sym)

    return leaf_f, unary_f, binary_f, sim.hit


def _sticky_steps(bit, decides, dooms):
    """Steps of a sticky bit, set by the first symbol where bit(sym)
    holds, that decides its formula to `decides` once set; until then the
    formula is the opposite. When that value dooms the whole formula
    (`_step_machine`) the steps reject where the bit would be set, and the
    final test is the opposite throughout."""
    cache = {}

    def hit(sym):
        r = cache.get(sym)
        if r is None:
            r = cache[sym] = int(bit(sym))
        return r

    if dooms == decides:
        return (lambda sym: None if hit(sym) else 0,
                lambda m, sym: None if hit(sym) else 0,
                lambda m1, m2, sym: None if hit(sym) else 0,
                lambda m: not decides)
    return (hit,
            lambda m, sym: m | hit(sym),
            lambda m1, m2, sym: m1 | m2 | hit(sym),
            lambda m: (m == 1) == decides)


def _incidence_bit(xs, edge=None):
    """Whether a symbol realizes an edge b on which every vertex variable
    of xs is flagged, with the edge variable `edge` flagged too unless it
    is None. inc(x, e) is ((x,), e); with edge None it is the bit of
    exists e. inc(x1, e) and ... and inc(xk, e) over xs alone."""
    def bit(sym):
        b = sym.bag.b
        on_b = {z for z, s in sym.vflags if s in b}
        return bool(b) and (edge is None or edge in sym.eflags) and all(
            x in on_b for x in xs)
    return bit


def _vertex_flags(sym, var):
    return frozenset(s for z, s in sym.vflags if z == var)


def _pointwise_pred(phi):
    """The predicate of a pointwise phi, one that holds at a term iff its
    predicate holds at every symbol, else None.

    The atoms =, x in X and e in E are pointwise. So is forall x. P(x)
    when P is a pointwise atom that holds wherever x is unflagged: each
    position then holds the flags of every placement of x that meets it,
    and the predicate asks that each of them satisfy P. The cases are
    x in A (a placement at each label s in B), e in E and inc(x, e) bound
    at e (a placement at the position's edge, if it has one): an FO edge
    e is flagged at one position, so inc(x, e) holds iff x is flagged on
    the edge b wherever e is."""
    if isinstance(phi, VarEq):
        z1, z2 = phi.left, phi.right
        if z1.kind.is_vertex_sort:
            return lambda sym: _vertex_flags(sym, z1) == _vertex_flags(sym, z2)
        return lambda sym: (z1 in sym.eflags) == (z2 in sym.eflags)
    if isinstance(phi, MemV):
        x, big = phi.elem, phi.container
        return lambda sym: _vertex_flags(sym, x) <= _vertex_flags(sym, big)
    if isinstance(phi, MemE):
        y, big = phi.elem, phi.container
        return lambda sym: (y not in sym.eflags) or (big in sym.eflags)
    if isinstance(phi, Forall):
        var, body = phi.var, phi.body
        if isinstance(body, MemV) and body.elem == var:
            big = body.container
            return lambda sym: sym.bag.B <= _vertex_flags(sym, big)
        if isinstance(body, MemE) and body.elem == var:
            big = body.container
            return lambda sym: not sym.bag.b or big in sym.eflags
        if isinstance(body, Inc) and body.edge == var:
            x = body.vertex
            return lambda sym: not sym.bag.b or bool(
                _vertex_flags(sym, x) & sym.bag.b)
    return None


def _step_machine(phi):
    """The steps of phi, to be run against validity, when it is
    step-shaped, else None.

    Step-shaped are the leaves: a pointwise formula (`_pointwise_pred`),
    inc, card, and exists e. inc(x1, e) and ... and inc(xk, e) for an FO
    edge variable e; exists w (psi and w = z), which is psi[w := z]; a
    vacuous set binder over a step-shaped body; a compiled operand, given
    as its `_SubsetSim`; and any and, or, not, implies and iff of
    step-shaped operands. The machine's state is the tuple of its leaves'
    states (one leaf's state as is), and its final test the boolean
    function of theirs. Steps read flags by variable, so a leaf over a
    narrower scope reads the symbols of phi's scope unchanged; a
    simulation over a narrower scope reads them through its erasure
    map."""
    parts = []
    test = _machine_test(phi, False, parts)
    if test is None:
        return None
    if len(parts) == 1:
        leaf_f, unary_f, binary_f, _ = parts[0]
        return leaf_f, unary_f, binary_f, lambda m: test((m,))
    leaves, unaries, binaries, _ = zip(*parts)

    def leaf_f(sym):
        out = tuple([f(sym) for f in leaves])
        return None if None in out else out

    def unary_f(m, sym):
        out = tuple([f(a, sym) for f, a in zip(unaries, m)])
        return None if None in out else out

    def binary_f(m1, m2, sym):
        out = tuple([f(a, b, sym) for f, a, b in zip(binaries, m1, m2)])
        return None if None in out else out

    return leaf_f, unary_f, binary_f, test


def _machine_test(node, dooms, parts):
    """node's final test over the state of a `_step_machine`, with
    node's leaves appended to parts; None if node is not step-shaped.
    dooms is the value of node, if any (True, False or None), that makes
    the machine's formula false: a sticky bit that decides node to it
    rejects instead of being set, and so does a simulation whose subset
    empties (False) or holds a sure state (True, `_SubsetSim.sure`).
    Card steps never reject."""
    if isinstance(node, Not):
        test = _machine_test(node.body, None if dooms is None else not dooms,
                             parts)
        return None if test is None else (lambda m: not test(m))
    if isinstance(node, Implies):
        return _machine_test(Or(Not(node.left), node.right), dooms, parts)
    if isinstance(node, And):
        for psi, eq in ((node.left, node.right), (node.right, node.left)):
            if isinstance(eq, VarEq) and eq.left == eq.right:
                # true; x stays in the scope
                return _machine_test(psi, dooms, parts)
    if isinstance(node, (And, Or, Iff)):
        # an operand false decides an and, true an or, none an iff
        decides = isinstance(node, Or) if not isinstance(node, Iff) else None
        keep = dooms if dooms == decides else None
        left = _machine_test(node.left, keep, parts)
        right = (None if left is None
                 else _machine_test(node.right, keep, parts))
        if right is None:
            return None
        if isinstance(node, And):
            return lambda m: left(m) and right(m)
        if isinstance(node, Or):
            return lambda m: left(m) or right(m)
        return lambda m: left(m) == right(m)
    if isinstance(node, (Exists, Forall)):
        if _vacuous_set_binder(node.var, free_vars(node.body)):
            return _machine_test(node.body, dooms, parts)
        z = _eq_partner(node.var, node.body) if isinstance(node, Exists) else None
        if z is not None:
            return _machine_test(substitute(node.body, node.var, z), dooms,
                                 parts)
    pred = _pointwise_pred(node)
    if isinstance(node, _SubsetSim):
        steps = _sim_steps(node, dooms)
    elif pred is not None:  # the bit "pred failed" decides node false
        steps = _sticky_steps(lambda sym: not pred(sym), False, dooms)
    elif isinstance(node, Inc):
        steps = _sticky_steps(_incidence_bit((node.vertex,), node.edge),
                              True, dooms)
    elif isinstance(node, Card):
        steps = _card_steps(node)
    else:
        xs = _incident_to(node.var, node.body) if isinstance(node, Exists) else None
        if xs is None:
            return None
        steps = _sticky_steps(_incidence_bit(xs), True, dooms)
    i, final_f = len(parts), steps[3]
    parts.append(steps)
    return lambda m: final_f(m[i])


def _card_steps(phi):
    """Steps of card(r, a, Z): |Z| mod r, counted as flags are read (edge
    sets) or as flagged components close (vertex sets). They never
    reject."""
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

    def sim(self, xs, aut, own_xs):
        """The step-machine leaf of aut, compiled over own_xs, in a
        product over xs: its subset simulation, lifted into xs by reading
        each symbol through a flag erasure when own_xs is narrower."""
        if own_xs != xs:
            return _SubsetSim(aut, _erase_map(self.t, xs, own_xs), self.budget)
        if aut.alphabet != interpreted_alphabet(self.t, xs):
            raise AlphabetMismatchError("operand and validity alphabets differ")
        return _SubsetSim(aut, budget=self.budget)

    def combine(self, xs, psi, stage):
        """`functional_product` of validity(xs) with the step machine of
        psi, shrunk, charged to the budget stage `stage`; None if psi is
        not step-shaped."""
        steps = _step_machine(psi)
        if steps is None:
            return None
        return self.shrink(functional_product(
            self.validity(xs), *steps, self.budget, stage))

    def go(self, phi):
        cached = self.memo.get(phi)
        if cached is not None:
            return cached
        out = self.dispatch(phi)
        self.memo[phi] = out
        return out

    def dispatch(self, phi):
        """Automaton for phi over exactly its free variables.

        Every boolean step is one `combine`. A step-shaped phi
        (`_step_machine`) runs as one machine: a boolean combination of
        atoms and of atom-like formulas, with no product per connective
        and no subset construction. Otherwise the operands of a not, and
        or or are compiled and shrunk first, and the machine runs their
        subset simulations."""
        xs = _xtuple(free_vars(phi))
        if isinstance(phi, TrueF):
            return self.validity(xs)
        if isinstance(phi, FalseF):
            return TreeAutomaton(interpreted_alphabet(self.t, xs), (), (), ())
        if isinstance(phi, Not) and isinstance(phi.body, Not):
            return self.go(phi.body.body)
        out = self.combine(xs, phi, "atom")
        if out is not None:
            return out
        if isinstance(phi, Not):
            return self.combine(xs, Not(self.sim(xs, self.go(phi.body), xs)),
                                "not")
        if isinstance(phi, (And, Or)):
            a, b = (self.sim(xs, self.go(f), _xtuple(free_vars(f)))
                    for f in (phi.left, phi.right))
            return self.combine(xs, type(phi)(a, b), "combine")
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
            aut, cur_xs = self.project_vars(
                binders, self.go(inner), _xtuple(free_vars(inner)))
            return self.combine(xs, Not(self.sim(xs, aut, cur_xs)), "not")
        raise CmsoKindError(f"not a formula: {phi!r}")

    def exists(self, var, body):
        """Automaton for (exists var. body) over free(body) minus var."""
        scope = free_vars(body)
        if _vacuous_set_binder(var, scope):
            return self.go(body)
        z = _eq_partner(var, body)
        if z is not None:
            # exists w (psi /\ w = z)  ==  psi[w := z]; one variable less
            # in every scope below makes the alphabets drastically smaller
            return self.go(substitute(body, var, z))
        aut, _ = self.project_vars((var,), self.go(body), _xtuple(scope))
        return aut

    def project_vars(self, binders, aut, body_xs):
        """Erase the binders' flags with one projection and one shrink;
        returns (automaton, its scope)."""
        inner_xs = _xtuple(set(body_xs) | set(binders))
        if body_xs != inner_xs:
            # vacuous first-order binder: lift so validity still demands
            # a vertex or an edge
            aut = self.combine(inner_xs, self.sim(inner_xs, aut, body_xs),
                               "combine")
        outer_xs = _xtuple(set(inner_xs) - set(binders))
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


def _incident_to(var, body):
    """The vertex variables x1..xk when var is an FO edge variable and
    body is inc(x1, var) and ... and inc(xk, var), else None."""
    if var.kind != VarKind.EDGE:
        return None
    xs = set()
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Inc) and node.edge == var:
            xs.add(node.vertex)
        else:
            return None
    return _xtuple(xs)


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
    return comp.combine(xs, comp.sim(xs, aut, own_xs), "combine")


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
