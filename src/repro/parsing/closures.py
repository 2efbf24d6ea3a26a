"""Closure-compiled parse backend: a ParseProgram lowered to Python code.

The IR interpreter (:mod:`repro.parsing.parser`) pays a tuple dispatch
per instruction.  This module removes that dispatch by *lowering* a
:class:`~repro.parsing.program.ParseProgram` to one Python function per
rule — straight-line token matches, native ``while`` loops for
repetition, pre-grouped dispatch dictionaries for CHOICE — and
compiling each function on its first call (threaded code).

A rule function is ``_rN(s, ch, d)``: the call's state, the parent's
child list and the activation's depth, passed down as an argument
instead of kept in ``RunState.depth``.  Only a rule that never passes
its child through builds a node up front.  One that may (every level of
SQL:2003's expression cascade, ``value_expression`` down to ``factor``)
appends straight into its parent's list and wraps what it appended only
when that is not exactly one node.  A rule that heads a *chain* of such
levels, each reaching the next through one head CALL with only
lookahead-guarded optionals around it, skips the levels on a terminal
that every level would send straight to its head: it adds their fuel
ticks at once and calls the deepest rule at the depth they would have,
then runs the levels' tails if the next token can start one (see
:meth:`_SourceBuilder.emit_chain` for why this is exact).

Semantics are interpreter-exact and enforced by the differential suite:
identical parse trees on accepts (an activation whose children are
exactly one node passes it through: :func:`~repro.parsing.program.passage`
decides per rule whether that is never, always or input-dependent, so
only the last kind pays a check), identical line/column/expected sets
on rejects, identical budget/deadline/depth diagnostics.  The one
documented delta is fuel granularity: the interpreter ticks the step
budget per *instruction*, compiled code per *rule call*, so an E0202
trip fires at a slightly different step count (never a different
verdict for well-formed budgets, which are input-scaled).  A
coverage-counting call runs the interpreter, so it ticks per
instruction.

Layers:

* the runtime the lowered code runs on
  (:class:`~repro.parsing.parser.RunState`, ``_Fail``, ``_fail`` /
  ``_check`` / ``_depth_fail``) — the interpreter's own, so both
  backends run a parse on one per-call state object, and the export
  writes the same objects' source;
* the lowering — constants, per-rule functions, the levels' tail
  functions, helper tuples and ``RULES`` — which the ``repro compose
  --emit`` export
  (:func:`~repro.parsing.codegen.generate_parser_source`) also prints;
* :class:`ClosureProgram` — the lowering of a program held in memory,
  bound to per-rule functions that compile on first call.  It is never
  persisted: the service lowers the program it loads from the ``ir``
  artifact;
* :class:`ClosureParser` — a :class:`~repro.parsing.parser.Parser`
  subclass overriding only ``_call_rule``, so the whole public surface
  (diagnostics, panic-mode recovery, hints) is inherited while rule
  execution runs compiled.  A coverage-counting call runs the
  interpreter's walk instead, which counts as it goes: coverage is
  counted in one place, :mod:`repro.parsing.parser`.
"""

from __future__ import annotations

import builtins
import threading
from functools import partial
from types import CodeType, FunctionType
from typing import Any, Callable, NamedTuple

from .parser import Parser, RunState

# The runtime the lowered code calls.  Compiled rule functions take
# ``s`` (the call's RunState), the parent's child list and their own
# depth, so they close over nothing: a lowered namespace holds only
# constants and other functions, shareable across threads.
from .parser import _check, _depth_fail, _Fail, _fail
from .program import (
    MAY_PASS,
    OP_CALL,
    OP_CHOICE,
    OP_LOOP,
    OP_MATCH,
    OP_OPT,
    OP_SEPLOOP,
    OP_SEQ,
    PASSES,
    WRAPS,
    ParseProgram,
    called_rules,
    passage,
)
from .tree import Node


# -- source generation -------------------------------------------------------


def _literal(value: Any) -> str:
    """A deterministic source literal for an emitted constant."""
    if isinstance(value, frozenset):
        if not value:
            return "frozenset()"
        items = ", ".join(repr(item) for item in sorted(value))
        if len(value) == 1:
            items += ","
        return f"frozenset(({items}))"
    if isinstance(value, dict):
        items = ", ".join(f"{key!r}: {value[key]}" for key in sorted(value))
        return "{" + items + "}"
    raise TypeError(f"unsupported constant: {value!r}")


# -- chains of node-free levels ----------------------------------------------

#: A SEPLOOP's repetition alone, ``(op, sep, inner, sep_first)``: what
#: runs after its first item, which a chain runs as that level's tail.
_OP_REPEAT = -1


class _Level(NamedTuple):
    """A node-free rule that reaches one rule through a head CALL.

    ``route`` is the set of terminals the rule's CHOICE sends to the
    head's block alone (``None`` when the body is no CHOICE); ``leads``
    the union of the guards of the optionals before the head call;
    ``tails`` the lookahead-guarded optionals after it, in order, and
    ``tail_first`` the union of their guards.
    """

    head: int
    route: frozenset[str] | None
    leads: frozenset[str]
    tails: tuple
    tail_first: frozenset[str]


def _guard(instr) -> frozenset[str] | None:
    """The lookahead set that guards an optional instruction, else None."""
    op = instr[0]
    if op == OP_OPT or (op == OP_LOOP and instr[3] == 0):
        return instr[2]
    if op == OP_SEPLOOP and instr[5] == 0:
        return instr[3]
    if op == _OP_REPEAT:
        return instr[3]
    return None


def _split(block) -> tuple[tuple, int, tuple] | None:
    """``(leads, head rule id, tails)`` when ``block`` reaches one rule
    through a head CALL with only guarded optionals around it."""
    op = block[0]
    if op == OP_CALL:
        return (), block[1], ()
    if op == OP_SEPLOOP and block[5] and block[1][0] == OP_CALL:
        return (), block[1][1], ((_OP_REPEAT, block[2], block[1], block[4]),)
    if op == OP_SEQ:
        items = block[1]
        for k, item in enumerate(items):
            if _guard(item) is None:
                rest = items[:k] + items[k + 1:]
                if item[0] == OP_CALL and all(
                    _guard(other) is not None for other in rest
                ):
                    return items[:k], item[1], items[k + 1:]
                return None
    return None


def _level(body, kind: int) -> _Level | None:
    """The level a rule with body ``body`` forms in a chain, if any.

    A CHOICE is a level when exactly one of its blocks has the shape
    :func:`_split` takes and some terminals route to it alone; with two
    such blocks the chain ends at the rule instead of picking one.
    """
    if kind == WRAPS:
        return None
    route = None
    if body[0] == OP_CHOICE:
        # a terminal in a block's FIRST set is dispatched to that block
        # among others, so it routes to the block alone when it routes
        # to one block
        dispatch, found = body[1], None
        for block, first in zip(body[4], body[5]):
            split = _split(block)
            if split is not None:
                alone = frozenset(
                    term for term in first if len(dispatch[term]) == 1
                )
                if alone:
                    if found is not None:
                        return None
                    found = split, alone
        if found is None:
            return None
        split, route = found
    else:
        split = _split(body)
        if split is None:
            return None
    leads, head, tails = split
    return _Level(
        head,
        route,
        frozenset().union(*map(_guard, leads)),
        tails,
        frozenset().union(*map(_guard, tails)),
    )


class _Chain(NamedTuple):
    """A rule heading K ≥ 2 nested levels (itself first), the rule the
    deepest level calls, and the terminals that may skip the levels
    (``direct``; ``None`` means every terminal outside ``leads``)."""

    levels: tuple[int, ...]
    deepest: int
    direct: frozenset[str] | None
    leads: frozenset[str]


def _chain(levels: list[_Level | None], rid: int) -> _Chain | None:
    """The chain rule ``rid`` heads, if it heads one (it is a level)."""
    chain = [rid]
    head = levels[rid].head
    while levels[head] is not None and head not in chain:
        chain.append(head)
        head = levels[head].head
    if len(chain) < 2:
        return None
    leads = frozenset().union(*(levels[r].leads for r in chain))
    routes = [levels[r].route for r in chain if levels[r].route is not None]
    direct = None
    if routes:
        direct = frozenset.intersection(*routes) - leads
        if not direct:
            return None
    return _Chain(tuple(chain), head, direct, leads)


class _SourceBuilder:
    """Lower a ParseProgram's instruction tuples to Python statements.

    The lowered code counts no coverage; a counting call runs the
    interpreter instead (see :class:`ClosureParser`).

    Two code-size pressure valves keep CPython happy ("too many
    statically nested blocks" trips at 20): deeply indented non-trivial
    instructions are outlined to helper functions, and long
    backtracking candidate lists become a loop over a function tuple
    instead of a nested try-chain.

    Every function takes ``(s, list, depth)``: a rule function its own
    depth, a helper or a level's tail function the depth of the rules it
    calls (``e``), so a function tuple may mix rules and helpers.  Each
    rule's passage and level are computed once, here, and its chain
    (:func:`_chain`) once, when its function is lowered.
    """

    def __init__(self, program: ParseProgram) -> None:
        self.program = program
        self.lines: list[str] = []
        self.consts: dict[Any, str] = {}
        self.const_defs: list[tuple[str, Any]] = []
        self.tmp = 0
        self.helpers: list[tuple[str, Any]] = []
        self._hn = 0
        #: (tuple name, candidate fn names)
        self.fn_tuples: list[tuple[str, tuple[str, ...]]] = []
        #: the depth a call emitted here passes
        self.down = "d + 1"
        self.kinds = [passage(body) for body in program.code]
        self.levels = [
            _level(body, kind) for body, kind in zip(program.code, self.kinds)
        ]
        #: the levels whose tail functions a fast path calls
        self.tailed: set[int] = set()

    def const(self, prefix: str, value: Any, key: Any = None) -> str:
        key = (prefix, key if key is not None else value)
        name = self.consts.get(key)
        if name is None:
            name = f"_{prefix}{len(self.const_defs)}"
            self.consts[key] = name
            self.const_defs.append((name, value))
        return name

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # -- instruction lowering ------------------------------------------------

    def emit_match_run(
        self, pairs: list[tuple[str, frozenset[str]]], ind: int
    ) -> None:
        """One or more consecutive MATCHes as straight-line code."""
        w = self.w
        if len(pairs) == 1:
            name, expected = pairs[0]
            e = self.const("e", expected)
            w(ind, "t = tk[s.i]")
            w(ind, f"if t.type != {name!r}:")
            w(ind + 1, f"_fail(s, {e})")
            w(ind, "ch.append(t)")
            w(ind, "s.i += 1")
            return
        w(ind, "i = s.i")
        for k, (name, expected) in enumerate(pairs):
            e = self.const("e", expected)
            idx = "i" if k == 0 else f"i + {k}"
            w(ind, f"t = tk[{idx}]")
            w(ind, f"if t.type != {name!r}:")
            if k:
                # write the cursor back so the failure points mid-run
                w(ind + 1, f"s.i = i + {k}")
            w(ind + 1, f"_fail(s, {e})")
            w(ind, "ch.append(t)")
        w(ind, f"s.i = i + {len(pairs)}")

    def emit_seq(self, items: tuple, ind: int) -> None:
        pending: list[tuple[str, frozenset[str]]] = []
        for item in items:
            if item[0] == OP_MATCH:
                pending.append((item[1], item[2]))
                continue
            if pending:
                self.emit_match_run(pending, ind)
                pending = []
            self.emit(item, ind)
        if pending:
            self.emit_match_run(pending, ind)

    def emit_choice(self, instr: tuple, ind: int) -> None:
        w = self.w
        dispatch, default, expected = instr[1], instr[2], instr[3]
        # group lookaheads that share an identical candidate sequence
        # into one branch, so the emitted dispatch dict maps terminal ->
        # small branch int instead of terminal -> code copy; terminals go
        # in sorted order because the dict's own order follows set
        # iteration, which would make the source vary with the hash seed
        seq_ids: dict[tuple[int, ...], int] = {}
        branches: list[tuple] = []
        table: dict[str, int] = {}
        for term in sorted(dispatch):
            cands = dispatch[term]
            key = tuple(id(b) for b in cands)
            bi = seq_ids.get(key)
            if bi is None:
                bi = len(branches)
                seq_ids[key] = bi
                branches.append(cands)
            table[term] = bi
        default_bi = -1
        if default:
            key = tuple(id(b) for b in default)
            maybe = seq_ids.get(key)
            if maybe is None:
                default_bi = len(branches)
                seq_ids[key] = default_bi
                branches.append(default)
            else:
                default_bi = maybe
        if len(branches) == 1 and default_bi == 0:
            # every lookahead and the default agree: unconditional
            self.emit_candidates(branches[0], ind)
            return
        d = self.const("d", table, key=(id(instr), "disp"))
        e = self.const("e", expected)
        w(ind, f"_b = {d}.get(tk[s.i].type, {default_bi})")
        for bi, cands in enumerate(branches):
            kw = "if" if bi == 0 else "elif"
            w(ind, f"{kw} _b == {bi}:")
            self.emit_candidates(cands, ind + 1)
        w(ind, "else:")
        w(ind + 1, f"_fail(s, {e})")

    def emit_candidates(self, cands: tuple, ind: int) -> None:
        """Backtracking candidate list, restoring state between tries."""
        w = self.w
        if len(cands) == 1:
            self.emit(cands[0], ind)
            return
        self.tmp += 1
        iv, nv = f"_i{self.tmp}", f"_n{self.tmp}"
        w(ind, f"{iv} = s.i")
        w(ind, f"{nv} = len(ch)")
        if len(cands) <= 3 and ind < 8:
            def rec(k: int, ind: int) -> None:
                if k == len(cands) - 1:
                    self.emit(cands[k], ind)
                    return
                w(ind, "try:")
                self.emit(cands[k], ind + 1)
                w(ind, "except _Fail:")
                w(ind + 1, f"s.i = {iv}")
                w(ind + 1, f"del ch[{nv}:]")
                rec(k + 1, ind + 1)

            rec(0, ind)
        else:
            names = tuple(self.instr_fn(cand) for cand in cands)
            tname = f"_t{len(self.fn_tuples)}"
            self.fn_tuples.append((tname, names))
            fv, lv = f"_fn{self.tmp}", f"_lf{self.tmp}"
            w(ind, f"{lv} = None")
            w(ind, f"for {fv} in {tname}:")
            w(ind + 1, "try:")
            w(ind + 2, f"{fv}(s, ch, {self.down})")
            w(ind + 2, "break")
            w(ind + 1, "except _Fail as _f:")
            w(ind + 2, f"{lv} = _f")
            w(ind + 2, f"s.i = {iv}")
            w(ind + 2, f"del ch[{nv}:]")
            w(ind, "else:")
            w(ind + 1, f"raise {lv}")
        self.tmp -= 1

    def instr_fn(self, instr: tuple) -> str:
        """A function name executing ``instr`` (rule fn or new helper)."""
        if instr[0] == OP_CALL:
            return f"_r{instr[1]}"
        self._hn += 1
        name = f"_h{self._hn}"
        self.helpers.append((name, instr))
        return name

    def emit(self, instr: tuple, ind: int) -> None:
        if ind >= 6 and instr[0] != OP_MATCH and instr[0] != OP_CALL:
            # outline before CPython's 20-block nesting limit bites
            self._hn += 1
            name = f"_h{self._hn}"
            self.w(ind, f"{name}(s, ch, {self.down})")
            self.helpers.append((name, instr))
            return
        w = self.w
        op = instr[0]
        if op == OP_MATCH:
            self.emit_match_run([(instr[1], instr[2])], ind)
        elif op == OP_CALL:
            w(ind, f"_r{instr[1]}(s, ch, {self.down})")
        elif op == OP_SEQ:
            self.emit_seq(instr[1], ind)
        elif op == OP_CHOICE:
            self.emit_choice(instr, ind)
        elif op == OP_OPT:
            inner, first = instr[1], instr[2]
            if inner[0] == OP_MATCH and len(first) == 1:
                # optional single token: no backtracking state needed
                w(ind, "t = tk[s.i]")
                w(ind, f"if t.type == {inner[1]!r}:")
                w(ind + 1, "ch.append(t)")
                w(ind + 1, "s.i += 1")
                return
            f = self.const("f", first)
            w(ind, f"if tk[s.i].type in {f}:")
            self.tmp += 1
            iv, nv = f"_i{self.tmp}", f"_n{self.tmp}"
            w(ind + 1, f"{iv} = s.i")
            w(ind + 1, f"{nv} = len(ch)")
            w(ind + 1, "try:")
            self.emit(inner, ind + 2)
            w(ind + 1, "except _Fail:")
            w(ind + 2, f"s.i = {iv}")
            w(ind + 2, f"del ch[{nv}:]")
            self.tmp -= 1
        elif op == OP_LOOP:
            inner, first, minimum = instr[1], instr[2], instr[3]
            f = self.const("f", first)
            self.tmp += 1
            iv, nv, cv = f"_i{self.tmp}", f"_n{self.tmp}", f"_c{self.tmp}"
            if minimum:
                w(ind, f"{cv} = 0")
            w(ind, f"while tk[s.i].type in {f}:")
            w(ind + 1, f"{iv} = s.i")
            w(ind + 1, f"{nv} = len(ch)")
            w(ind + 1, "try:")
            self.emit(inner, ind + 2)
            w(ind + 1, "except _Fail:")
            w(ind + 2, f"s.i = {iv}")
            w(ind + 2, f"del ch[{nv}:]")
            w(ind + 2, "break")
            w(ind + 1, f"if s.i == {iv}:")
            w(ind + 2, "break")
            if minimum:
                w(ind + 1, f"{cv} += 1")
                w(ind, f"if {cv} < {minimum}:")
                w(ind + 1, f"_fail(s, {f})")
            self.tmp -= 1
        elif op == OP_SEPLOOP:  # (op, inner, sep, first, sep_first, min)
            inner, sep, first, sep_first, minimum = instr[1:6]
            if minimum == 0:
                f = self.const("f", first)
                w(ind, f"if tk[s.i].type in {f}:")
                ind += 1
            self.emit(inner, ind)
            self.emit_repeat(sep, inner, sep_first, ind)
        else:  # _OP_REPEAT: (op, sep, inner, sep_first)
            self.emit_repeat(instr[1], instr[2], instr[3], ind)

    def emit_repeat(
        self, sep: tuple, inner: tuple, sep_first: frozenset[str], ind: int
    ) -> None:
        """A SEPLOOP's ``(sep inner)*`` after its first item."""
        w = self.w
        self.tmp += 1
        iv, nv = f"_i{self.tmp}", f"_n{self.tmp}"
        single_sep = sep[0] == OP_MATCH and len(sep_first) == 1
        if single_sep:
            test = f"== {sep[1]!r}"
        else:
            test = f"in {self.const('f', sep_first)}"
        w(ind, f"while tk[s.i].type {test}:")
        w(ind + 1, f"{iv} = s.i")
        w(ind + 1, f"{nv} = len(ch)")
        w(ind + 1, "try:")
        if single_sep:
            w(ind + 2, f"ch.append(tk[{iv}])")
            w(ind + 2, f"s.i = {iv} + 1")
        else:
            self.emit(sep, ind + 2)
        self.emit(inner, ind + 2)
        w(ind + 1, "except _Fail:")
        w(ind + 2, f"s.i = {iv}")
        w(ind + 2, f"del ch[{nv}:]")
        w(ind + 2, "break")
        self.tmp -= 1

    def emit_rule(self, rid: int) -> None:
        w = self.w
        body = self.program.code[rid]
        rname = self.program.rule_names[rid]
        kind = self.kinds[rid]
        if not called_rules(body):
            # leaf rule (no nested CALLs): fuel keeps ticking at every
            # enclosing non-leaf call — pathological backtracking and
            # runaway recursion always go through those — so the step
            # tick is dead weight on the hottest rules (identifiers,
            # literals); a leaf always leaves its node, which is its own
            # child list (repro.parsing.tree.Node)
            w(0, f"def _r{rid}(s, out, d):")
            w(1, "if d >= s.max_depth:")
            w(2, "_depth_fail(s)")
            w(1, "tk = s.tokens")
            w(1, "ch = _new(_Node)")
            w(1, f"ch.name = {rname!r}")
            self.emit(body, 1)
            w(1, "out.append(ch)")
            w(0, "")
            return
        # a rule that may pass its child through builds no node up
        # front: it appends straight into its parent's list and wraps
        # what it appended (``ch[n:]``) only when that is not one node
        w(0, f"def _r{rid}(s, {'out' if kind == WRAPS else 'ch'}, d):")
        w(1, "st = s.steps + 1")
        w(1, "s.steps = st")
        w(1, "if st >= s.limit:")
        w(2, "_check(s, st)")
        w(1, "if d >= s.max_depth:")
        w(2, "_depth_fail(s)")
        tk_line = len(self.lines)
        w(1, "tk = s.tokens")
        chain = self.levels[rid] and _chain(self.levels, rid)
        if chain is not None:
            self.emit_chain(chain)
        if kind == WRAPS:
            w(1, "ch = _new(_Node)")
            w(1, f"ch.name = {rname!r}")
        elif kind != PASSES:
            w(1, "n = len(ch)")
        self.emit(body, 1)
        if not any("tk[" in line for line in self.lines[tk_line + 1:]):
            del self.lines[tk_line]  # a body of calls reads no token
        if kind == WRAPS:
            w(1, "out.append(ch)")
        else:
            self.emit_wrap(rid)
        w(0, "")

    def emit_wrap(self, rid: int) -> None:
        """Leave ``ch[n:]`` as it is when it is one node, else wrap it."""
        kind = self.kinds[rid]
        if kind == PASSES:
            return
        if kind == MAY_PASS:
            test = "len(ch) != n + 1"
        else:  # MAY_PASS_TOKEN: a lone token keeps its node
            test = "len(ch) != n + 1 or type(ch[n]) is not _Node"
        w = self.w
        w(1, f"if {test}:")
        w(2, "node = _new(_Node)")
        w(2, f"node.name = {self.program.rule_names[rid]!r}")
        w(2, "node += ch[n:]")
        w(2, "del ch[n:]")
        w(2, "ch.append(node)")

    def emit_chain(self, chain: _Chain) -> None:
        """The fast path of a rule heading a chain of K node-free levels.

        It runs when three tests hold, and then does what the K - 1
        levels below this rule would have done, without calling them:

        * the token is DIRECT: every CHOICE level routes it to its
          head's block alone and no lead's guard holds it, so each level
          would only test lookaheads, which record no failure, and take
          its head call;
        * ``d + K < s.max_depth``: no level's depth check would trip;
        * ``st + K - 1 < s.limit``: no level's fuel tick would reach
          ``s.limit``, so no ``_check`` is due and the ticks are added
          at once.

        The deepest rule is called at the depth the last level would
        call it at, and leaves one node.  Then each level, innermost
        first, would run its tails and wrap what they appended: that
        happens through the level's tail function (:meth:`emit_tails`),
        called at the level's own depth when the next token can start
        one of its tails.  A level whose tails cannot start appends
        nothing, so it would pass the one node it holds.
        """
        w = self.w
        levels, deepest, direct, leads = chain
        k = len(levels)
        tests = [f"d + {k} < s.max_depth", f"st + {k - 1} < s.limit"]
        if direct is not None:
            tests.insert(0, f"tk[s.i].type in {self.const('f', direct)}")
        elif leads:
            tests.insert(0, f"tk[s.i].type not in {self.const('f', leads)}")
        w(1, f"if {' and '.join(tests)}:")
        w(2, f"s.steps = st + {k - 1}")
        w(2, f"_r{deepest}(s, ch, d + {k})")
        tailed = [j for j, level in enumerate(levels) if self.levels[level].tails]
        ind = 2
        if len(tailed) > 1:
            # one test for the common case: no level's tail can start
            first = frozenset().union(
                *(self.levels[levels[j]].tail_first for j in tailed)
            )
            w(2, f"if tk[s.i].type in {self.const('f', first)}:")
            ind = 3
        for j in reversed(tailed):
            level = levels[j]
            self.tailed.add(level)
            f = self.const("f", self.levels[level].tail_first)
            w(ind, f"if tk[s.i].type in {f}:")
            w(ind + 1, f"_u{level}(s, ch, d + {j + 1})")
        w(2, "return")

    def emit_tails(self, rid: int) -> None:
        """A level's tail function: its tails, then its wrap check.

        A fast path calls it with one node at the end of ``ch``, the
        node the level's head call left, and with the depth the level's
        own body calls rules at.
        """
        self.w(0, f"def _u{rid}(s, ch, e):")
        self.w(1, "tk = s.tokens")
        self.w(1, "n = len(ch) - 1")
        for instr in self.levels[rid].tails:
            self.emit(instr, 1)
        self.emit_wrap(rid)
        self.w(0, "")

    def build(self) -> list[tuple[str, str]]:
        """``(name, def text)`` per function: rules in id order, then the
        levels' tail functions, then helpers."""
        functions = []
        for rid in range(len(self.program.rule_names)):
            self.lines = []
            self.emit_rule(rid)
            functions.append((f"_r{rid}", "\n".join(self.lines)))
        self.down = "e"
        for rid in sorted(self.tailed):
            self.lines = []
            self.emit_tails(rid)
            functions.append((f"_u{rid}", "\n".join(self.lines)))
        while self.helpers:
            name, instr = self.helpers.pop()
            self.lines = []
            self.w(0, f"def {name}(s, ch, e):")
            self.w(1, "tk = s.tokens")
            saved = self.tmp
            self.tmp = 0
            self.emit(instr, 1)
            self.tmp = saved
            self.w(0, "")
            functions.append((name, "\n".join(self.lines)))
        return functions


class _Lowering:
    """A program lowered to Python, in the pieces both consumers need.

    ``consts`` are ``(name, value)`` pairs, ``functions`` ``(name, def
    text)`` pairs (rules in id order, then tail functions, then
    helpers), ``tuples`` the
    helper-function tuples as ``(name, function names)``.  :meth:`body`
    joins them into the ``--emit`` export's module text; :func:`_load`
    binds them without it.
    """

    def __init__(self, program: ParseProgram) -> None:
        builder = _SourceBuilder(program)
        self.functions = builder.build()
        self.consts = builder.const_defs
        self.tuples = builder.fn_tuples
        self.n_rules = len(program.rule_names)

    def body(self) -> str:
        """The lowering as module text, for the export to print after its header.

        Constants, one function per rule, the tail and helper functions,
        the helper-function tuples and ``RULES`` (rule functions by rule
        id).  The text needs ``_Fail``,
        ``_fail``, ``_check``, ``_depth_fail``, ``_Node`` and ``_new`` in
        scope, and a state object with the :class:`RunState` attributes
        it reads.
        """
        lines = [f"{name} = {_literal(value)}" for name, value in self.consts]
        lines += ["", "\n".join(text for _name, text in self.functions)]
        for tname, names in self.tuples:
            items = ", ".join(names)
            if len(names) == 1:
                items += ","
            lines.append(f"{tname} = ({items})")
        rules = ", ".join(f"_r{rid}" for rid in range(self.n_rules))
        if self.n_rules == 1:
            rules += ","
        lines += ["", f"RULES = ({rules})", ""]
        return "\n".join(lines)


# -- the compiled program ----------------------------------------------------

#: The runtime the lowering reads, bound straight into each namespace.
#: The ``--emit`` export defines the same names from the same objects
#: (``codegen._EMBEDDED`` includes this table).
_RUNTIME: dict[str, Any] = {
    "_Fail": _Fail,
    "_check": _check,
    "_depth_fail": _depth_fail,
    "_fail": _fail,
    "_Node": Node,
    "_new": list.__new__,
}


def _stub(s: RunState, out: list, d: int, _first_call: Any = None) -> None:
    """The code every lowered function starts with (see :func:`_load`)."""
    return _first_call(s, out, d)


def _load(
    lowering: _Lowering, filename: str
) -> tuple[Callable[[RunState, list, int], None], ...]:
    """Bind a lowering into a fresh namespace, compiling each function lazily.

    The constants go in as values, and every function name is bound to
    a stub made from :func:`_stub`'s one code object, with the call that
    compiles that function in its defaults.  The first call compiles
    the function's own text under the namespace's lock, swaps the
    compiled ``__code__`` into the stub and clears its defaults, then
    runs it.  ``RULES``, the helper tuples and every global reference
    hold the stub objects themselves, so from then on they run the real
    code, with no trampoline left.  A compile that raises leaves the
    function pending, and its next call retries.  Returns ``RULES``.
    """
    pending = dict(lowering.functions)
    lock = threading.Lock()
    namespace = {"__builtins__": builtins.__dict__, **_RUNTIME}
    namespace.update(lowering.consts)

    def first_call(name: str, s: RunState, out: list, d: int) -> None:
        fn = namespace[name]
        with lock:
            text = pending.get(name)
            if text is not None:
                module = compile(text, filename, "exec")
                fn.__code__ = next(
                    c for c in module.co_consts if isinstance(c, CodeType)
                )
                # after the code: a racing call may still bind the old
                # defaults to the new code, never the stub to none
                fn.__defaults__ = None
                del pending[name]
        return fn(s, out, d)

    for name in pending:
        namespace[name] = FunctionType(
            _stub.__code__, namespace, name, (partial(first_call, name),)
        )
    for tname, names in lowering.tuples:
        namespace[tname] = tuple(namespace[name] for name in names)
    return tuple(namespace[f"_r{rid}"] for rid in range(lowering.n_rules))


class ClosureProgram:
    """A :class:`ParseProgram` lowered to per-rule functions, compiled lazily.

    Building one lowers the program and binds every function to a stub;
    each function compiles on its first call (see :func:`_load`), so a
    cold program pays for the rules its workload reaches.  Safe to share
    across threads: the rule functions close over nothing, and all parse
    state rides on the :class:`RunState` argument.
    """

    def __init__(self, program: ParseProgram) -> None:
        self.program = program
        self.rule_fns = _load(
            _Lowering(program), f"<closures:{program.grammar_name}>"
        )

    def __repr__(self) -> str:
        return (
            f"<ClosureProgram {self.program.grammar_name!r}: "
            f"{len(self.rule_fns)} rules>"
        )


# -- the parser facade -------------------------------------------------------


class ClosureParser(Parser):
    """A :class:`Parser` whose rule calls run closure-compiled code.

    Only ``_call_rule`` is overridden, by a direct call that hands the
    compiled rule function the call's own :class:`RunState`:
    ``parse_tokens`` therefore runs the *entire* parse compiled, while
    ``parse_with_diagnostics`` interprets just the top-level start-rule
    body — a handful of instructions per recovery segment — and enters
    compiled code at every nested rule call, keeping panic-mode
    recovery, diagnostics, and hint semantics literally inherited.  A
    coverage-counting call (``coverage=``, so ``s.cov`` is set) runs
    the inherited ``_call_rule`` instead, so the whole parse walks the
    interpreter's ``_exec``, the one place coverage is counted.

    The parser runs with the interpreter's defaults: no fuel budget
    unless a call passes ``max_steps``, and
    :data:`~repro.parsing.parser.DEFAULT_MAX_DEPTH`.
    """

    def __init__(
        self,
        grammar: Any,
        closure_program: ClosureProgram,
        scanner: Any = None,
        hint_provider: Any = None,
    ) -> None:
        super().__init__(
            grammar,
            scanner=scanner,
            hint_provider=hint_provider,
            program=closure_program.program,
        )
        self._rule_fns = closure_program.rule_fns

    def _call_rule(self, s: RunState, rule_id: int, out: list) -> None:
        if s.cov is not None:
            super()._call_rule(s, rule_id, out)
            return
        n = len(out)
        try:
            self._rule_fns[rule_id](s, out, s.depth)
        except BaseException:
            # a node-free activation appends into ``out`` as it goes;
            # what a failed one left there is not the caller's (the
            # recovering parse keeps ``out`` as its partial root)
            del out[n:]
            raise
