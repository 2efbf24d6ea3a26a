"""Closure-compiled parse backend: a ParseProgram lowered to Python code.

The IR interpreter (:mod:`repro.parsing.parser`) pays a tuple dispatch
per instruction.  This module removes that dispatch by *lowering* a
:class:`~repro.parsing.program.ParseProgram` to one Python function per
rule — straight-line token matches, native ``while`` loops for
repetition, pre-grouped dispatch dictionaries for CHOICE — and
``exec``-compiling the result once at registry-build time (threaded
code).

Semantics are interpreter-exact and enforced by the differential suite:
identical parse trees on accepts, identical line/column/expected sets
on rejects, identical budget/deadline/depth diagnostics.  The one
documented delta is fuel granularity: the interpreter ticks the step
budget per *instruction*, compiled code per *rule call*, so an E0202
trip fires at a slightly different step count (never a different
verdict for well-formed budgets, which are input-scaled).

Layers:

* the runtime every compiled artifact imports from here
  (:class:`~repro.parsing.parser.RunState`, ``_Fail``, ``_fail`` /
  ``_check`` / ``_depth_fail``) — the interpreter's own, so both
  backends run a parse on one per-call state object;
* :func:`generate_closure_source` — a self-contained artifact module
  (cached on disk as ``<digest>.closures.py`` next to
  ``<digest>.ir.json``, embedding the same fingerprint constant as
  generated source);
* :class:`ClosureProgram` — the exec'd artifact: per-rule functions
  plus a lazily compiled *instrumented* twin whose emitted counter
  bumps mirror the interpreter's ``_exec_cov`` point for point;
* :class:`ClosureParser` — a :class:`~repro.parsing.parser.Parser`
  subclass overriding only ``_call_rule``, so the whole public surface
  (diagnostics, panic-mode recovery, hints, coverage) is inherited
  while rule execution runs compiled.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from .codegen import FINGERPRINT_CONSTANT, source_fingerprint
from .parser import Parser, RunState

# The runtime every artifact imports from this module.  Compiled rule
# functions take ``s`` (the call's RunState) and ``out`` (the parent's
# children list), so they close over nothing: the artifact namespace
# holds only constants and other functions, shareable across threads.
from .parser import _check, _depth_fail, _Fail, _fail  # noqa: F401
from .program import (
    OP_CALL,
    OP_CHOICE,
    OP_LOOP,
    OP_MATCH,
    OP_OPT,
    OP_SEQ,
    ParseProgram,
    called_rules,
)


def closure_fingerprint(source: str) -> str | None:
    """Configuration fingerprint embedded in a closure artifact.

    Closure artifacts reuse the generated-source convention (a
    ``_FINGERPRINT = "…"`` line near the top), so the registry can
    validate staleness with the same cheap line scan.
    """
    return source_fingerprint(source)


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


class _SourceBuilder:
    """Lower a ParseProgram's instruction tuples to Python statements.

    With ``coverage_map`` set, counter bumps are compiled in at exactly
    the points where the interpreter's ``_exec_cov`` commits to a
    decision, using compile-time slot indices (the map's numbering is
    deterministic for a given program, so instrumented artifacts from
    any map over the same program agree).

    Two code-size pressure valves keep CPython happy ("too many
    statically nested blocks" trips at 20): deeply indented non-trivial
    instructions are outlined to helper functions, and long
    backtracking candidate lists become a loop over a function tuple
    instead of a nested try-chain.
    """

    def __init__(
        self, program: ParseProgram, coverage_map: Any = None
    ) -> None:
        self.program = program
        self.cov = coverage_map
        self.lines: list[str] = []
        self.consts: dict[Any, str] = {}
        self.const_defs: list[tuple[str, Any]] = []
        self.tmp = 0
        self.helpers: list[tuple[str, Any]] = []
        self._hn = 0
        #: (tuple name, candidate fn names, alt slots or None)
        self.fn_tuples: list[tuple[str, tuple[str, ...], tuple[int, ...] | None]] = []

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
        # small branch int instead of terminal -> code copy
        seq_ids: dict[tuple[int, ...], int] = {}
        branches: list[tuple] = []
        table: dict[str, int] = {}
        for term, cands in dispatch.items():
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
        cov = self.cov
        if len(cands) == 1:
            self.emit(cands[0], ind)
            if cov is not None:
                slot = cov.slot_of_block[id(cands[0])]
                w(ind, f"s.cov.alts[{slot}] += 1")
            return
        self.tmp += 1
        iv, nv = f"_i{self.tmp}", f"_n{self.tmp}"
        w(ind, f"{iv} = s.i")
        w(ind, f"{nv} = len(ch)")
        if len(cands) <= 3 and ind < 8:
            def rec(k: int, ind: int) -> None:
                if k == len(cands) - 1:
                    self.emit(cands[k], ind)
                    if cov is not None:
                        slot = cov.slot_of_block[id(cands[k])]
                        w(ind, f"s.cov.alts[{slot}] += 1")
                    return
                w(ind, "try:")
                self.emit(cands[k], ind + 1)
                if cov is not None:
                    slot = cov.slot_of_block[id(cands[k])]
                    w(ind + 1, f"s.cov.alts[{slot}] += 1")
                w(ind, "except _Fail:")
                w(ind + 1, f"s.i = {iv}")
                w(ind + 1, f"del ch[{nv}:]")
                rec(k + 1, ind + 1)

            rec(0, ind)
        else:
            names = tuple(self.instr_fn(cand) for cand in cands)
            slots = None
            if cov is not None:
                slots = tuple(cov.slot_of_block[id(cand)] for cand in cands)
            tname = f"_t{len(self.fn_tuples)}"
            self.fn_tuples.append((tname, names, slots))
            fv, lv = f"_fn{self.tmp}", f"_lf{self.tmp}"
            w(ind, f"{lv} = None")
            if cov is None:
                w(ind, f"for {fv} in {tname}:")
                w(ind + 1, "try:")
                w(ind + 2, f"{fv}(s, ch)")
                w(ind + 2, "break")
                w(ind + 1, "except _Fail as _f:")
                w(ind + 2, f"{lv} = _f")
                w(ind + 2, f"s.i = {iv}")
                w(ind + 2, f"del ch[{nv}:]")
            else:
                sv = f"_sl{self.tmp}"
                w(ind, f"for {fv}, {sv} in {tname}:")
                w(ind + 1, "try:")
                w(ind + 2, f"{fv}(s, ch)")
                w(ind + 1, "except _Fail as _f:")
                w(ind + 2, f"{lv} = _f")
                w(ind + 2, f"s.i = {iv}")
                w(ind + 2, f"del ch[{nv}:]")
                w(ind + 1, "else:")
                w(ind + 2, f"s.cov.alts[{sv}] += 1")
                w(ind + 2, "break")
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
            self.w(ind, f"{name}(s, ch)")
            self.helpers.append((name, instr))
            return
        w = self.w
        cov = self.cov
        op = instr[0]
        if op == OP_MATCH:
            self.emit_match_run([(instr[1], instr[2])], ind)
        elif op == OP_CALL:
            w(ind, f"_r{instr[1]}(s, ch)")
        elif op == OP_SEQ:
            self.emit_seq(instr[1], ind)
        elif op == OP_CHOICE:
            self.emit_choice(instr, ind)
        elif op == OP_OPT:
            inner, first = instr[1], instr[2]
            point = None if cov is None else cov.decision_of_instr[id(instr)]
            if inner[0] == OP_MATCH and len(first) == 1:
                # optional single token: no backtracking state needed
                w(ind, "t = tk[s.i]")
                w(ind, f"if t.type == {inner[1]!r}:")
                w(ind + 1, "ch.append(t)")
                w(ind + 1, "s.i += 1")
                if point is not None:
                    w(ind + 1, f"s.cov.taken[{point}] += 1")
                    w(ind, "else:")
                    w(ind + 1, f"s.cov.skipped[{point}] += 1")
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
            if point is not None:
                w(ind + 2, f"s.cov.skipped[{point}] += 1")
                w(ind + 1, "else:")
                w(ind + 2, f"s.cov.taken[{point}] += 1")
                w(ind, "else:")
                w(ind + 1, f"s.cov.skipped[{point}] += 1")
            self.tmp -= 1
        elif op == OP_LOOP:
            inner, first, minimum = instr[1], instr[2], instr[3]
            point = None if cov is None else cov.decision_of_instr[id(instr)]
            f = self.const("f", first)
            self.tmp += 1
            iv, nv, cv = f"_i{self.tmp}", f"_n{self.tmp}", f"_c{self.tmp}"
            counted = bool(minimum) or point is not None
            if counted:
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
            if counted:
                w(ind + 1, f"{cv} += 1")
            if minimum:
                w(ind, f"if {cv} < {minimum}:")
                w(ind + 1, f"_fail(s, {f})")
            if point is not None:
                w(ind, f"if {cv} > {minimum}:")
                w(ind + 1, f"s.cov.taken[{point}] += 1")
                w(ind, "else:")
                w(ind + 1, f"s.cov.skipped[{point}] += 1")
            self.tmp -= 1
        else:  # OP_SEPLOOP: (op, inner, sep, first, sep_first, min)
            inner, sep, first, sep_first, minimum = instr[1:6]
            point = None if cov is None else cov.decision_of_instr[id(instr)]
            body_ind = ind
            if minimum == 0:
                f = self.const("f", first)
                w(ind, f"if tk[s.i].type in {f}:")
                body_ind = ind + 1
            self.emit(inner, body_ind)
            self.tmp += 1
            iv, nv, cv = f"_i{self.tmp}", f"_n{self.tmp}", f"_c{self.tmp}"
            if point is not None:
                w(body_ind, f"{cv} = 1")
            single_sep = sep[0] == OP_MATCH and len(sep_first) == 1
            if single_sep:
                w(body_ind, f"while tk[s.i].type == {sep[1]!r}:")
            else:
                sf = self.const("f", sep_first)
                w(body_ind, f"while tk[s.i].type in {sf}:")
            w(body_ind + 1, f"{iv} = s.i")
            w(body_ind + 1, f"{nv} = len(ch)")
            w(body_ind + 1, "try:")
            if single_sep:
                w(body_ind + 2, f"ch.append(tk[{iv}])")
                w(body_ind + 2, f"s.i = {iv} + 1")
            else:
                self.emit(sep, body_ind + 2)
            self.emit(inner, body_ind + 2)
            w(body_ind + 1, "except _Fail:")
            w(body_ind + 2, f"s.i = {iv}")
            w(body_ind + 2, f"del ch[{nv}:]")
            w(body_ind + 2, "break")
            if point is not None:
                w(body_ind + 1, f"{cv} += 1")
                w(body_ind, f"if {cv} >= 2:")
                w(body_ind + 1, f"s.cov.taken[{point}] += 1")
                w(body_ind, "else:")
                w(body_ind + 1, f"s.cov.skipped[{point}] += 1")
                if minimum == 0:
                    w(ind, "else:")
                    w(ind + 1, f"s.cov.skipped[{point}] += 1")
            self.tmp -= 1

    def emit_rule(self, rid: int) -> None:
        w = self.w
        body = self.program.code[rid]
        rname = self.program.rule_names[rid]
        leaf = not called_rules(body)
        w(0, f"def _r{rid}(s, out):")
        if not leaf:
            w(1, "st = s.steps + 1")
            w(1, "s.steps = st")
            w(1, "if st >= s.limit:")
            w(2, "_check(s, st)")
        if self.cov is not None:
            # mirrors Parser._call_rule: entry counted before the depth check
            w(1, f"s.cov.rules[{rid}] += 1")
        if leaf:
            # leaf rule (no nested CALLs): nothing below can observe the
            # depth register, and fuel keeps ticking at every enclosing
            # non-leaf call — pathological backtracking and runaway
            # recursion always go through those — so both the depth
            # bookkeeping and the step tick are dead weight on the
            # hottest rules (identifiers, literals)
            w(1, "if s.depth >= s.max_depth:")
            w(2, "_depth_fail(s)")
            w(1, "tk = s.tokens")
            w(1, "node = _new(_Node)")
            w(1, f"node.name = {rname!r}")
            w(1, "node.children = ch = []")
            self.emit(body, 1)
            w(1, "out.append(node)")
            w(0, "")
            return
        w(1, "d = s.depth")
        w(1, "if d >= s.max_depth:")
        w(2, "_depth_fail(s)")
        w(1, "s.depth = d + 1")
        w(1, "tk = s.tokens")
        w(1, "node = _new(_Node)")
        w(1, f"node.name = {rname!r}")
        w(1, "node.children = ch = []")
        w(1, "try:")
        self.emit(body, 2)
        w(1, "finally:")
        w(2, "s.depth = d")
        w(1, "out.append(node)")
        w(0, "")

    def build(self) -> str:
        for rid in range(len(self.program.rule_names)):
            self.emit_rule(rid)
        while self.helpers:
            name, instr = self.helpers.pop()
            self.w(0, f"def {name}(s, ch):")
            self.w(1, "tk = s.tokens")
            saved = self.tmp
            self.tmp = 0
            self.emit(instr, 1)
            self.tmp = saved
            self.w(0, "")
        return "\n".join(self.lines)


def generate_closure_source(
    program: ParseProgram,
    fingerprint: str | None = None,
    coverage_map: Any = None,
) -> str:
    """The self-contained artifact module for one parse program.

    The text exec's into per-rule functions (``RULES``); with
    ``fingerprint`` it carries the shared ``_FINGERPRINT`` constant so
    the registry's staleness scan works unchanged.  With
    ``coverage_map``, instrumented functions are generated instead
    (those are never written to disk — they are rebuilt on demand).
    """
    builder = _SourceBuilder(program, coverage_map)
    body = builder.build()
    n_rules = len(program.rule_names)
    head = [
        f'"""Closure-compiled parser for {program.grammar_name!r} '
        f"({n_rules} rules).",
        "",
        "Generated by repro.parsing.closures; do not edit.",
        '"""',
    ]
    if fingerprint is not None:
        head += ["", f'{FINGERPRINT_CONSTANT} = "{fingerprint}"']
    head += [
        "",
        "from repro.parsing.closures import _Fail, _check, _depth_fail, _fail",
        "from repro.parsing.tree import Node as _Node",
        "",
        "_new = object.__new__",
        "",
    ]
    for name, value in builder.const_defs:
        head.append(f"{name} = {_literal(value)}")
    head.append("")
    parts = ["\n".join(head), body]
    tuple_lines = []
    for tname, names, slots in builder.fn_tuples:
        if slots is None:
            items = ", ".join(names)
        else:
            items = ", ".join(
                f"({name}, {slot})" for name, slot in zip(names, slots)
            )
        if len(names) == 1:
            items += ","
        tuple_lines.append(f"{tname} = ({items})")
    rules = ", ".join(f"_r{rid}" for rid in range(n_rules))
    if n_rules == 1:
        rules += ","
    tuple_lines += ["", f"RULES = ({rules})", ""]
    parts.append("\n".join(tuple_lines))
    return "\n".join(parts)


# -- the compiled artifact ---------------------------------------------------


class ClosureProgram:
    """A :class:`ParseProgram` exec-compiled to per-rule functions.

    Immutable once built and safe to share across threads (the rule
    functions close over nothing; all parse state rides on the
    :class:`RunState` argument).  ``instrumented()`` compiles the
    coverage-counting twin on first use, keyed to the program's
    deterministic :class:`~repro.parsing.coverage.CoverageMap` layout.
    """

    __slots__ = ("program", "source", "rule_fns", "_lock", "_instrumented")

    def __init__(self, program: ParseProgram, source: str | None = None) -> None:
        if source is None:
            source = generate_closure_source(program, program.fingerprint)
        namespace: dict[str, Any] = {}
        exec(
            compile(source, f"<closures:{program.grammar_name}>", "exec"),
            namespace,
        )
        rules = namespace.get("RULES")
        if not isinstance(rules, tuple) or len(rules) != len(program.rule_names):
            raise ValueError(
                "closure artifact does not match the parse program "
                f"({program.grammar_name!r}: expected "
                f"{len(program.rule_names)} rules)"
            )
        self.program = program
        self.source = source
        self.rule_fns: tuple[Callable[[RunState, list], None], ...] = rules
        self._lock = threading.Lock()
        self._instrumented: tuple | None = None

    def instrumented(self, coverage_map: Any) -> tuple:
        """Rule functions with coverage bumps compiled in (lazy, shared)."""
        fns = self._instrumented
        if fns is None:
            with self._lock:
                if self._instrumented is None:
                    source = generate_closure_source(
                        self.program, coverage_map=coverage_map
                    )
                    namespace: dict[str, Any] = {}
                    exec(
                        compile(
                            source,
                            f"<closures-cov:{self.program.grammar_name}>",
                            "exec",
                        ),
                        namespace,
                    )
                    self._instrumented = namespace["RULES"]
                fns = self._instrumented
        return fns

    def __repr__(self) -> str:
        return (
            f"<ClosureProgram {self.program.grammar_name!r}: "
            f"{len(self.rule_fns)} rules, {len(self.source)} chars>"
        )


def compile_closure_program(
    program: ParseProgram, fingerprint: str | None = None
) -> ClosureProgram:
    """Compile ``program`` to threaded code (one function per rule)."""
    return ClosureProgram(
        program,
        generate_closure_source(
            program, fingerprint if fingerprint is not None else program.fingerprint
        ),
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
    recovery, diagnostics, and hint semantics literally inherited.  An
    instrumented call (``coverage=``) runs the instrumented twin, whose
    rule prologues count entries themselves.
    """

    def __init__(
        self,
        grammar: Any,
        closure_program: ClosureProgram,
        scanner: Any = None,
        strict: bool = False,
        max_steps: int | None = None,
        hint_provider: Any = None,
        max_depth: int | None = None,
        analysis: Any = None,
        table: Any = None,
    ) -> None:
        kwargs: dict[str, Any] = {}
        if max_depth is not None:
            kwargs["max_depth"] = max_depth
        super().__init__(
            grammar,
            scanner=scanner,
            strict=strict,
            max_steps=max_steps,
            hint_provider=hint_provider,
            analysis=analysis,
            table=table,
            program=closure_program.program,
            **kwargs,
        )
        self.closure = closure_program
        self._rule_fns = closure_program.rule_fns

    def _call_rule(self, s: RunState, rule_id: int, out: list) -> None:
        if s.cov is None:
            self._rule_fns[rule_id](s, out)
        else:
            self.closure.instrumented(s.cov.map)[rule_id](s, out)
