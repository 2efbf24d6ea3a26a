"""Predictive recursive-descent parser: a driver over the parse-program IR.

Given a composed grammar, :class:`Parser` parses token streams into
concrete parse trees.  The grammar is first lowered (once, at
construction) into a flat :class:`~repro.parsing.program.ParseProgram`;
parsing is then a tight interpretation loop over tuple-encoded
instructions with precomputed FIRST-set dispatch tables — no ``Element``
pattern-matching or FIRST-set recomputation on the hot path.

Decisions are FIRST-directed (LL(1)); where the grammar is not LL(1) the
driver falls back to ordered backtracking among the candidate blocks the
dispatch table hands it (disable with ``strict=True``, which instead
raises :class:`~repro.errors.LLConflictError` at construction time — the
equivalent of ANTLR refusing a grammar).

Error reporting keeps the *furthest* failure position and the union of
expected terminals there, which is what a user of a tailored dialect needs
to see ("expected WHERE or end of input").

Beyond the classic raise-on-first-error entry points, the parser offers a
**resilient pipeline**: :meth:`Parser.parse_with_diagnostics` scans in
recovery mode, panic-mode-recovers on syntax errors by synchronizing on
the program's per-rule sync sets (statement boundaries ``;``, closing
parens), and returns a partial tree together with *every* diagnostic in
the input.  A fuel/step budget bounds pathological backtracking with a
clean :class:`~repro.errors.ParseBudgetExceeded` instead of a hang.

Every parse runs on its own :class:`RunState` — cursor, furthest
failure, fuel, depth, and the optional coverage collector — which both
backends share (the closure-compiled rule functions of
:mod:`repro.parsing.closures` take the same object).  A parser is never
written to after construction, so one instance serves every thread.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from ..diagnostics.model import (
    TOO_MANY_ERRORS,
    Diagnostic,
    DiagnosticBag,
    Severity,
    Span,
)
from ..errors import (
    LLConflictError,
    ParseBudgetExceeded,
    ParseDeadlineExceeded,
    ParseError,
)
from ..grammar.grammar import Grammar
from ..grammar.validate import validate
from ..lexer.scanner import Scanner
from ..lexer.token import EOF, ERROR, Token
from .first_follow import GrammarAnalysis
from .ll1 import LLTable
from .program import (
    OP_CALL,
    OP_CHOICE,
    OP_LOOP,
    OP_MATCH,
    OP_OPT,
    OP_SEQ,
    ParseProgram,
    compile_program,
)
from .tree import Node

#: Fuel granted per input token when no explicit budget is configured on
#: the diagnostics path; generous for real grammars, small enough that
#: exponential backtracking on adversarial input dies quickly.
DEFAULT_STEPS_PER_TOKEN = 4000

#: Budget floor so tiny inputs still get room to fail informatively.
DEFAULT_STEP_FLOOR = 20_000

#: How often (in steps) the driver consults a propagated wall-clock
#: deadline.  Checks piggyback on the fuel counter: ``RunState.limit``
#: is the next step at which :func:`_check` runs, so the hot path pays
#: one compare per step; at >1M steps/s a timed-out parse aborts within
#: ~1 ms.
DEADLINE_CHECK_INTERVAL = 1024

#: Maximum simultaneous rule activations.  Kept well under Python's own
#: recursion limit so deeply nested input surfaces as ParseBudgetExceeded
#: rather than RecursionError.  The interpreter spends about three
#: frames per activation (``full`` parses an expression nested 15
#: parentheses deep, about 190 activations, at a recursion limit of
#: 592); compiled code one frame per activation it enters, and none for
#: the levels a chain skips (51 for the same input).  A caller already
#: holding hundreds of frames can exhaust Python's limit first: the entry
#: points report that as the same E0202 (:func:`_stack_exhausted`).
DEFAULT_MAX_DEPTH = 200

_MAXSTEPS = sys.maxsize
_EOF_SET = frozenset((EOF,))


# -- per-call parse state, shared by both backends ------------------------------


class _Fail(Exception):
    """Backtracking signal of both backends; never escapes a parse.

    It carries nothing: the furthest failure point is on the
    :class:`RunState`, so a raise costs no ``__init__`` call.
    """


class RunState:
    """The mutable registers of one parse call.

    ``i`` is the cursor into ``tokens``; ``fi``/``fexp`` the furthest
    failure index and the terminals expected there; ``depth`` the
    interpreter's active rule calls (a compiled rule function takes its
    depth as an argument); ``cov`` the coverage collector of a counting
    call.
    ``limit`` is the next step count at which :func:`_check` must run:
    with no budget and no deadline it is never reached; otherwise it is
    re-armed every :data:`DEADLINE_CHECK_INTERVAL` steps (and clamped to
    ``budget + 1`` so the budget trip is exact).
    """

    __slots__ = (
        "tokens", "i", "fi", "fexp", "steps", "limit",
        "budget", "deadline", "depth", "max_depth", "cov",
    )

    def __init__(
        self,
        tokens: list[Token],
        budget: int | None = None,
        deadline: Any = None,
        max_depth: int = DEFAULT_MAX_DEPTH,
        cov: Any = None,
    ) -> None:
        self.tokens = tokens
        self.i = 0
        self.fi = 0
        self.fexp: set[str] = set()
        self.steps = 0
        self.budget = budget
        self.deadline = deadline
        self.depth = 0
        self.max_depth = max_depth
        self.cov = cov
        if budget is None and deadline is None:
            self.limit = _MAXSTEPS
        elif budget is None:
            self.limit = DEADLINE_CHECK_INTERVAL
        else:
            self.limit = min(budget + 1, DEADLINE_CHECK_INTERVAL)


def _fail(s: RunState, expected: frozenset[str]) -> None:
    """Record the furthest failure point and unwind (never returns)."""
    i = s.i
    if i > s.fi:
        s.fi = i
        s.fexp = set(expected)
    elif i == s.fi:
        s.fexp |= expected
    raise _Fail


def _check(s: RunState, st: int) -> None:
    """Budget/deadline check at step ``st``, re-arming ``s.limit``."""
    b = s.budget
    if b is not None and st > b:
        token = s.tokens[s.i]
        raise ParseBudgetExceeded(
            f"parse budget of {b} steps exceeded "
            f"(pathological backtracking near {token.type})",
            line=token.line,
            column=token.column,
            steps=st,
        )
    deadline = s.deadline
    if deadline is not None and deadline.expired():
        token = s.tokens[min(s.i, len(s.tokens) - 1)]
        raise ParseDeadlineExceeded(
            f"parse aborted: request deadline expired after {st} "
            f"steps (near {token.type})",
            line=token.line,
            column=token.column,
            steps=st,
        )
    limit = st + DEADLINE_CHECK_INTERVAL
    if b is not None and b + 1 < limit:
        limit = b + 1
    s.limit = limit


def _depth_fail(s: RunState) -> None:
    """Depth-limit trip: the input nests deeper than ``s.max_depth``."""
    token = s.tokens[s.i]
    raise ParseBudgetExceeded(
        f"parser recursion depth limit of {s.max_depth} exceeded "
        f"(input nested too deeply near {token.type})",
        line=token.line,
        column=token.column,
        steps=s.steps,
    )


def _stack_exhausted(s: RunState) -> ParseBudgetExceeded:
    """Depth exhaustion of another kind: Python's stack ran out first.

    :data:`DEFAULT_MAX_DEPTH` leaves room for a shallow caller; one that
    already holds hundreds of frames can hit the interpreter's own
    recursion limit before it.  The parse then ends as it would at the
    depth limit, with a ParseBudgetExceeded at the cursor, instead of
    letting RecursionError out.
    """
    token = s.tokens[min(s.i, len(s.tokens) - 1)]
    return ParseBudgetExceeded(
        f"parser stack exhausted before the depth limit of {s.max_depth} "
        f"(input nested too deeply near {token.type})",
        line=token.line,
        column=token.column,
        steps=s.steps,
    )


@dataclass
class ParseOutcome:
    """Result of :meth:`Parser.parse_with_diagnostics`.

    Attributes:
        tree: The (possibly partial) parse tree — every input region the
            recovering parser could make sense of, in source order.
            ``None`` only when the grammar has no start rule.
        diagnostics: Every scan/parse diagnostic found in one pass.
        source: The original text, kept so diagnostics can render caret
            excerpts.
    """

    tree: Node | None
    diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    source: str | None = None

    @property
    def ok(self) -> bool:
        """Did the input parse without a single error?"""
        return not self.diagnostics.has_errors

    def render(self, filename: str = "<input>") -> str:
        """All diagnostics as caret-annotated text."""
        from ..diagnostics.render import render_diagnostics

        return render_diagnostics(
            self.diagnostics, source=self.source, filename=filename
        )


class Parser:
    """A ready-to-use parser for one composed grammar.

    Args:
        grammar: A *closed* grammar (validation must pass).
        scanner: Optional custom scanner; defaults to one built from the
            grammar's token set.
        strict: Refuse non-LL(1) grammars instead of backtracking.
        max_steps: Fuel budget for every parse: the maximum number of
            instruction-execution steps before :class:`ParseBudgetExceeded`
            is raised.  ``None`` (default) means unlimited for
            :meth:`parse`/:meth:`parse_tokens`; the diagnostics path
            always applies an input-scaled default.
        hint_provider: Optional callback ``(token, expected) ->
            tuple[str, ...]`` consulted when a syntax error is built, with
            the offending token and the terminals expected there; returned
            hints (e.g. "enable feature 'Window'") are attached to the
            error and its diagnostic.
        analysis / program: Let a registry share the immutable
            compiled pieces it already holds; passing them asserts the
            grammar was already validated when they were built.  When
            ``program`` is omitted it is compiled here.

    Parse state lives in a per-call :class:`RunState`, never on the
    parser, so one instance may serve any number of threads at once.
    """

    def __init__(
        self,
        grammar: Grammar,
        scanner: Scanner | None = None,
        strict: bool = False,
        max_steps: int | None = None,
        hint_provider=None,
        max_depth: int = DEFAULT_MAX_DEPTH,
        analysis: GrammarAnalysis | None = None,
        program: ParseProgram | None = None,
    ) -> None:
        if program is None:
            if analysis is None:
                validate(grammar).raise_if_failed()
                analysis = GrammarAnalysis(grammar)
            program = compile_program(grammar, analysis)
        self.grammar = grammar
        self.scanner = scanner if scanner is not None else Scanner(grammar.tokens)
        self.program = program
        self._analysis = analysis
        self._table: LLTable | None = None
        self.strict = strict
        if strict and self.table.conflicts:
            raise LLConflictError(
                f"grammar {grammar.name!r} is not LL(1): "
                + "; ".join(str(c) for c in self.table.conflicts[:5]),
                conflicts=self.table.conflicts,
            )
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.hint_provider = hint_provider
        # hot-path aliases into the program
        self._code = program.code
        self._rule_names = program.rule_names

    # -- shared compiled artifacts (lazy: a program-driven parser does not
    # -- need them unless a caller asks for conflict metrics or FIRST sets)

    @property
    def analysis(self) -> GrammarAnalysis:
        if self._analysis is None:
            self._analysis = GrammarAnalysis(self.grammar)
        return self._analysis

    @property
    def table(self) -> LLTable:
        if self._table is None:
            self._table = LLTable(self.grammar, self.analysis)
        return self._table

    # -- public API -----------------------------------------------------------

    def parse(
        self, text: str, start: str | None = None, coverage: Any = None
    ) -> Node:
        """Parse source text into a parse tree rooted at the start rule.

        The root is the start rule's node even when its activation
        passes its only child through, as every other activation with
        exactly one node child does (see :mod:`repro.parsing.tree`).

        ``coverage`` is an optional
        :class:`~repro.parsing.coverage.CoverageCollector` over this
        parser's program; the call then counts into it (see
        :meth:`parse_tokens`).

        Raises:
            ParseError: with position and expected-terminal information.
            ScanError: when tokenization fails.
        """
        return self.parse_tokens(
            self.scanner.scan(text), start=start, coverage=coverage
        )

    def parse_tokens(
        self,
        tokens: list[Token],
        start: str | None = None,
        max_steps: int | None = None,
        deadline=None,
        coverage: Any = None,
    ) -> Node:
        """Parse an already-scanned token list (must end with EOF).

        ``max_steps`` overrides the parser-level fuel budget for this
        call; exceeding it raises :class:`~repro.errors.ParseBudgetExceeded`,
        as does input nested past the depth limit, or past the room
        Python's stack leaves under the caller.
        ``deadline`` is an optional
        :class:`~repro.resilience.deadline.Deadline`; the driver checks it
        every :data:`DEADLINE_CHECK_INTERVAL` steps and aborts with
        :class:`~repro.errors.ParseDeadlineExceeded` (E0203) once expired,
        so a timed-out service request releases its worker promptly.

        ``coverage`` makes this call count: the walk a plain call takes
        also counts rule entries, CHOICE-alternative selections and
        OPT/LOOP/SEPLOOP taken/skipped edges into the collector, which
        must be keyed to this parser's program (``ValueError``
        otherwise).
        Counting is not synchronized: give each thread its own collector
        and fold them with
        :meth:`~repro.parsing.coverage.CoverageCollector.merge`.
        """
        rule_id = self._start_rule_id(start)
        budget = max_steps if max_steps is not None else self.max_steps
        if deadline is not None and budget is None:
            # deadline checks piggyback on the fuel counter; give the
            # counter the input-scaled default so it actually runs
            budget = DEFAULT_STEPS_PER_TOKEN * len(tokens) + DEFAULT_STEP_FLOOR
        s = self._state(tokens, budget, deadline, coverage)
        out: list = []
        try:
            self._call_rule(s, rule_id, out)
            if not tokens[s.i].is_eof:
                _fail(s, _EOF_SET)
        except _Fail:
            raise self._build_error(s) from None
        except RecursionError:
            raise _stack_exhausted(s) from None
        name = self._rule_names[rule_id]
        if out[0].name != name:
            # the root stays the start rule's node even when its
            # activation passed its only child through
            return Node(name, out)
        return out[0]

    def parse_with_diagnostics(
        self,
        text: str,
        start: str | None = None,
        max_errors: int | None = 25,
        max_steps: int | None = None,
        deadline=None,
        coverage: Any = None,
    ) -> ParseOutcome:
        """Resilient one-pass parse: partial tree plus *every* diagnostic.

        The pipeline never raises on malformed input:

        1. the scanner runs in recovery mode, reporting unmatchable
           characters as diagnostics instead of dying on the first one;
        2. on a syntax error the parser records a diagnostic (with
           feature hints when a ``hint_provider`` is configured), then
           panic-mode-synchronizes: tokens are skipped up to the start
           rule's sync set from the program (``;``, closing parens, EOF)
           and parsing resumes, so later errors are found in the same
           pass;
        3. a fuel budget (input-scaled unless overridden) turns
           pathological backtracking into a diagnostic instead of a hang,
           and nesting past the depth limit, or past the room Python's
           stack leaves under the caller, into an E0202 diagnostic.

        Args:
            text: Source text.
            start: Start rule override.
            max_errors: Stop recovering after this many errors
                (``None`` = unlimited; values below 1 are clamped to 1,
                since a zero-capacity bag would skip parsing entirely
                and report garbage as accepted).
            max_steps: Fuel override; defaults to
                ``DEFAULT_STEPS_PER_TOKEN * tokens + DEFAULT_STEP_FLOOR``.
            deadline: Optional propagated
                :class:`~repro.resilience.deadline.Deadline`; expiry
                surfaces as an E0203 diagnostic, not an exception.
            coverage: Optional collector this call counts into (see
                :meth:`parse_tokens`).
        """
        if max_errors is not None and max_errors < 1:
            max_errors = 1
        tokens, scan_diagnostics = self.scanner.scan_with_diagnostics(text)
        bag = DiagnosticBag(max_errors=max_errors)
        bag.extend(scan_diagnostics)
        if scan_diagnostics:
            # ERROR tokens are already diagnosed; drop them so the parser
            # sees the best-effort remainder of the stream.  A clean scan
            # has none and is handed over as it is.
            tokens = [t for t in tokens if t.type != ERROR]

        start_rule = start if start is not None else self.grammar.start
        if start_rule is None:
            bag.add(Diagnostic("grammar has no start rule"))
            return ParseOutcome(None, bag, text)

        rule_id = self._start_rule_id(start)
        body = self._code[rule_id]
        sync = self.program.sync[rule_id]
        consumable = self.program.consumable
        if max_steps is None:
            max_steps = DEFAULT_STEPS_PER_TOKEN * len(tokens) + DEFAULT_STEP_FLOOR
        s = self._state(tokens, max_steps, deadline, coverage)
        cov = s.cov

        root = Node(start_rule)
        try:
            while not bag.full():
                if cov is not None:
                    # the start rule's body runs without a _call_rule frame;
                    # count its entry here so rule coverage still sees it
                    cov.rules[rule_id] += 1
                iteration_start = s.i
                s.fi = s.i
                s.fexp = set()
                failed = False
                try:
                    # execute the start rule's body directly into the
                    # root (no depth frame) so a partially parsed
                    # single-alternative rule keeps its children
                    self._exec(s, body, root)
                except _Fail:
                    failed = True
                if not failed and tokens[s.i].is_eof:
                    break
                if not failed:
                    # a segment parsed but trailing input remains
                    if s.i > s.fi:
                        s.fi = s.i
                        s.fexp = set()
                    if s.i == s.fi:
                        s.fexp.add(EOF)
                bag.add(self._build_error(s).to_diagnostic())
                # panic-mode synchronization: skip to a sync token
                s.i = max(s.i, s.fi)
                while not tokens[s.i].is_eof and tokens[s.i].type not in sync:
                    s.i += 1
                while not tokens[s.i].is_eof and tokens[s.i].type in consumable:
                    s.i += 1
                if tokens[s.i].is_eof:
                    break
                if s.i == iteration_start:
                    s.i += 1  # always make progress
        except ParseBudgetExceeded as exceeded:
            bag.add(exceeded.to_diagnostic())
        except RecursionError:
            bag.add(_stack_exhausted(s).to_diagnostic())
        current = tokens[s.i]
        if bag.full() and not current.is_eof:
            bag.truncated = True
        if bag.truncated:
            bag.items.append(
                Diagnostic(
                    "too many errors; giving up on the rest of the input",
                    span=Span.of_token(current),
                    severity=Severity.NOTE,
                    code=TOO_MANY_ERRORS,
                )
            )
        return ParseOutcome(root, bag, text)

    def accepts(
        self,
        text: str,
        start: str | None = None,
        max_steps: int | None = None,
        coverage: Any = None,
    ) -> bool:
        """True when the text parses; scan and parse errors both count as no.

        Resource-limit exhaustion — the fuel budget (``max_steps`` here or
        the parser-level one), the recursion-depth cap, or Python's own
        stack running out under a deep caller — also counts as rejection:
        an input this parser refuses to spend more resources on is an
        input it does not accept (E0202 never escapes as a crash).
        ``coverage`` counts the call into a collector (see
        :meth:`parse_tokens`).
        """
        from ..errors import ScanError

        try:
            self.parse_tokens(self.scanner.scan(text), start=start,
                              max_steps=max_steps, coverage=coverage)
        except ParseBudgetExceeded:
            # explicit: budget/depth exhaustion is a rejection, not an error
            return False
        except (ParseError, ScanError):
            return False
        return True

    # -- parse machinery --------------------------------------------------------

    def _state(self, tokens: list[Token], budget, deadline, coverage) -> RunState:
        """The registers of one call; ``coverage`` must fit this program."""
        if coverage is not None and coverage.map.program is not self.program:
            # point ids are keyed by instruction identity, so a collector
            # built over any other program object cannot be used here
            raise ValueError(
                "coverage collector is keyed to a different parse program "
                f"({coverage.map.program.grammar_name!r})"
            )
        return RunState(tokens, budget, deadline, self.max_depth, coverage)

    def _start_rule_id(self, start: str | None) -> int:
        """Resolve a start-rule override to its interned program id."""
        start_rule = start if start is not None else self.grammar.start
        if start_rule is None:
            raise ParseError("grammar has no start rule")
        rule_id = self.program.rule_ids.get(start_rule)
        if rule_id is None:
            # unknown rule: delegate for the canonical GrammarError
            self.grammar.rule(start_rule)
            raise ParseError(f"grammar has no rule {start_rule!r}")
        return rule_id

    def _build_error(self, s: RunState) -> ParseError:
        """The syntax error at the call's furthest failure point."""
        tokens = s.tokens
        token = tokens[min(s.fi, len(tokens) - 1)]
        found = "end of input" if token.is_eof else repr(token.text)
        expected_set = frozenset(s.fexp)
        expected = ", ".join(sorted(expected_set))
        span = Span.of_token(token)
        hints: tuple[str, ...] = ()
        if self.hint_provider is not None and not token.is_eof:
            try:
                hints = tuple(self.hint_provider(token, expected_set))
            except Exception:  # a hint must never mask the real error
                hints = ()
        return ParseError(
            f"syntax error: found {found}, expected one of: {expected}",
            line=token.line,
            column=token.column,
            expected=expected_set,
            found=token.type,
            end_line=span.end_line,
            end_column=span.end_column,
            hints=hints,
        )

    def _call_rule(self, s: RunState, rule_id: int, out: list) -> None:
        """Run one rule and append its node to ``out``.

        A node whose children are exactly one node is not kept: that
        child is appended in its place (the activation passes through).

        The backend hook: :class:`~repro.parsing.closures.ClosureParser`
        overrides it with a direct call into compiled code on the same
        state, and hands a counting call back here.  A counting call
        (``s.cov`` set) counts the entry before the depth check.
        """
        cov = s.cov
        if cov is not None:
            cov.rules[rule_id] += 1
        d = s.depth
        if d >= s.max_depth:
            _depth_fail(s)
        s.depth = d + 1
        node = Node(self._rule_names[rule_id])  # its own child list
        try:
            self._exec(s, self._code[rule_id], node)
        finally:
            s.depth = d
        if len(node) == 1 and type(node[0]) is Node:
            out.append(node[0])
        else:
            out.append(node)

    def _exec(self, s: RunState, instr, children: list) -> None:
        """Execute one tuple-encoded instruction against the token stream.

        The one walk of both plain and counting calls: with ``s.cov``
        set, CHOICE counts the alternative it commits to and
        OPT/LOOP/SEPLOOP count their taken or skipped edge (see
        :mod:`repro.parsing.coverage`), each once the decision is final.
        The counts are bumped inline: a helper call per count made a
        counting call ~4% slower (EXPERIMENTS E22).
        """
        if s.budget is not None:
            st = s.steps + 1
            s.steps = st
            if st >= s.limit:
                _check(s, st)
        op = instr[0]
        if op == OP_MATCH:
            token = s.tokens[s.i]
            if token.type != instr[1]:
                _fail(s, instr[2])
            children.append(token)
            s.i += 1
        elif op == OP_SEQ:
            for item in instr[1]:
                self._exec(s, item, children)
        elif op == OP_CALL:
            self._call_rule(s, instr[1], children)
        elif op == OP_CHOICE:
            # (op, dispatch, default, expected, blocks, firsts, nullables)
            candidates = instr[1].get(s.tokens[s.i].type)
            if candidates is None:
                candidates = instr[2]
            if not candidates:
                _fail(s, instr[3])
            if len(candidates) == 1:
                block = candidates[0]
                self._exec(s, block, children)
                if s.cov is not None:
                    s.cov.alts[s.cov.map.slot_of_block[id(block)]] += 1
                return
            saved_index = s.i
            saved_len = len(children)
            last_failure: _Fail | None = None
            for block in candidates:
                try:
                    self._exec(s, block, children)
                except _Fail as failure:
                    last_failure = failure
                    s.i = saved_index
                    del children[saved_len:]
                else:
                    if s.cov is not None:
                        s.cov.alts[s.cov.map.slot_of_block[id(block)]] += 1
                    return
            assert last_failure is not None
            raise last_failure
        elif op == OP_OPT:
            # (op, inner, first)
            if s.tokens[s.i].type not in instr[2]:
                if s.cov is not None:
                    s.cov.skipped[s.cov.map.decision_of_instr[id(instr)]] += 1
                return
            saved_index = s.i
            saved_len = len(children)
            try:
                self._exec(s, instr[1], children)
            except _Fail:
                # the optional content looked plausible but did not parse;
                # treat as absent and let the continuation decide
                s.i = saved_index
                del children[saved_len:]
                if s.cov is not None:
                    s.cov.skipped[s.cov.map.decision_of_instr[id(instr)]] += 1
            else:
                if s.cov is not None:
                    s.cov.taken[s.cov.map.decision_of_instr[id(instr)]] += 1
        elif op == OP_LOOP:
            # (op, inner, first, min)
            inner = instr[1]
            first = instr[2]
            tokens = s.tokens
            count = 0
            while tokens[s.i].type in first:
                saved_index = s.i
                saved_len = len(children)
                try:
                    self._exec(s, inner, children)
                except _Fail:
                    s.i = saved_index
                    del children[saved_len:]
                    break
                if s.i == saved_index:
                    break  # inner matched empty input; avoid infinite loop
                count += 1
            if count < instr[3]:
                _fail(s, first)
            if s.cov is not None:
                cov = s.cov
                (cov.taken if count > instr[3] else cov.skipped)[
                    cov.map.decision_of_instr[id(instr)]
                ] += 1
        else:  # OP_SEPLOOP: (op, inner, sep, first, sep_first, min)
            tokens = s.tokens
            if instr[5] == 0 and tokens[s.i].type not in instr[3]:
                if s.cov is not None:
                    s.cov.skipped[s.cov.map.decision_of_instr[id(instr)]] += 1
                return
            self._exec(s, instr[1], children)
            sep_first = instr[4]
            more = False  # a separator and a further item parsed
            while tokens[s.i].type in sep_first:
                saved_index = s.i
                saved_len = len(children)
                try:
                    self._exec(s, instr[2], children)
                    self._exec(s, instr[1], children)
                except _Fail:
                    # the separator belonged to the surrounding context
                    s.i = saved_index
                    del children[saved_len:]
                    break
                more = True
            if s.cov is not None:
                cov = s.cov
                (cov.taken if more else cov.skipped)[
                    cov.map.decision_of_instr[id(instr)]
                ] += 1
