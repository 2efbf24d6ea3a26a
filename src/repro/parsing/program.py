"""Parse-program IR: one compiled semantics source for every backend.

The paper's pipeline hands each composed LL(k) grammar to a parser
generator so the product accepts exactly the selected feature set.  This
module is the reproduction's equivalent of that generated artifact: a
:func:`compile_program` pass lowers a validated
:class:`~repro.grammar.grammar.Grammar` plus its
:class:`~repro.parsing.first_follow.GrammarAnalysis` into a flat,
immutable :class:`ParseProgram` — tuple-encoded instructions with
interned token/rule ids, FIRST-set dispatch tables precomputed for every
choice point, per-rule FOLLOW/sync sets for panic-mode recovery, and an
embedded fingerprint for cache validation.

Every consumer of "what does this product accept?" reads the program
instead of re-deriving structure from the grammar:

* the interpreting :class:`~repro.parsing.parser.Parser` is a driver
  over the instruction form (flat opcode dispatch, no ``Element``
  pattern-matching on the hot path);
* the closure lowering (:mod:`repro.parsing.closures`) turns the *same*
  program into one Python function per rule — for the served backend
  and, with the served runtime's source, for the standalone module
  :func:`~repro.parsing.codegen.generate_parser_source` exports — so
  generated parsers are correct by construction rather than by
  parallel maintenance;
* the diagnostics machinery takes sync/expected sets straight from the
  program;
* the :mod:`repro.service` disk cache serializes programs, token
  definitions included, as the one artifact of a product
  (``<digest>.ir.json``): a process-pool worker builds its scanner and
  lowers its compiled backend from the loaded program.

Instruction set (opcode, operands...):

``MATCH tok``
    Consume one terminal or fail with the expected set.
``CALL rule``
    Run the callee's block under a new tree node; a node whose children
    are exactly one node is left out, that child taking its place
    (:func:`passage`).
``SEQ (i1, i2, ...)``
    Run instructions in order.
``CHOICE dispatch``
    Ordered alternatives behind a FIRST-set dispatch table: one dict
    lookup yields the candidate blocks for the current lookahead
    (token-consuming candidates first, epsilon-deriving fallbacks last).
``OPT inner``
    Guarded optional: attempted only when the lookahead is in the
    inner block's FIRST set; a failed attempt is rolled back.
``LOOP inner`` / ``SEPLOOP inner sep``
    (Separated) repetition driven by FIRST-set continuation guards,
    with min-count enforcement and trailing-separator backoff.
"""

from __future__ import annotations

import json

from ..grammar.expr import Choice, Element, Opt, Ref, Rep, Seq, Tok
from ..grammar.grammar import Grammar
from ..grammar.validate import validate
from ..lexer.spec import TokenDef, TokenSet
from ..lexer.token import EOF
from .first_follow import GrammarAnalysis

#: Serialization format version; bumped on incompatible layout changes so
#: stale on-disk IR artifacts from older builds never load.
IR_VERSION = 2

# -- opcodes -----------------------------------------------------------------

OP_MATCH = 0
OP_CALL = 1
OP_SEQ = 2
OP_CHOICE = 3
OP_OPT = 4
OP_LOOP = 5
OP_SEPLOOP = 6

OP_NAMES = ("MATCH", "CALL", "SEQ", "CHOICE", "OPT", "LOOP", "SEPLOOP")

#: Sync terminals the recovery loop may *consume* (they can never start a
#: new top-level construct, so skipping past them is always safe).
CONSUMABLE_SYNC = ("SEMICOLON", "RPAREN")


class ParseProgram:
    """The compiled, immutable form of one composed grammar.

    Attributes:
        grammar_name: Name of the source grammar (diagnostics only).
        fingerprint: Cache-key digest of the product this program was
            compiled from; ``None`` for ad-hoc grammars.
        token_names / token_ids: Interned terminal names (EOF included).
        rule_names / rule_ids: Interned nonterminal names; ``code[rid]``
            is rule ``rule_names[rid]``'s body instruction.
        start: Rule id of the start rule, or ``None``.
        code: One instruction tree per rule, indexed by rule id.
        follow: Per-rule FOLLOW sets (terminal names).
        sync: Per-rule panic-mode sync sets — FOLLOW plus the grammar's
            consumable statement boundaries plus EOF.
        consumable: The :data:`CONSUMABLE_SYNC` terminals present in this
            grammar's token set.
        token_set: The grammar's token definitions, in definition order
            (the order the scanner breaks priority and length ties in):
            the composed grammar's own set, or one rebuilt by
            :meth:`from_json`.
    """

    __slots__ = (
        "grammar_name",
        "fingerprint",
        "token_names",
        "token_ids",
        "rule_names",
        "rule_ids",
        "start",
        "code",
        "follow",
        "sync",
        "consumable",
        "token_set",
    )

    def __init__(
        self,
        grammar_name: str,
        token_names: tuple[str, ...],
        rule_names: tuple[str, ...],
        start: int | None,
        code: tuple,
        follow: tuple,
        sync: tuple,
        consumable: tuple[str, ...],
        token_set: TokenSet,
        fingerprint: str | None = None,
    ) -> None:
        self.grammar_name = grammar_name
        self.fingerprint = fingerprint
        self.token_names = token_names
        self.token_ids = {name: i for i, name in enumerate(token_names)}
        self.rule_names = rule_names
        self.rule_ids = {name: i for i, name in enumerate(rule_names)}
        self.start = start
        self.code = code
        self.follow = follow
        self.sync = sync
        self.consumable = consumable
        self.token_set = token_set

    # -- queries -----------------------------------------------------------

    def rule_id(self, name: str) -> int | None:
        return self.rule_ids.get(name)

    def start_name(self) -> str | None:
        return None if self.start is None else self.rule_names[self.start]

    def sync_for(self, rule_id: int) -> frozenset[str]:
        """Panic-mode synchronization terminals for one rule."""
        return self.sync[rule_id]

    def expected_at_start(self, rule_id: int) -> frozenset[str]:
        """Terminals that can begin the rule (the instruction's own guard)."""
        return _instr_first(self.code[rule_id])

    def size(self) -> dict[str, int]:
        """Instruction-count metrics (the IR's analogue of grammar.size())."""
        instructions = sum(_count_instrs(body) for body in self.code)
        dispatch = sum(_count_dispatch(body) for body in self.code)
        return {
            "rules": len(self.rule_names),
            "tokens": len(self.token_names),
            "instructions": instructions,
            "dispatch_entries": dispatch,
        }

    def __repr__(self) -> str:
        return (
            f"<ParseProgram {self.grammar_name!r}: {len(self.rule_names)} rules, "
            f"{len(self.token_names)} tokens, start={self.start_name()!r}>"
        )

    # -- listing -----------------------------------------------------------

    def listing(self) -> str:
        """Readable dump of the whole program (the ``repro ir`` command)."""
        lines = [
            f"parse program for grammar {self.grammar_name!r}",
            f"  fingerprint: {self.fingerprint or '<none>'}",
            f"  start rule:  {self.start_name() or '<none>'}",
            f"  interned:    {len(self.rule_names)} rules, "
            f"{len(self.token_names)} tokens",
        ]
        size = self.size()
        lines.append(
            f"  size:        {size['instructions']} instructions, "
            f"{size['dispatch_entries']} dispatch entries"
        )
        for rid, name in enumerate(self.rule_names):
            lines.append("")
            lines.append(f"rule #{rid} {name}:")
            lines.append(f"  FOLLOW {_fmt_set(self.follow[rid])}")
            lines.append(f"  SYNC   {_fmt_set(self.sync[rid])}")
            _list_instr(self.code[rid], lines, 1)
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """Serialize for the on-disk artifact cache (stable, versioned)."""
        payload = {
            "kind": "repro-parse-program",
            "version": IR_VERSION,
            "grammar": self.grammar_name,
            "fingerprint": self.fingerprint,
            "tokens": list(self.token_names),
            "rules": list(self.rule_names),
            "start": self.start,
            "code": [self._encode(body) for body in self.code],
            "follow": [self._encode_set(s) for s in self.follow],
            "sync": [self._encode_set(s) for s in self.sync],
            "consumable": list(self.consumable),
            "token_defs": [
                [d.name, d.pattern, d.kind, d.priority, d.skip]
                for d in self.token_set
            ],
        }
        return json.dumps(payload, separators=(",", ":"))

    def _encode_set(self, terms: frozenset[str]) -> list[int]:
        ids = self.token_ids
        return sorted(ids[t] for t in terms)

    def _encode(self, instr) -> list:
        op = instr[0]
        if op == OP_MATCH:
            return [op, self.token_ids[instr[1]], self._encode_set(instr[2])]
        if op == OP_CALL:
            return [op, instr[1]]
        if op == OP_SEQ:
            return [op, [self._encode(i) for i in instr[1]]]
        if op == OP_CHOICE:
            _dispatch, _default, _expected, blocks, firsts, nullables = instr[1:]
            return [
                op,
                [self._encode(b) for b in blocks],
                [self._encode_set(f) for f in firsts],
                [int(n) for n in nullables],
            ]
        if op == OP_OPT:
            return [op, self._encode(instr[1]), self._encode_set(instr[2])]
        if op == OP_LOOP:
            return [op, self._encode(instr[1]), self._encode_set(instr[2]), instr[3]]
        # OP_SEPLOOP
        return [
            op,
            self._encode(instr[1]),
            self._encode(instr[2]),
            self._encode_set(instr[3]),
            self._encode_set(instr[4]),
            instr[5],
        ]

    @classmethod
    def from_json(cls, text: str) -> "ParseProgram":
        """Deserialize a program; raises ``ValueError`` on a bad artifact."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"not a parse-program artifact: {error}") from None
        if not isinstance(payload, dict) or payload.get("kind") != "repro-parse-program":
            raise ValueError("not a parse-program artifact")
        if payload.get("version") != IR_VERSION:
            raise ValueError(
                f"parse-program version {payload.get('version')!r} != {IR_VERSION}"
            )
        tokens = tuple(payload["tokens"])

        def decode_set(ids: list[int]) -> frozenset[str]:
            return frozenset(tokens[i] for i in ids)

        def decode(enc: list):
            op = enc[0]
            if op == OP_MATCH:
                return (op, tokens[enc[1]], decode_set(enc[2]))
            if op == OP_CALL:
                return (op, enc[1])
            if op == OP_SEQ:
                return (op, tuple(decode(i) for i in enc[1]))
            if op == OP_CHOICE:
                blocks = tuple(decode(b) for b in enc[1])
                firsts = tuple(decode_set(f) for f in enc[2])
                nullables = tuple(bool(n) for n in enc[3])
                return _make_choice(blocks, firsts, nullables)
            if op == OP_OPT:
                return (op, decode(enc[1]), decode_set(enc[2]))
            if op == OP_LOOP:
                return (op, decode(enc[1]), decode_set(enc[2]), enc[3])
            if op == OP_SEPLOOP:
                return (
                    op,
                    decode(enc[1]),
                    decode(enc[2]),
                    decode_set(enc[3]),
                    decode_set(enc[4]),
                    enc[5],
                )
            raise ValueError(f"unknown opcode {op!r} in parse-program artifact")

        try:
            return cls(
                grammar_name=payload["grammar"],
                token_names=tokens,
                rule_names=tuple(payload["rules"]),
                start=payload["start"],
                code=tuple(decode(body) for body in payload["code"]),
                follow=tuple(decode_set(s) for s in payload["follow"]),
                sync=tuple(decode_set(s) for s in payload["sync"]),
                consumable=tuple(payload["consumable"]),
                token_set=TokenSet(
                    payload["grammar"],
                    (TokenDef(*d) for d in payload["token_defs"]),
                ),
                fingerprint=payload.get("fingerprint"),
            )
        except (KeyError, IndexError, TypeError) as error:
            raise ValueError(
                f"malformed parse-program artifact: {error!r}"
            ) from None


def program_fingerprint(text: str) -> str | None:
    """Extract the embedded fingerprint from a serialized program.

    The disk cache uses this to tell a fresh ``.ir.json`` artifact from
    a stale or corrupt one without building the program.  It still runs
    ``json.loads`` on the whole text, so a caller that needs the
    program should decode it once with :meth:`ParseProgram.from_json`
    and read its ``fingerprint``.  Any malformed artifact reads as
    ``None``.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or payload.get("kind") != "repro-parse-program":
        return None
    if payload.get("version") != IR_VERSION:
        return None
    value = payload.get("fingerprint")
    return value if isinstance(value, str) else None


# -- compilation --------------------------------------------------------------


def _make_choice(
    blocks: tuple,
    firsts: tuple,
    nullables: tuple,
):
    """Assemble a CHOICE instruction, precomputing its dispatch table.

    The dispatch table maps each possible lookahead terminal to the
    ordered candidate blocks the interpreter would otherwise select at
    parse time: token-consuming alternatives (declaration order) first,
    then epsilon-deriving fallbacks.  Lookaheads outside every FIRST set
    fall back to the epsilon-only default.
    """
    union: set[str] = set()
    for f in firsts:
        union |= f
    default = tuple(
        blocks[i] for i in range(len(blocks)) if nullables[i]
    )
    dispatch: dict[str, tuple] = {}
    for terminal in union:
        viable = tuple(
            blocks[i] for i in range(len(blocks)) if terminal in firsts[i]
        )
        fallbacks = tuple(
            blocks[i]
            for i in range(len(blocks))
            if nullables[i] and terminal not in firsts[i]
        )
        dispatch[terminal] = viable + fallbacks
    return (
        OP_CHOICE,
        dispatch,
        default,
        frozenset(union),
        blocks,
        firsts,
        nullables,
    )


class _Compiler:
    """Lowers one grammar + analysis into a :class:`ParseProgram`."""

    def __init__(self, grammar: Grammar, analysis: GrammarAnalysis) -> None:
        self.grammar = grammar
        self.analysis = analysis
        self.rule_names = tuple(grammar.rule_names())
        self.rule_ids = {name: i for i, name in enumerate(self.rule_names)}

    def compile(self, fingerprint: str | None) -> ParseProgram:
        grammar = self.grammar
        analysis = self.analysis
        token_names = sorted(grammar.tokens.names() | {EOF})
        consumable = tuple(
            t for t in CONSUMABLE_SYNC if t in grammar.tokens.names()
        )
        boundaries = frozenset(consumable) | frozenset((EOF,))
        code = tuple(self._compile_rule(rule) for rule in grammar)
        follow = tuple(
            analysis.follow.get(name, frozenset()) for name in self.rule_names
        )
        sync = tuple(f | boundaries for f in follow)
        start = None
        if grammar.start is not None:
            start = self.rule_ids.get(grammar.start)
        return ParseProgram(
            grammar_name=grammar.name,
            token_names=tuple(token_names),
            rule_names=self.rule_names,
            start=start,
            code=code,
            follow=follow,
            sync=sync,
            consumable=consumable,
            token_set=grammar.tokens,
            fingerprint=fingerprint,
        )

    def _compile_rule(self, rule):
        alternatives = rule.alternatives
        if len(alternatives) == 1:
            return self._compile_element(alternatives[0])
        return self._compile_choice(alternatives)

    def _compile_choice(self, alternatives):
        blocks = tuple(self._compile_element(alt) for alt in alternatives)
        firsts = tuple(self.analysis.first_of(alt) for alt in alternatives)
        nullables = tuple(self.analysis.nullable_of(alt) for alt in alternatives)
        return _make_choice(blocks, firsts, nullables)

    def _compile_element(self, element: Element):
        if isinstance(element, Tok):
            return (OP_MATCH, element.name, frozenset((element.name,)))
        if isinstance(element, Ref):
            return (OP_CALL, self.rule_ids[element.name])
        if isinstance(element, Seq):
            return (
                OP_SEQ,
                tuple(self._compile_element(item) for item in element.items),
            )
        if isinstance(element, Opt):
            return (
                OP_OPT,
                self._compile_element(element.inner),
                self.analysis.first_of(element.inner),
            )
        if isinstance(element, Rep):
            inner = self._compile_element(element.inner)
            first = self.analysis.first_of(element.inner)
            if element.separator is None:
                return (OP_LOOP, inner, first, element.min)
            return (
                OP_SEPLOOP,
                inner,
                self._compile_element(element.separator),
                first,
                self.analysis.first_of(element.separator),
                element.min,
            )
        if isinstance(element, Choice):
            return self._compile_choice(element.alternatives)
        raise TypeError(f"unknown element: {element!r}")


def compile_program(
    grammar: Grammar,
    analysis: GrammarAnalysis | None = None,
    fingerprint: str | None = None,
) -> ParseProgram:
    """Compile a (validated) grammar into its parse program.

    ``analysis`` lets callers that already computed FIRST/FOLLOW (the
    service registry, a parser) skip recomputation; when omitted the
    grammar is validated first, exactly like :class:`Parser` construction.
    """
    if analysis is None:
        validate(grammar).raise_if_failed()
        analysis = GrammarAnalysis(grammar)
    return _Compiler(grammar, analysis).compile(fingerprint)


# -- static-analysis helpers ---------------------------------------------------


def walk_instructions(instr):
    """Yield ``instr`` and every nested instruction, execution order.

    CHOICE yields its alternative blocks (declaration order); SEPLOOP
    yields item before separator.  This is the traversal both the
    coverage map and the :mod:`repro.lint` passes rely on.
    """
    yield instr
    op = instr[0]
    if op == OP_SEQ:
        for item in instr[1]:
            yield from walk_instructions(item)
    elif op == OP_CHOICE:
        for block in instr[4]:
            yield from walk_instructions(block)
    elif op in (OP_OPT, OP_LOOP):
        yield from walk_instructions(instr[1])
    elif op == OP_SEPLOOP:
        yield from walk_instructions(instr[1])
        yield from walk_instructions(instr[2])


def called_rules(instr) -> frozenset[int]:
    """Rule ids a compiled instruction tree can CALL into."""
    return frozenset(
        nested[1]
        for nested in walk_instructions(instr)
        if nested[0] == OP_CALL
    )


#: How a rule activation leaves its result in the parent (:func:`passage`).
#: A node whose children are exactly one node is replaced by that child.
WRAPS = 0  # never exactly one node child: the rule always leaves its node
PASSES = 1  # always exactly one node child and no token: it always passes
MAY_PASS = 2  # sometimes; a lone child is always a node
MAY_PASS_TOKEN = 3  # sometimes; a lone child may be a token


def _shapes(instr) -> frozenset[tuple[bool, int]]:
    """What one successful run of ``instr`` can append to its node.

    Each shape is ``(appended a token, nodes appended capped at 2)``;
    the set holds every shape some path can produce, and may hold more
    (a loop's minimum beyond one is not tracked).
    """
    op = instr[0]
    if op == OP_MATCH:
        return frozenset(((True, 0),))
    if op == OP_CALL:  # a call always leaves exactly one node
        return frozenset(((False, 1),))
    if op == OP_SEQ:
        shapes = frozenset(((False, 0),))
        for item in instr[1]:
            shapes = _then(shapes, _shapes(item))
        return shapes
    if op == OP_CHOICE:
        return frozenset().union(*(_shapes(block) for block in instr[4]))
    if op == OP_OPT:
        return _shapes(instr[1]) | {(False, 0)}
    if op == OP_LOOP:  # (op, inner, first, min)
        shapes, optional = _repeated(_shapes(instr[1])), instr[3] == 0
    else:  # OP_SEPLOOP: item (sep item)*
        item = _shapes(instr[1])
        shapes = item | _then(item, _repeated(_then(_shapes(instr[2]), item)))
        optional = instr[5] == 0
    return shapes | {(False, 0)} if optional else shapes


def _then(left, right) -> frozenset[tuple[bool, int]]:
    return frozenset(
        (t1 or t2, min(n1 + n2, 2)) for t1, n1 in left for t2, n2 in right
    )


def _repeated(inner) -> frozenset[tuple[bool, int]]:
    """The shapes of one or more runs of a block with shapes ``inner``."""
    shapes = inner
    while True:
        more = shapes | _then(shapes, inner)
        if more == shapes:
            return shapes
        shapes = more


def _passes(instr) -> bool:
    """Every successful run appends exactly one node, last, and nothing else.

    Structural (a call, alone or behind a choice of such blocks), so a
    run that fails has appended nothing: the lowering may let such a
    rule append straight into its parent.
    """
    op = instr[0]
    if op == OP_CALL:
        return True
    if op == OP_SEQ:
        return len(instr[1]) == 1 and _passes(instr[1][0])
    if op == OP_CHOICE:
        return all(_passes(block) for block in instr[4])
    return False


def passage(instr) -> int:
    """How an activation of a rule with body ``instr`` leaves its result.

    One of :data:`WRAPS`, :data:`PASSES`, :data:`MAY_PASS` and
    :data:`MAY_PASS_TOKEN`; the closure lowering emits the pass-through
    check only where the answer depends on the input.
    """
    if _passes(instr):
        return PASSES
    shapes = _shapes(instr)
    if (False, 1) not in shapes:
        return WRAPS
    return MAY_PASS_TOKEN if (True, 0) in shapes else MAY_PASS


def reachable_rules(program: "ParseProgram") -> frozenset[int]:
    """Rule ids reachable from the program's start rule via CALLs.

    A program without a start rule reports every rule reachable — there
    is no root to be unreachable *from*.
    """
    if program.start is None:
        return frozenset(range(len(program.rule_names)))
    seen = {program.start}
    frontier = [program.start]
    while frontier:
        rid = frontier.pop()
        for callee in called_rules(program.code[rid]):
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return frozenset(seen)


def rule_nullability(program: "ParseProgram") -> tuple[bool, ...]:
    """Per-rule "can derive epsilon" flags, recomputed from the program.

    The IR does not persist the grammar analysis it was compiled from, so
    consumers that only hold a deserialized program (the lint passes, a
    cache-loaded service entry) re-derive nullability by fixpoint over
    the instruction form.
    """
    nullable = [False] * len(program.rule_names)
    changed = True
    while changed:
        changed = False
        for rid, body in enumerate(program.code):
            if not nullable[rid] and instruction_nullable(body, nullable):
                nullable[rid] = True
                changed = True
    return tuple(nullable)


def instruction_nullable(instr, rule_nullable) -> bool:
    """Can an instruction tree match the empty token sequence?

    ``rule_nullable`` maps rule id -> nullability for CALL instructions
    (a sequence or list of bools, as produced by :func:`rule_nullability`).
    """
    op = instr[0]
    if op == OP_MATCH:
        return False
    if op == OP_CALL:
        return bool(rule_nullable[instr[1]])
    if op == OP_SEQ:
        return all(instruction_nullable(i, rule_nullable) for i in instr[1])
    if op == OP_CHOICE:
        return any(instruction_nullable(b, rule_nullable) for b in instr[4])
    if op == OP_OPT:
        return True
    if op == OP_LOOP:
        return instr[3] == 0 or instruction_nullable(instr[1], rule_nullable)
    # OP_SEPLOOP: nullable when zero items are allowed or the item is nullable
    return instr[5] == 0 or instruction_nullable(instr[1], rule_nullable)


# -- listing / metrics helpers ------------------------------------------------


def _instr_first(instr) -> frozenset[str]:
    """The guard set an instruction would accept as its first terminal."""
    op = instr[0]
    if op == OP_MATCH:
        return instr[2]
    if op == OP_CHOICE:
        return instr[3]
    if op in (OP_OPT, OP_LOOP):
        return instr[2]
    if op == OP_SEPLOOP:
        return instr[3]
    if op == OP_SEQ:
        first: set[str] = set()
        for item in instr[1]:
            first |= _instr_first(item)
            if item[0] not in (OP_OPT, OP_LOOP) and not (
                item[0] == OP_SEPLOOP and item[5] == 0
            ):
                break
        return frozenset(first)
    return frozenset()  # OP_CALL: the callee's guard is its own rule's


def _count_instrs(instr) -> int:
    op = instr[0]
    if op == OP_SEQ:
        return 1 + sum(_count_instrs(i) for i in instr[1])
    if op == OP_CHOICE:
        return 1 + sum(_count_instrs(b) for b in instr[4])
    if op in (OP_OPT, OP_LOOP):
        return 1 + _count_instrs(instr[1])
    if op == OP_SEPLOOP:
        return 1 + _count_instrs(instr[1]) + _count_instrs(instr[2])
    return 1


def _count_dispatch(instr) -> int:
    op = instr[0]
    if op == OP_SEQ:
        return sum(_count_dispatch(i) for i in instr[1])
    if op == OP_CHOICE:
        return len(instr[1]) + sum(_count_dispatch(b) for b in instr[4])
    if op in (OP_OPT, OP_LOOP):
        return _count_dispatch(instr[1])
    if op == OP_SEPLOOP:
        return _count_dispatch(instr[1]) + _count_dispatch(instr[2])
    return 0


def _fmt_set(terms: frozenset[str], limit: int = 8) -> str:
    names = sorted(terms)
    if len(names) > limit:
        shown = ", ".join(names[:limit])
        return f"{{{shown}, … +{len(names) - limit}}}"
    return "{" + ", ".join(names) + "}"


def _list_instr(instr, lines: list[str], depth: int, prefix: str = "") -> None:
    pad = "  " * depth
    op = instr[0]
    label = f"{pad}{prefix}{OP_NAMES[op]}"
    if op == OP_MATCH:
        lines.append(f"{label} {instr[1]}")
    elif op == OP_CALL:
        lines.append(f"{label} #{instr[1]}")
    elif op == OP_SEQ:
        lines.append(label)
        for item in instr[1]:
            _list_instr(item, lines, depth + 1)
    elif op == OP_CHOICE:
        blocks, firsts, nullables = instr[4], instr[5], instr[6]
        lines.append(f"{label} expected {_fmt_set(instr[3])}")
        for index, block in enumerate(blocks):
            tag = "ε " if nullables[index] else ""
            lines.append(
                f"{pad}  alt {index} {tag}first {_fmt_set(firsts[index])}"
            )
            _list_instr(block, lines, depth + 2)
    elif op == OP_OPT:
        lines.append(f"{label} guard {_fmt_set(instr[2])}")
        _list_instr(instr[1], lines, depth + 1)
    elif op == OP_LOOP:
        lines.append(
            f"{label} min={instr[3]} continue {_fmt_set(instr[2])}"
        )
        _list_instr(instr[1], lines, depth + 1)
    else:  # OP_SEPLOOP
        lines.append(
            f"{label} min={instr[5]} first {_fmt_set(instr[3])} "
            f"sep {_fmt_set(instr[4])}"
        )
        _list_instr(instr[1], lines, depth + 1, prefix="item: ")
        _list_instr(instr[2], lines, depth + 1, prefix="sep:  ")
