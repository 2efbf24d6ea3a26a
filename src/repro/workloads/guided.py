"""Coverage-guided sentence generation.

The template generators in :mod:`repro.workloads.generator` are fast and
benchmark-realistic, but they plateau well short of full grammar
coverage.  :class:`CoverageGuidedGenerator` is the one generator that
derives sentences from a composed product: it walks the product's
compiled :class:`~repro.parsing.program.ParseProgram` — the instruction
objects the :class:`~repro.parsing.coverage.CoverageMap` numbered — and
steers every decision toward what the collector has not seen yet:

* a CHOICE aims at an alternative whose slot is still zero, an OPT/LOOP/
  SEPLOOP at an unexercised *taken*/*skipped* edge;
* once every alternative has counted, a CHOICE heads for the one with
  the cheapest *route* to a point that has not (the fewest terminals a
  derivation needs to reach it), so a deep point is sought, not met by
  luck; with no route below, it takes the cheapest alternative while a
  point elsewhere is still open, so the sentence keeps its budget;
* otherwise it falls back to seeded randomness.  Once the depth or
  token budget is spent, decisions take minimal cost, still aiming at
  an open point among the cheapest alternatives and at an open optional
  single terminal (a script's trailing ``;``);
* it never enters a body that derives no finite sentence, and refuses a
  start rule that derives none at all.

Each sentence is parsed by the interpreter into a private collector.  An
accepted sentence is returned and its counts merged into the generator's
collector, so the bias tracks what the parser really did.  A rejected
one is never returned and counts nothing; it is kept in
:attr:`CoverageGuidedGenerator.rejected`, which a caller checking that a
product accepts what its grammar derives should find empty.  The first
point the sentence aimed at and its parse did not count is struck and
never aimed at again (an alternative that an earlier one shadows never
counts), unless it was aimed at past the token the parse failed on:
such a point was never tested.  Generation is deterministic per seed.
"""

from __future__ import annotations

import heapq
import random

from ..errors import ParseError, ScanError
from ..parsing.coverage import CoverageCollector, CoverageMap
from ..parsing.program import (
    OP_CALL,
    OP_CHOICE,
    OP_LOOP,
    OP_MATCH,
    OP_OPT,
    OP_SEPLOOP,
    OP_SEQ,
)

_INF = 10**9

#: Sentence budget: past this expansion depth, or once a sentence holds
#: this many tokens, decisions collapse to minimal cost.
MAX_DEPTH = 60
MAX_TOKENS = 200
#: :meth:`CoverageGuidedGenerator.generate_until_dry` emits batches of
#: ``BATCH`` sentences until ``DRY_BATCHES`` in a row add no coverage, or
#: until ``MAX_SENTENCES``.
BATCH = 25
DRY_BATCHES = 2
MAX_SENTENCES = 2000
#: :meth:`CoverageGuidedGenerator.sentence` gives up after this many
#: rejected sentences in a row.
MAX_REJECTIONS = 100

#: Sample lexemes for the standard pattern tokens.
_PATTERN_SAMPLES: dict[str, list[str]] = {
    "IDENTIFIER": ["tbl", "col_a", "col_b", "x1", "payload", "zz"],
    "QUOTED_IDENTIFIER": ['"Mixed Case"', '"t 2"'],
    "UNSIGNED_INTEGER": ["0", "7", "42", "1024"],
    "DECIMAL_LITERAL": ["3.14", "0.5", "99.00"],
    "APPROXIMATE_LITERAL": ["1E3", "2.5e-2"],
    "STRING_LITERAL": ["'abc'", "'it''s'", "''"],
    "BINARY_STRING_LITERAL": ["X'0AFF'", "x''"],
    "NATIONAL_STRING_LITERAL": ["N'text'"],
    "UNICODE_STRING_LITERAL": ["U&'text'"],
}


def build_terminal_table(tokens) -> dict[str, list[str]]:
    """Sample lexemes per terminal name: keywords and literal tokens
    print their fixed text, pattern tokens draw from :data:`_PATTERN_SAMPLES`."""
    table: dict[str, list[str]] = {}
    for definition in tokens:
        if definition.skip:
            continue
        if definition.kind in ("keyword", "literal"):
            table[definition.name] = [definition.pattern]
        else:
            samples = _PATTERN_SAMPLES.get(definition.name)
            if samples:
                table[definition.name] = samples
    return table


class CoverageGuidedGenerator:
    """Generate sentences of a product, biased toward uncovered grammar points.

    Args:
        product: A :class:`~repro.core.product_line.ComposedProduct`.
        collector: Count into an existing collector over one of the
            product's programs; the walk then runs that program.  By
            default the product's program is compiled and counted afresh.
        seed: RNG seed; generation is deterministic per seed.

    Points are numbered flat: alternative slots, then the taken and
    skipped edge of each decision, then rule entries.
    """

    def __init__(
        self,
        product,
        collector: CoverageCollector | None = None,
        seed: int = 0,
    ) -> None:
        if collector is None:
            collector = CoverageMap(product.program()).collector()
        program = collector.map.program
        self.product = product
        self.program = program
        self.collector = collector
        #: every sentence the walk derived and the product rejected
        self.rejected: list[str] = []
        self.rng = random.Random(seed)
        self.parser = product.parser(hints=False, program=program)
        coverage_map = collector.map
        self._private = CoverageCollector(coverage_map)
        self._slot_of_block = coverage_map.slot_of_block
        self._decision_of_instr = coverage_map.decision_of_instr
        self._first_edge = coverage_map.n_alt_slots
        self._first_rule = self._first_edge + 2 * len(coverage_map.decisions)
        self._terminals = build_terminal_table(program.token_set)
        self._out: list[str] = []
        self._rule_cost = self._compute_rule_costs()
        self._costs: dict[int, int] = {}  # id(instr) -> _cost(instr)
        self._reaches: dict[int, tuple[list, list]] = {}  # id(instr) -> _reach
        # callers[r]: (caller, fewest terminals around the call) per call of r
        self._callers: list[list[tuple[int, int]]] = [[] for _ in program.code]
        for caller, body in enumerate(program.code):
            for callee, extra in self._reach(body)[1]:
                self._callers[callee].append((caller, extra))
        # refreshed whenever the collector's score moves or a point is
        # struck: points counted or struck, and the routes to the others
        self._score: int | None = None
        self._closed: list[int] = []
        self._rule_route: list[int] = []
        self._routes: dict[int, int] = {}  # id(instr) -> _route(instr)
        self._struck: set[int] = set()
        # points this sentence aimed at, each with the number of tokens
        # emitted before it: without this overlay one open recursive
        # alternative would be re-picked at every depth of a single
        # sentence and the expansion would explode
        self._aimed: dict[int, int] = {}

    # -- public ------------------------------------------------------------

    def sentence(self) -> str:
        """Emit one sentence the product accepts, counting it into the collector."""
        start = self.program.start
        if start is None:
            raise ValueError(
                f"program {self.program.grammar_name!r} has no start rule"
            )
        if self._rule_cost[start] >= _INF:
            raise ValueError(
                f"start rule {self.program.rule_names[start]!r} of "
                f"{self.program.grammar_name!r} derives no finite sentence"
            )
        private = self._private
        for _ in range(MAX_REJECTIONS):
            if self._score != self.collector.score():
                self._refresh()
            self._out = []
            self._aimed.clear()
            self._emit(self.program.code[start], self._out, depth=0)
            text = " ".join(self._out)
            private.reset()
            try:
                self.parser.parse(text, coverage=private)
            except (ParseError, ScanError) as error:
                self.rejected.append(text)
                self._strike(self._flat(private), error.column - 1)
                continue
            self.collector.merge(private)
            return text
        raise ValueError(
            f"{self.program.grammar_name!r} rejected {MAX_REJECTIONS} "
            f"generated sentences in a row"
        )

    def generate(self, count: int) -> list[str]:
        """Exactly ``count`` sentences (fixed-size corpus mode)."""
        return [self.sentence() for _ in range(count)]

    def generate_until_dry(self) -> list[str]:
        """Generate until coverage stops improving.

        Batches of :data:`BATCH` sentences run until :data:`DRY_BATCHES`
        in a row leave the collector's monotone
        :meth:`~repro.parsing.coverage.CoverageCollector.score` where it
        was (what is still uncovered is then taken to be out of reach),
        or until :data:`MAX_SENTENCES`.
        """
        sentences: list[str] = []
        dry = 0
        while dry < DRY_BATCHES and len(sentences) < MAX_SENTENCES:
            before = self.collector.score()
            room = min(BATCH, MAX_SENTENCES - len(sentences))
            sentences.extend(self.sentence() for _ in range(room))
            dry = dry + 1 if self.collector.score() == before else 0
        return sentences

    # -- minimal-cost analysis (termination) -------------------------------

    def _compute_rule_costs(self) -> list[int]:
        """Fixpoint: minimum terminals derivable per program rule."""
        costs = [_INF] * len(self.program.code)
        changed = True
        while changed:
            changed = False
            for rule_id, body in enumerate(self.program.code):
                cost = self._instr_cost(body, costs)
                if cost < costs[rule_id]:
                    costs[rule_id] = cost
                    changed = True
        return costs

    def _cost(self, instr) -> int:
        """Minimum terminals ``instr`` derives (``>= _INF``: none), memoised."""
        cost = self._costs.get(id(instr))
        if cost is None:
            cost = self._costs[id(instr)] = self._instr_cost(
                instr, self._rule_cost
            )
        return cost

    def _instr_cost(self, instr, costs: list[int]) -> int:
        op = instr[0]
        if op == OP_MATCH:
            return 1
        if op == OP_CALL:
            return costs[instr[1]]
        if op == OP_SEQ:
            return sum(self._instr_cost(i, costs) for i in instr[1])
        if op == OP_CHOICE:
            return min(
                (self._instr_cost(b, costs) for b in instr[4]), default=_INF
            )
        if op == OP_OPT:
            return 0
        if op == OP_LOOP:
            if instr[3] == 0:
                return 0
            return instr[3] * self._instr_cost(instr[1], costs)
        # OP_SEPLOOP
        if instr[5] == 0:
            return 0
        item = self._instr_cost(instr[1], costs)
        sep = self._instr_cost(instr[2], costs)
        return instr[5] * item + (instr[5] - 1) * sep

    # -- routes to open points (steering) ----------------------------------

    def _flat(self, collector: CoverageCollector) -> list[int]:
        """A collector's counts, indexed by point number."""
        edges = [c for pair in zip(collector.taken, collector.skipped) for c in pair]
        return collector.alts + edges + collector.rules

    def _refresh(self) -> None:
        """Recompute which points are open and every rule's route to one."""
        self._score = self.collector.score()
        closed = self._flat(self.collector)
        for point in self._struck:
            closed[point] = 1
        self._closed = closed
        self._routes.clear()
        # a rule's own points first (entering an open rule costs the
        # rule's minimal size), then shortest paths up the call graph
        first_rule, costs = self._first_rule, self._rule_cost
        routes = [
            costs[rule_id] if not closed[first_rule + rule_id]
            else min((c for p, c in self._reach(body)[0] if not closed[p]),
                     default=_INF)
            for rule_id, body in enumerate(self.program.code)
        ]
        heap = [(route, rule_id) for rule_id, route in enumerate(routes)
                if route < _INF]
        heapq.heapify(heap)
        while heap:
            route, rule_id = heapq.heappop(heap)
            if route > routes[rule_id]:
                continue
            for caller, extra in self._callers[rule_id]:
                if route + extra < routes[caller]:
                    routes[caller] = route + extra
                    heapq.heappush(heap, (route + extra, caller))
        self._rule_route = routes

    def _route(self, instr) -> int:
        """Fewest terminals a derivation of ``instr`` needs to reach an
        open point (``>= _INF``: none), memoised until the next refresh."""
        route = self._routes.get(id(instr))
        if route is None:
            points, calls = self._reach(instr)
            closed, rule_route = self._closed, self._rule_route
            route = self._routes[id(instr)] = min(
                [c for p, c in points if not closed[p]]
                + [extra + rule_route[r] for r, extra in calls],
                default=_INF,
            )
        return route

    def _reach(self, instr) -> tuple[list, list]:
        """``(points, calls)`` under ``instr``: each point with the fewest
        terminals a derivation needs to exercise it, and each called rule
        with the fewest terminals a derivation needs around that call.
        Depends on the program alone, so it is memoised for good."""
        reach = self._reaches.get(id(instr))
        if reach is None:
            reach = self._reaches[id(instr)] = ([], [])
            self._collect(instr, 0, *reach)
        return reach

    def _collect(self, instr, extra: int, points: list, calls: list) -> None:
        op = instr[0]
        if op == OP_MATCH:
            return
        if op == OP_CALL:
            calls.append((instr[1], extra))
            return
        cost = self._cost
        if op == OP_SEQ:
            total = sum(cost(i) for i in instr[1])
            for item in instr[1]:
                self._collect(item, extra + total - cost(item), points, calls)
            return
        if op == OP_CHOICE:
            for block in instr[4]:
                points.append((self._slot_of_block[id(block)], extra + cost(block)))
                self._collect(block, extra, points, calls)
            return
        taken, skipped = self._edges(instr)
        item = cost(instr[1])
        if op == OP_OPT:
            points += [(taken, extra + item), (skipped, extra)]
            self._collect(instr[1], extra, points, calls)
        elif op == OP_LOOP:
            floor = instr[3]
            points += [(taken, extra + (floor + 1) * item),
                       (skipped, extra + floor * item)]
            self._collect(instr[1], extra + max(floor - 1, 0) * item,
                          points, calls)
        else:  # OP_SEPLOOP: taken needs two items, skipped at most one
            floor, sep = instr[5], cost(instr[2])
            pair = max(floor, 2)
            points.append((taken, extra + pair * item + (pair - 1) * sep))
            if floor <= 1:
                points.append((skipped, extra + floor * item))
            self._collect(instr[1], extra + max(floor - 1, 0) * (item + sep),
                          points, calls)
            self._collect(instr[2], extra + pair * item + (pair - 2) * sep,
                          points, calls)

    def _strike(self, counted: list[int], offset: int) -> None:
        """Strike the first point a rejected sentence, whose parse failed
        at character ``offset``, aimed at and did not count."""
        failed, end = 0, 0  # failed: the tokens the parse got past
        for token in self._out:
            end += len(token)
            if end > offset:
                break
            failed += 1
            end += 1
        for point, emitted in self._aimed.items():
            if not counted[point]:
                # a point aimed at past the failure was never tested
                if emitted <= failed:
                    self._struck.add(point)
                    self._score = None
                return

    def _edges(self, instr) -> tuple[int, int]:
        """The taken and skipped edge points of a decision instruction."""
        taken = self._first_edge + 2 * self._decision_of_instr[id(instr)]
        return taken, taken + 1

    def _open(self, point: int) -> bool:
        """Is ``point`` uncovered, unstruck and not aimed at yet?"""
        return not self._closed[point] and point not in self._aimed

    def _aim(self, *points: int) -> int:
        """Aim at the first open point of ``points``: its position, or -1."""
        for position, point in enumerate(points):
            if self._open(point):
                self._aimed[point] = len(self._out)
                return position
        return -1

    # -- emission ----------------------------------------------------------

    def _emit(self, instr, out: list[str], depth: int) -> None:
        op = instr[0]
        if op == OP_MATCH:
            samples = self._terminals.get(instr[1])
            if not samples:
                raise ValueError(f"no sample text for terminal {instr[1]!r}")
            out.append(self.rng.choice(samples))
            return
        if op == OP_CALL:
            self._emit(self.program.code[instr[1]], out, depth + 1)
            return
        if op == OP_SEQ:
            for item in instr[1]:
                self._emit(item, out, depth)
            return
        if op == OP_CHOICE:
            self._emit(self._pick_block(instr, depth), out, depth + 1)
            return
        if op == OP_OPT:
            if self._want_optional(instr, depth):
                self._emit(instr[1], out, depth + 1)
            return
        if op == OP_LOOP:
            for _ in range(self._repeat_count(instr, instr[3], depth)):
                self._emit(instr[1], out, depth + 1)
            return
        # OP_SEPLOOP
        count = self._repeat_count(instr, instr[5], depth)
        for index in range(count):
            if index:
                self._emit(instr[2], out, depth + 1)
            self._emit(instr[1], out, depth + 1)

    def _exhausted(self, depth: int) -> bool:
        """Has this sentence spent its depth or size budget?"""
        return depth > MAX_DEPTH or len(self._out) >= MAX_TOKENS

    def _pick_block(self, instr, depth: int):
        blocks = [b for b in instr[4] if self._cost(b) < _INF]
        if len(blocks) == 1:
            return blocks[0]
        exhausted = self._exhausted(depth)
        if exhausted:
            blocks = self._least(blocks, self._cost)
        slot_of_block = self._slot_of_block
        uncovered = [b for b in blocks if self._open(slot_of_block[id(b)])]
        if uncovered:
            choice = self.rng.choice(uncovered)
            self._aimed[slot_of_block[id(choice)]] = len(self._out)
            return choice
        if not exhausted:
            # every alternative already counted (or aimed at earlier in
            # this sentence): head for the cheapest route onward
            steered = self._least(blocks, self._route)
            if self._route(steered[0]) < _INF:
                blocks = steered
            elif self._rule_route[self.program.start] < _INF:
                blocks = self._least(blocks, self._cost)
        return self.rng.choice(blocks)

    @staticmethod
    def _least(blocks: list, key) -> list:
        """The blocks with the least ``key``."""
        values = [key(b) for b in blocks]
        least = min(values)
        return [b for b, v in zip(blocks, values, strict=True) if v == least]

    def _want_optional(self, instr, depth: int) -> bool:
        body = self._cost(instr[1])
        if body >= _INF:
            return False
        taken, skipped = self._edges(instr)
        if self._exhausted(depth):
            # a spent budget still takes a single new terminal
            return body <= 1 and self._aim(taken) == 0
        aim = self._aim(taken, skipped)
        return aim == 0 if aim >= 0 else self.rng.random() < 0.4

    def _repeat_count(self, instr, minimum: int, depth: int) -> int:
        seploop = instr[0] == OP_SEPLOOP
        if self._exhausted(depth) or self._cost(instr[1]) >= _INF or (
            seploop and self._cost(instr[2]) >= _INF
        ):
            # a spent budget, or a body or separator that derives no
            # finite sentence: stop at the floor, which never runs a dead
            # body on a loop that a finite sentence can reach
            return minimum
        # taken: LOOP iterated beyond its floor, SEPLOOP ran its
        # separator (>= 2 items); skipped: the floor, or 0-1 items
        edges = self._edges(instr)
        aim = self._aim(*(edges[:1] if seploop and minimum >= 2 else edges))
        if aim == 0:
            return max(minimum, 2) if seploop else minimum + self.rng.randint(1, 2)
        if aim == 1:
            return minimum
        count = minimum
        while count < minimum + 3 and self.rng.random() < 0.35:
            count += 1
        return count


def coverage_guided_workload(product, count: int, seed: int = 0) -> list[str]:
    """Fixed-size coverage-guided corpus for one composed product."""
    return CoverageGuidedGenerator(product, seed=seed).generate(count)
