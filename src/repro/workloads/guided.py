"""Coverage-guided workload generation.

The plain per-dialect generators in :mod:`repro.workloads.generator` are
template-based: fast and benchmark-realistic, but they plateau well
short of full grammar coverage (they never emit a ``WITH`` clause the
template author didn't write).  :class:`CoverageGuidedGenerator` closes
that gap by walking the product's compiled
:class:`~repro.parsing.program.ParseProgram` *itself* — the same
instruction objects the :class:`~repro.parsing.coverage.CoverageMap`
numbered — and steering every decision toward what the collector has not
seen yet:

* at a CHOICE, prefer alternatives whose counter slot is still zero;
* at an OPT/LOOP/SEPLOOP, prefer whichever *taken*/*skipped* edge is
  still unexercised;
* otherwise fall back to seeded randomness, with a depth budget that
  degrades to minimal-cost expansion so recursion terminates;
* never enter a body that derives no finite sentence (a non-productive
  rule), and refuse a start rule that derives none at all.

Each emitted sentence is immediately parsed by the interpreter, counting
into the generator's collector (``coverage=``), so the bias reflects
*actual* coverage (what the parser really did), not what the generator
intended — and the emitted corpus is guaranteed accepted by the product.
Generation is deterministic per seed: coverage state evolves
deterministically from the same decisions it feeds.
"""

from __future__ import annotations

import random

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
from ..parsing.sentences import build_terminal_table

_INF = 10**9


class CoverageGuidedGenerator:
    """Generate dialect sentences biased toward uncovered grammar regions.

    Args:
        product: A :class:`~repro.core.product_line.ComposedProduct`.
        program: Reuse an already-compiled parse program (must be the
            product's); compiled on demand otherwise.
        collector: Count into an existing collector (must be keyed to
            ``program``); a fresh one is created otherwise.
        seed: RNG seed; generation is deterministic per seed.
        max_depth: Expansion budget after which decisions collapse to
            minimal-cost choices so recursion terminates.
        max_tokens: Per-sentence size budget; once an emission reaches
            this many tokens every remaining decision also collapses to
            minimal cost, bounding sentence size (uncovered-alternative
            bias would otherwise compound into pathological sentences).
    """

    def __init__(
        self,
        product,
        program=None,
        collector: CoverageCollector | None = None,
        seed: int = 0,
        max_depth: int = 60,
        max_tokens: int = 200,
    ) -> None:
        self.product = product
        self.program = program if program is not None else product.program()
        if collector is None:
            collector = CoverageCollector(CoverageMap(self.program))
        self.collector = collector
        self.rng = random.Random(seed)
        self.max_depth = max_depth
        self.max_tokens = max_tokens
        self._out: list[str] = []
        self._terminals = build_terminal_table(product.grammar.tokens)
        self._rule_cost = self._compute_rule_costs()
        self._costs: dict[int, int] = {}  # id(instr) -> _cost(instr)
        # per-sentence overlay of alternative picks: the shared collector
        # only advances after a sentence is parsed, so without this a
        # "least-exercised" tie would re-pick the same recursive
        # alternative at every depth of a single sentence and the
        # expansion would explode
        self._picked: dict[int, int] = {}
        self.parser = product.parser(hints=False, program=self.program)

    # -- public ------------------------------------------------------------

    def sentence(self) -> str:
        """Emit one sentence and parse it into the collector."""
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
        out: list[str] = []
        self._out = out
        self._picked.clear()
        self._emit(self.program.code[start], out, depth=0)
        text = " ".join(out)
        # parsing both validates the sentence and advances the coverage
        # state the *next* sentence's bias reads
        self.parser.accepts(text, coverage=self.collector)
        return text

    def generate(self, count: int) -> list[str]:
        """Exactly ``count`` sentences (fixed-size corpus mode)."""
        return [self.sentence() for _ in range(count)]

    def generate_until_dry(
        self,
        batch: int = 25,
        dry_batches: int = 2,
        max_sentences: int = 2000,
    ) -> list[str]:
        """Generate until coverage stops improving.

        Sentences are emitted in batches; when ``dry_batches``
        consecutive batches fail to raise the collector's monotone
        :meth:`~repro.parsing.coverage.CoverageCollector.score`, the
        remaining uncovered points are taken to be unreachable by this
        generator and the corpus is returned.  ``max_sentences`` is a
        hard stop against surprise non-convergence.
        """
        sentences: list[str] = []
        dry = 0
        while dry < dry_batches and len(sentences) < max_sentences:
            before = self.collector.score()
            room = min(batch, max_sentences - len(sentences))
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
        return depth > self.max_depth or len(self._out) >= self.max_tokens

    def _pick_block(self, instr, depth: int):
        blocks = [b for b in instr[4] if self._cost(b) < _INF]
        if len(blocks) == 1:
            return blocks[0]
        slot_of_block = self.collector.map.slot_of_block
        if self._exhausted(depth):
            costs = [self._cost(b) for b in blocks]
            cheapest = min(costs)
            pool = [b for b, c in zip(blocks, costs, strict=True) if c == cheapest]
            return self.rng.choice(pool)
        alts = self.collector.alts
        picked = self._picked
        uncovered = [
            b
            for b in blocks
            if not alts[slot_of_block[id(b)]]
            and not picked.get(slot_of_block[id(b)])
        ]
        if uncovered:
            choice = self.rng.choice(uncovered)
            slot = slot_of_block[id(choice)]
            picked[slot] = picked.get(slot, 0) + 1
            return choice
        # every alternative already seen (or targeted earlier in this very
        # sentence): unbiased choice keeps sentences small and varied
        return self.rng.choice(blocks)

    def _decision(self, instr):
        index = self.collector.map.decision_of_instr[id(instr)]
        return (
            bool(self.collector.taken[index]),
            bool(self.collector.skipped[index]),
        )

    def _want_optional(self, instr, depth: int) -> bool:
        if self._exhausted(depth) or self._cost(instr[1]) >= _INF:
            return False
        taken, skipped = self._decision(instr)
        if not taken:
            return True
        if not skipped:
            return False
        return self.rng.random() < 0.4

    def _repeat_count(self, instr, minimum: int, depth: int) -> int:
        if self._exhausted(depth):
            return minimum
        if self._cost(instr[1]) >= _INF or (
            instr[0] == OP_SEPLOOP and self._cost(instr[2]) >= _INF
        ):
            # a body or separator that derives no finite sentence: stop
            # at the floor, which never runs it on a loop that a finite
            # sentence can reach
            return minimum
        taken, skipped = self._decision(instr)
        if instr[0] == OP_SEPLOOP:
            # taken = separator continuation ran (>= 2 items);
            # skipped = 0 or 1 items — only reachable when min allows it
            if not taken:
                return max(minimum, 2)
            if not skipped and minimum < 2:
                return minimum
        elif not taken:
            # taken = iterated beyond the floor
            return minimum + self.rng.randint(1, 2)
        elif not skipped:
            return minimum
        count = minimum
        while count < minimum + 3 and self.rng.random() < 0.35:
            count += 1
        return count


def coverage_guided_workload(
    product,
    count: int,
    seed: int = 0,
    program=None,
    collector: CoverageCollector | None = None,
) -> list[str]:
    """Fixed-size coverage-guided corpus for one composed product."""
    generator = CoverageGuidedGenerator(
        product, program=program, collector=collector, seed=seed
    )
    return generator.generate(count)
