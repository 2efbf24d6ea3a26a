"""Token definitions and composable token sets.

The paper keeps "a file containing various tokens used in the grammar" next
to every sub-grammar and composes those files into a single token file when
features are composed.  :class:`TokenSet` is our in-memory equivalent of
such a file, and :meth:`TokenSet.merge` is the composition operation.

Three kinds of token definitions exist:

* **keywords** — case-insensitive reserved words (``SELECT``, ``WHERE``).
  They are matched as identifiers first and then promoted, so composing a
  *smaller* dialect genuinely frees the unused words for use as
  identifiers (ablation A3 in DESIGN.md).
* **operators/punctuation** — fixed literal text such as ``<=`` or ``,``,
  matched longest-first.
* **patterns** — regular-expression tokens such as identifiers and
  literals, tried in priority order.
"""

from __future__ import annotations

import re
import re._parser as _regex_parser  # type: ignore  # private; no stub
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import TokenConflictError, TokenMergeConflictError


@dataclass(frozen=True, slots=True)
class TokenDef:
    """A single token definition.

    Attributes:
        name: Terminal name used in grammars (conventionally UPPER_CASE).
        pattern: Regex source for pattern tokens, literal text otherwise.
        kind: ``"keyword"``, ``"literal"`` (fixed text) or ``"pattern"``.
        priority: Pattern tokens are tried highest priority first; ties are
            broken by definition order.
        skip: Skip tokens (whitespace, comments) are matched and discarded.
    """

    name: str
    pattern: str
    kind: str = "pattern"
    priority: int = 0
    skip: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("keyword", "literal", "pattern"):
            raise ValueError(f"unknown token kind: {self.kind!r}")

    @property
    def is_keyword(self) -> bool:
        return self.kind == "keyword"


def keyword(word: str, name: str | None = None) -> TokenDef:
    """Define a case-insensitive keyword token.

    The terminal name defaults to the upper-cased word itself.
    """
    return TokenDef(name or word.upper(), word.upper(), kind="keyword")


def literal(name: str, text: str) -> TokenDef:
    """Define a fixed-text operator or punctuation token."""
    return TokenDef(name, text, kind="literal")


def pattern(name: str, regex: str, priority: int = 0, skip: bool = False) -> TokenDef:
    """Define a regular-expression token."""
    return TokenDef(name, regex, kind="pattern", priority=priority, skip=skip)


class TokenSet:
    """An ordered, composable collection of token definitions.

    Equivalent to one of the paper's per-feature token files.  Token sets
    merge by name: re-adding an identical definition is a no-op, while two
    definitions that share a name but disagree on pattern or kind raise
    :class:`TokenConflictError` — silent shadowing is how composed grammars
    acquire baffling scan failures.
    """

    def __init__(self, name: str = "", defs: Iterable[TokenDef] = ()) -> None:
        self.name = name
        self._defs: dict[str, TokenDef] = {}
        # provenance: which unit (token file) contributed each definition;
        # defaults to this set's own name.  Not part of equality — two
        # sets with the same definitions are the same token file.
        self._origins: dict[str, str] = {}
        for d in defs:
            self.add(d)

    def _origin_label(self, origin: str | None) -> str:
        return origin or self.name or "<anonymous>"

    def add(self, definition: TokenDef, origin: str | None = None) -> None:
        """Add one definition, rejecting conflicting redefinitions.

        ``origin`` names the unit (token file) the definition came from;
        it is recorded so a later conflicting redefinition can name both
        contributors.
        """
        existing = self._defs.get(definition.name)
        if existing is not None:
            if existing != definition:
                self._raise_conflict(existing, definition, origin)
            return
        self._defs[definition.name] = definition
        self._origins[definition.name] = self._origin_label(origin)

    def _raise_conflict(
        self, existing: TokenDef, definition: TokenDef, origin: str | None
    ) -> None:
        if existing.pattern != definition.pattern:
            disagreement = (
                f"pattern: {existing.pattern!r} vs {definition.pattern!r}"
            )
        else:
            disagreement = f"kind: {existing.kind!r} vs {definition.kind!r}"
        detail = (
            f"token {definition.name!r} redefined with a different "
            f"{disagreement}"
        )
        prior = self._origins.get(existing.name, self._origin_label(None))
        incoming = self._origin_label(origin)
        if prior != incoming:
            # a cross-unit redefinition is a *composition* failure: name
            # both contributing units so the selection can be fixed
            raise TokenMergeConflictError(
                f"cannot merge token files: unit {incoming!r} conflicts "
                f"with unit {prior!r} ({detail})",
                token=definition.name,
                units=(prior, incoming),
            )
        raise TokenConflictError(detail)

    def merge(self, other: "TokenSet") -> "TokenSet":
        """Compose two token sets into a new one (the paper's token-file merge).

        A token defined by both operands must be defined identically;
        otherwise a :class:`~repro.errors.TokenMergeConflictError` is
        raised naming the two contributing units.
        """
        merged = self.copy()
        merged.update(other)
        return merged

    def update(self, other: "TokenSet") -> None:
        """:meth:`merge` ``other`` into this set in place."""
        if not self.name:
            self.name = other.name
        for d in other:
            self.add(d, origin=other._origins.get(d.name, other.name))

    def copy(self) -> "TokenSet":
        """An independent set with the same definitions and origins."""
        clone = TokenSet(name=self.name)
        clone._defs = dict(self._defs)
        clone._origins = dict(self._origins)
        return clone

    def get(self, name: str) -> TokenDef | None:
        return self._defs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __iter__(self) -> Iterator[TokenDef]:
        return iter(self._defs.values())

    def __len__(self) -> int:
        return len(self._defs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenSet):
            return NotImplemented
        return self._defs == other._defs

    def names(self) -> frozenset[str]:
        """All terminal names defined in this set."""
        return frozenset(self._defs)

    def origins(self) -> dict[str, str]:
        """Token name -> the unit (token file) that contributed it.

        A merge keeps the first definition of a name, so in a composed
        set this is the first unit in the composition sequence to
        declare the token.
        """
        return dict(self._origins)

    @property
    def keywords(self) -> dict[str, str]:
        """Mapping of upper-cased keyword text to terminal name."""
        return {d.pattern: d.name for d in self if d.is_keyword}

    @property
    def literals(self) -> list[TokenDef]:
        """Fixed-text tokens, longest text first (for maximal munch)."""
        lits = [d for d in self if d.kind == "literal"]
        lits.sort(key=lambda d: -len(d.pattern))
        return lits

    @property
    def patterns(self) -> list[TokenDef]:
        """Pattern tokens in priority order (highest first, stable)."""
        pats = [d for d in self if d.kind == "pattern"]
        pats.sort(key=lambda d: -d.priority)
        return pats

    def describe(self) -> str:
        """Human-readable summary, used by the dialect explorer example."""
        kws = sorted(self.keywords.values())
        lines = [f"token set {self.name or '<anonymous>'}: {len(self)} tokens"]
        if kws:
            lines.append(f"  keywords ({len(kws)}): {', '.join(kws)}")
        lits = [d.name for d in self.literals]
        if lits:
            lines.append(f"  literals ({len(lits)}): {', '.join(lits)}")
        pats = [d.name for d in self.patterns]
        if pats:
            lines.append(f"  patterns ({len(pats)}): {', '.join(pats)}")
        return "\n".join(lines)


#: Standard skip tokens shared by every SQL dialect: whitespace plus SQL's
#: ``--`` line comments and ``/* */`` block comments.
def standard_skip_tokens() -> list[TokenDef]:
    return [
        pattern("WHITESPACE", r"[ \t\r\n]+", priority=100, skip=True),
        pattern("LINE_COMMENT", r"--[^\n]*", priority=99, skip=True),
        pattern("BLOCK_COMMENT", r"/\*(?:[^*]|\*(?!/))*\*/", priority=98, skip=True),
    ]


def compile_master_pattern(token_set: TokenSet) -> "re.Pattern[str]":
    """Compile a single alternation regex implementing maximal munch.

    Order inside the alternation encodes precedence: skip tokens and
    pattern tokens by priority, then literal tokens longest-first.
    Keywords are intentionally *not* part of the regex — they are promoted
    from identifier matches by the scanner so that keyword sets stay
    composable without recompiling identifier rules.
    """
    parts: list[str] = []
    for d in token_set.patterns:
        parts.append(f"(?P<{d.name}>{d.pattern})")
    for d in token_set.literals:
        parts.append(f"(?P<{d.name}>{re.escape(d.pattern)})")
    if not parts:
        # A grammar with keywords only still needs *something* to match.
        parts.append(r"(?P<_NOTHING_>(?!))")
    return re.compile("|".join(parts))


def compile_fast_pattern(
    token_set: TokenSet,
) -> "tuple[re.Pattern[str], tuple[str | None, ...], frozenset[str]]":
    """Compile the scanner's fast pattern, where one match is one token.

    The alternatives are :func:`compile_master_pattern`'s, in its order,
    with three changes (DESIGN §4.8, "One scanner"):

    * Each alternative is its token's own pattern followed by an empty
      marker group named after the token, ``(?:pat)(?P<NAME>)``, so the
      alternation sees the pattern's first character and skips an
      alternative that cannot start there without entering it.  The
      marker closes last, so ``match.lastindex`` is its index whatever
      groups the pattern itself holds.
    * The leading run of skip tokens becomes a possessive prefix
      ``((?:…|…)*+)``, group 1 of every match (``()`` when there is
      none), so each token absorbs the whitespace and comments before
      it and starts at ``match.end(1)``.  Possessive, so the prefix
      never gives characters back: a greedy one would retry every way
      to split the run whenever what follows failed, exponential in its
      length.  A skip pattern that can match the empty string, or one
      that ranks after a non-skip pattern, ends the run and stays an
      ordinary alternative: absorbing it would change what scans.
    * Two sentinels come last: end of text, ``\\Z(?P<_END>)``, and any
      one character, ``[\\s\\S](?P<_ANY>)``.  Some alternative matches
      at every position, so ``finditer`` never retries the positions of
      a skip run that ends the text or precedes an unmatchable
      character (quadratic), and each match starts where the previous
      one ended.

    Returns the pattern, its kinds table (``kinds[match.lastindex]`` is
    the token a match found; ``None`` for the sentinels and for groups
    inside a token's pattern) and the names of the skip tokens left as
    ordinary alternatives, whose matches the scanner drops.
    """
    patterns = token_set.patterns
    run = 0
    while (
        run < len(patterns)
        and patterns[run].skip
        and not _can_match_empty(patterns[run].pattern)
    ):
        run += 1
    tokens = [(d.name, f"(?:{d.pattern})") for d in patterns[run:]]
    tokens += [(d.name, re.escape(d.pattern)) for d in token_set.literals]
    taken = token_set.names()
    sentinels = [
        (_fresh_name("_END", taken), r"\Z"),
        (_fresh_name("_ANY", taken), r"[\s\S]"),
    ]
    prefix = ""
    if run:
        prefix = "(?:" + "|".join(d.pattern for d in patterns[:run]) + ")*+"
    alternatives = "|".join(
        f"{body}(?P<{name}>)" for name, body in tokens + sentinels
    )
    fast = re.compile(f"({prefix})(?:{alternatives})")
    kinds: list[str | None] = [None] * (fast.groups + 1)
    for name, _body in tokens:
        kinds[fast.groupindex[name]] = name
    stray = frozenset(d.name for d in patterns[run:] if d.skip)
    return fast, tuple(kinds), stray


def _can_match_empty(regex: str) -> bool:
    """Whether ``regex`` matches the empty string anywhere (its minimum
    width is zero, lookarounds and anchors included)."""
    return _regex_parser.parse(regex).getwidth()[0] == 0


def _fresh_name(base: str, taken: frozenset[str]) -> str:
    while base in taken:
        base += "_"
    return base
