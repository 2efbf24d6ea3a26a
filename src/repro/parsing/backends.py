"""One contract, three parser backends.

Every execution strategy for a compiled
:class:`~repro.parsing.program.ParseProgram` — the IR interpreter, the
closure-compiled threaded code, and the generated standalone module
(the same lowering on the same runtime, written out as source) — is a
:class:`ParseBackend` listed here.  The conformance and differential
suites iterate :func:`backend_names` instead of hardcoding backends.
The parse service serves the compiled backend (degrading to the
interpreter); the generated module is an offline export — ``repro
compose --emit`` writes it — checked here for parity but never served.

The contract has two halves:

* ``build(product, program=None, hints=True)`` returns a ready parser
  for one composed product.
* ``outcome(parser, text)`` normalizes a parse attempt to a comparable
  verdict tuple — ``("ok", sexpr)``, ``("error", (line, column,
  expected))`` or ``("scan-error", (line, column))`` — papering over
  the generated module's standalone exception types so differential
  comparison is one ``==``.
"""

from __future__ import annotations

from typing import Any

from ..errors import ParseError, ScanError
from .closures import ClosureParser, ClosureProgram
from .codegen import generate_parser_source, load_generated_parser

INTERPRETER = "interpreter"
GENERATED = "generated"
COMPILED = "compiled"


class ParseBackend:
    """Abstract parse-execution strategy over a ParseProgram.

    Subclasses set :attr:`name` and implement :meth:`build`.  One
    instance serves every product (builders take the product as an
    argument), so the three instances are process-global.
    """

    #: lookup key (``repro conformance --backend``)
    name: str = ""

    def build(
        self, product: Any, program: Any = None, hints: bool = True
    ) -> Any:
        """A ready parser for ``product`` (``program`` shares compiled IR)."""
        raise NotImplementedError

    def outcome(
        self, parser: Any, text: str, start: str | None = None
    ) -> tuple:
        """Normalized verdict for differential comparison."""
        try:
            return ("ok", parser.parse(text, start=start).to_sexpr())
        except ScanError as error:
            return ("scan-error", (error.line, error.column))
        except ParseError as error:
            return ("error", (error.line, error.column, error.expected))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class InterpreterBackend(ParseBackend):
    """The IR interpreter: full surface, the semantic reference."""

    name = INTERPRETER

    def build(
        self, product: Any, program: Any = None, hints: bool = True
    ) -> Any:
        return product.parser(hints=hints, program=program)


class CompiledBackend(ParseBackend):
    """Closure-compiled threaded code: full surface, the fast path."""

    name = COMPILED

    def build(
        self, product: Any, program: Any = None, hints: bool = True
    ) -> Any:
        if program is None:
            program = product.program()
        return ClosureParser(
            product.grammar,
            ClosureProgram(program),
            hint_provider=product.hint_provider() if hints else None,
        )


class GeneratedBackend(ParseBackend):
    """The ``compose --emit`` export: the served lowering and runtime, standalone."""

    name = GENERATED

    def build(
        self, product: Any, program: Any = None, hints: bool = True
    ) -> Any:
        if program is None:
            program = product.program()
        return load_generated_parser(
            generate_parser_source(product.grammar, program=program),
            f"generated_{program.grammar_name}",
        )

    def outcome(
        self, parser: Any, text: str, start: str | None = None
    ) -> tuple:
        # the module's own exception types, not repro.errors'
        try:
            return ("ok", parser.parse(text, start=start).to_sexpr())
        except parser.ScanError as error:
            return ("scan-error", (error.line, error.column))
        except parser.ParseError as error:
            return ("error", (error.line, error.column, error.expected))


_BACKENDS: dict[str, ParseBackend] = {
    backend.name: backend
    for backend in (CompiledBackend(), InterpreterBackend(), GeneratedBackend())
}


def get_backend(name: str) -> ParseBackend:
    """Look up a backend by name (KeyError lists what exists)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise KeyError(
            f"unknown parse backend {name!r} (registered: {known})"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Backend names, fastest serving order first."""
    return tuple(_BACKENDS)
