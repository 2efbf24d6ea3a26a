"""One contract, three parser backends.

Every execution strategy for a compiled
:class:`~repro.parsing.program.ParseProgram` — the IR interpreter, the
generated standalone source module, and the closure-compiled threaded
code — registers here as a :class:`ParseBackend`.  The conformance and
differential suites iterate :func:`backend_names` instead of hardcoding
backends, and any new strategy joins the same safety net by calling
:func:`register_backend`.  The parse service serves the compiled
backend (degrading to the interpreter); the generated module is an
offline export — ``repro compose --emit`` writes it — checked here for
parity but never served.

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
from .closures import ClosureParser, compile_closure_program
from .codegen import generate_parser_source, load_generated_parser

INTERPRETER = "interpreter"
GENERATED = "generated"
COMPILED = "compiled"


class ParseBackend:
    """Abstract parse-execution strategy over a ParseProgram.

    Subclasses set :attr:`name` and implement :meth:`build`.  One
    instance serves every product (builders take the product as an
    argument), so registration is process-global.
    """

    #: registry key (``repro conformance --backend``)
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
            compile_closure_program(program),
            hint_provider=product.hint_provider() if hints else None,
        )


class GeneratedParser:
    """Uniform facade over a generated standalone parser module."""

    __slots__ = ("module",)

    def __init__(self, module: Any) -> None:
        self.module = module

    def parse(self, text: str, start: str | None = None) -> Any:
        return self.module.parse(text, start=start)

    def accepts(self, text: str, start: str | None = None) -> bool:
        return self.module.accepts(text, start=start)


class GeneratedBackend(ParseBackend):
    """The pretty-printed standalone module: minimal surface, portable."""

    name = GENERATED

    def build(
        self, product: Any, program: Any = None, hints: bool = True
    ) -> Any:
        if program is None:
            program = product.program()
        module = load_generated_parser(
            generate_parser_source(product.grammar, program=program),
            f"generated_{program.grammar_name}",
        )
        return GeneratedParser(module)

    def outcome(
        self, parser: Any, text: str, start: str | None = None
    ) -> tuple:
        module = parser.module
        try:
            return ("ok", parser.parse(text, start=start).to_sexpr())
        except module.ScanError as error:
            return ("scan-error", (error.line, error.column))
        except module.ParseError as error:
            return ("error", (error.line, error.column, error.expected))


_REGISTRY: dict[str, ParseBackend] = {}


def register_backend(backend: ParseBackend, replace: bool = False) -> None:
    """Add ``backend`` to the process-global registry."""
    if not backend.name:
        raise ValueError("a parse backend needs a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"parse backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> ParseBackend:
    """Look up a registered backend (KeyError lists what exists)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown parse backend {name!r} (registered: {known})"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Registered backend names, fastest serving order first."""
    return tuple(_REGISTRY)


register_backend(CompiledBackend())
register_backend(InterpreterBackend())
register_backend(GeneratedBackend())
