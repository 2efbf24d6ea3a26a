"""LL(k) parser-generation substrate.

Public API::

    from repro.parsing import (
        GrammarAnalysis, LLTable, LLConflict,
        ParseProgram, compile_program,
        Parser, Node,
        CoverageMap, CoverageCollector,
        generate_parser_source, load_generated_parser,
        ParseBackend, get_backend, backend_names,
        ClosureParser, ClosureProgram,
    )

Sentences of a product come from :mod:`repro.workloads.guided`.
"""

from .backends import (
    COMPILED,
    GENERATED,
    INTERPRETER,
    CompiledBackend,
    GeneratedBackend,
    InterpreterBackend,
    ParseBackend,
    backend_names,
    get_backend,
)
from .closures import ClosureParser, ClosureProgram
from .codegen import (
    generate_parser_source,
    load_generated_parser,
    source_fingerprint,
)
from .coverage import CoverageCollector, CoverageMap
from .first_follow import GrammarAnalysis
from .ll1 import LLConflict, LLTable
from .parser import Parser, ParseOutcome
from .program import (
    IR_VERSION,
    ParseProgram,
    compile_program,
    program_fingerprint,
)
from .tree import Node

__all__ = [
    "COMPILED",
    "ClosureParser",
    "ClosureProgram",
    "CompiledBackend",
    "CoverageCollector",
    "CoverageMap",
    "GENERATED",
    "GeneratedBackend",
    "GrammarAnalysis",
    "INTERPRETER",
    "IR_VERSION",
    "InterpreterBackend",
    "LLConflict",
    "LLTable",
    "Node",
    "ParseBackend",
    "ParseOutcome",
    "ParseProgram",
    "Parser",
    "backend_names",
    "compile_program",
    "generate_parser_source",
    "get_backend",
    "load_generated_parser",
    "program_fingerprint",
    "source_fingerprint",
]
