"""repro — a reproduction of "Generating Highly Customizable SQL Parsers".

Sunkle, Kuhlemann, Siegmund, Rosenmüller, Saake (EDBT 2008 SETMDM
workshop): SQL:2003 decomposed into feature diagrams with per-feature
sub-grammars, composed on demand into tailor-made SQL parsers.

Quick start::

    from repro import configure_sql, build_dialect, Database

    # compose a parser from individual features
    product = configure_sql(["QuerySpecification", "SelectSublist", "Where",
                             "ComparisonPredicate", "Literals"])
    tree = product.parser().parse("SELECT a FROM t WHERE b = 1")

    # or use a preset dialect, with an engine behind it
    db = Database("tinysql")

Subpackages:

* :mod:`repro.lexer` — composable token sets and scanning,
* :mod:`repro.grammar` — EBNF grammar algebra and DSL,
* :mod:`repro.parsing` — LL(k) analysis, parsing, parser codegen,
* :mod:`repro.features` — feature models and configurations,
* :mod:`repro.core` — the composition engine and product lines,
* :mod:`repro.sql` — the SQL:2003 decomposition and dialects,
* :mod:`repro.engine` — a tailored in-memory SQL engine,
* :mod:`repro.workloads` — benchmark query generators.
"""

from .core import (
    BuiltParser,
    ComposedProduct,
    FeatureUnit,
    GrammarComposer,
    GrammarProductLine,
    ParserBuilder,
    unit,
)
from .engine import Database, Result
from .errors import ReproError
from .features import Configuration, FeatureModel, read_feature_model
from .grammar import Grammar, read_grammar, write_grammar
from .parsing import Parser, generate_parser_source, load_generated_parser
from .service import (
    Fingerprint,
    ParseService,
    ParseServiceResult,
    ParserRegistry,
    product_fingerprint,
)
from .sql import (
    build_dialect,
    build_sql_product_line,
    configure_sql,
    dialect_features,
    dialect_names,
    sql_parser_registry,
    sql_registry,
)
from .workloads import generate_workload

__version__ = "1.0.0"

__all__ = [
    "BuiltParser",
    "ComposedProduct",
    "Configuration",
    "Database",
    "FeatureModel",
    "FeatureUnit",
    "Fingerprint",
    "Grammar",
    "GrammarComposer",
    "GrammarProductLine",
    "ParseService",
    "ParseServiceResult",
    "Parser",
    "ParserBuilder",
    "ParserRegistry",
    "ReproError",
    "Result",
    "build_dialect",
    "build_sql_product_line",
    "configure_sql",
    "dialect_features",
    "dialect_names",
    "generate_parser_source",
    "generate_workload",
    "load_generated_parser",
    "product_fingerprint",
    "read_feature_model",
    "read_grammar",
    "sql_parser_registry",
    "sql_registry",
    "unit",
    "write_grammar",
]
