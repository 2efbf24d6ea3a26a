"""The SQL:2003 product line: decomposition, dialects, ASTs.

Public API::

    from repro.sql import (
        sql_registry, build_sql_product_line, configure_sql,
        dialect_names, dialect_features, dialect_selection, build_dialect,
        build_ast, ast,
    )
"""

from . import ast
from .ast_builder import AstBuilder, build_ast
from .dialects import (
    ALL_COMPARISONS,
    build_dialect,
    dialect_features,
    dialect_names,
    dialect_selection,
)
from .product_line import (
    build_sql_product_line,
    configure_sql,
    sql_parser_registry,
    sql_registry,
)
from .registry import FeatureDiagram, SqlRegistry

__all__ = [
    "ALL_COMPARISONS",
    "AstBuilder",
    "FeatureDiagram",
    "SqlRegistry",
    "ast",
    "build_ast",
    "build_dialect",
    "build_sql_product_line",
    "configure_sql",
    "dialect_features",
    "dialect_names",
    "dialect_selection",
    "sql_parser_registry",
    "sql_registry",
]
