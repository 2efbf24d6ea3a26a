"""The Database facade: a tailored SQL engine for one dialect.

This is the paper's end product — "only the needed functionality ... is
present in the SQL engine".  A :class:`Database` owns a parser composed
from a feature selection (or preset dialect), the AST builder, a catalog,
and an executor, plus simple snapshot-based transactions::

    from repro.engine import Database

    db = Database("core")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20))")
    db.execute("INSERT INTO t VALUES (1, 'ada')")
    print(db.query("SELECT name FROM t WHERE id = 1").rows)
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ExecutionError, ParseError
from ..sql import ast, build_ast, build_dialect, configure_sql
from .catalog import Catalog
from .executor import Executor, Result


class Database:
    """An in-memory database whose SQL surface is a composed dialect.

    Args:
        dialect: Preset dialect name ("scql", "tinysql", "core",
            "analytics", "full") — ignored when ``features`` is given.
        features: Explicit feature selection to compose instead of a
            preset.
    """

    def __init__(
        self,
        dialect: str = "core",
        features: Iterable[str] | None = None,
    ) -> None:
        if features is not None:
            self.product = configure_sql(features)
            self.dialect = "custom"
        else:
            self.product = build_dialect(dialect)
            self.dialect = dialect
        self.parser = self.product.parser()
        self.catalog = Catalog()
        self.executor = Executor(self.catalog)
        self._committed = self.catalog.snapshot()
        self._savepoints: dict[str, Catalog] = {}

    # -- statement execution ----------------------------------------------------

    def execute(self, sql: str):
        """Parse and execute a script; returns the last statement's result.

        Queries return a :class:`Result`, DML returns the affected row
        count, DDL and transaction statements return ``None``.

        Raises:
            ParseError: when the dialect does not accept the text.
            EngineError: for catalog/type/constraint failures.
        """
        script = build_ast(self.parser.parse(sql))
        outcome = None
        for statement in script:
            outcome = self._execute_statement(statement)
        return outcome

    def query(self, sql: str) -> Result:
        """Execute a single query and return its result table."""
        outcome = self.execute(sql)
        if not isinstance(outcome, Result):
            raise ExecutionError("statement did not produce a result set")
        return outcome

    def accepts(self, sql: str) -> bool:
        """Does this dialect's grammar accept the text? (No execution.)"""
        return self.parser.accepts(sql)

    def diagnose(self, sql: str, max_errors: int | None = 25):
        """Resilient parse-only check: partial tree plus every diagnostic.

        Never raises on malformed input; syntax errors carry feature-aware
        hints ("enable feature 'Window'") when the offending construct
        belongs to a feature outside this dialect.
        """
        return self.parser.parse_with_diagnostics(sql, max_errors=max_errors)

    # -- transactions ----------------------------------------------------------------

    def _execute_statement(self, statement: ast.Statement):
        if isinstance(statement, ast.Commit):
            self.commit()
            return None
        if isinstance(statement, ast.Rollback):
            self.rollback(statement.savepoint)
            return None
        if isinstance(statement, ast.Savepoint):
            self._savepoints[statement.name.lower()] = self.catalog.snapshot()
            return None
        if isinstance(statement, ast.ReleaseSavepoint):
            self._savepoints.pop(statement.name.lower(), None)
            return None
        return self.executor.execute(statement)

    def commit(self) -> None:
        """Make the current state the rollback target."""
        self._committed = self.catalog.snapshot()
        self._savepoints.clear()

    def rollback(self, savepoint: str | None = None) -> None:
        """Restore the last committed state (or a savepoint)."""
        if savepoint is not None:
            try:
                snapshot = self._savepoints[savepoint.lower()]
            except KeyError:
                raise ExecutionError(f"no such savepoint: {savepoint!r}") from None
            self.catalog.restore(snapshot.snapshot())
            return
        self.catalog.restore(self._committed.snapshot())
        self._savepoints.clear()

    # -- introspection ----------------------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(t.name for t in self.catalog.tables())

    def __repr__(self) -> str:
        return f"<Database dialect={self.dialect!r}, {len(self.catalog.tables())} tables>"
