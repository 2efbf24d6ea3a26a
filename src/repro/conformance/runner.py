"""Drive the conformance corpus through every registered parse backend.

The runner is the differential half of the conformance subsystem: each
case's SQL runs through every backend in the
:mod:`repro.parsing.backends` registry.  Backends carrying the full
diagnostics surface (interpreter, compiled) get the case's diagnostic
assertions — code, message, hint — checked against
:meth:`~repro.parsing.parser.Parser.parse_with_diagnostics`; the
generated standalone module checks the accept/reject boundary only.  A
dialect disagreement between any two backends is itself a conformance
failure, independent of what the case expected.

With ``collect_coverage`` on, the interpreter's calls run instrumented
(``coverage=``) and the per-dialect
:class:`~repro.parsing.coverage.CoverageCollector`s are kept on the
runner, so one corpus pass yields both the pass/fail verdicts and the
coverage feeding :class:`~repro.conformance.report.CoverageReport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..parsing.backends import (
    COMPILED,
    GENERATED,
    INTERPRETER,
    backend_names,
    get_backend,
)
from ..parsing.coverage import CoverageMap
from .corpus import ConformanceCase, Corpus, load_corpus

#: JSON schema version for conformance reports.
CONFORMANCE_REPORT_VERSION = 1

#: Backend label for translation cases (they run through the transpiler
#: pipeline, not a raw parse).
TRANSPILER = "transpiler"


@dataclass(frozen=True)
class CaseResult:
    """One case on one dialect through one backend."""

    case: str
    dialect: str
    backend: str
    expect: str
    passed: bool
    failures: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "dialect": self.dialect,
            "backend": self.backend,
            "expect": self.expect,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@dataclass
class ConformanceReport:
    """Every case result, plus the aggregate verdict."""

    results: list[CaseResult] = field(default_factory=list)
    dialects: tuple[str, ...] = ()
    cases: int = 0

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    def failed(self) -> list[CaseResult]:
        return [result for result in self.results if not result.passed]

    def counts(self) -> dict[str, int]:
        failed = len(self.failed())
        return {
            "checks": len(self.results),
            "passed": len(self.results) - failed,
            "failed": failed,
        }

    def to_dict(self) -> dict:
        from .report import report_envelope

        return report_envelope(
            "repro-conformance-report",
            CONFORMANCE_REPORT_VERSION,
            {
                "dialects": list(self.dialects),
                "cases": self.cases,
                **self.counts(),
                "results": [result.as_dict() for result in self.results],
            },
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render(self, max_failures: int = 20) -> str:
        counts = self.counts()
        lines = [
            f"conformance — {self.cases} cases × "
            f"{len(self.dialects)} dialects: "
            f"{counts['passed']}/{counts['checks']} checks passed"
        ]
        failures = self.failed()
        for result in failures[:max_failures]:
            lines.append(
                f"  FAIL {result.case} [{result.dialect}/{result.backend}]"
            )
            for failure in result.failures:
                lines.append(f"       {failure}")
        if len(failures) > max_failures:
            lines.append(f"  … +{len(failures) - max_failures} more failures")
        return "\n".join(lines)


class ConformanceRunner:
    """Run a corpus against preset dialects, every registered backend.

    Args:
        corpus: The cases to run (defaults to the in-repo ``corpus/``).
        dialects: Preset dialect names to drive (defaults to every
            preset the corpus mentions, in preset order).
        backends: Which backends to check (defaults to every backend in
            the :mod:`repro.parsing.backends` registry).  Diagnostic
            assertions apply on backends with the full diagnostics
            surface (interpreter, compiled); the generated backend
            checks the accept/reject boundary.
        collect_coverage: Run the interpreter instrumented and keep the
            per-dialect collectors on :attr:`collectors`.
        cache_dir: On-disk artifact cache directory.  When set, dialects
            resolve through the runner's own registry over it (otherwise
            through the shared one), so the parse program is *loaded*
            from its ``<digest>.ir.json`` artifact when fresh instead of
            being recompiled — this is what lets repeated runs (CI's
            conformance and coverage steps) share one composition per
            dialect.  It never changes a report.  The generated module
            is always printed fresh from the program (an offline export,
            not a served artifact).
    """

    def __init__(
        self,
        corpus: Corpus | None = None,
        dialects: Sequence[str] | None = None,
        backends: Iterable[str] | None = None,
        collect_coverage: bool = False,
        cache_dir: str | None = None,
    ) -> None:
        from ..service.registry import ParserRegistry
        from ..sql import build_sql_product_line, dialect_names, sql_parser_registry

        self.corpus = corpus if corpus is not None else load_corpus()
        presets = dialect_names()
        if dialects is None:
            mentioned = set(self.corpus.dialects())
            dialects = [name for name in presets if name in mentioned]
        else:
            unknown = [name for name in dialects if name not in presets]
            if unknown:
                raise ValueError(
                    f"unknown dialects {unknown!r} "
                    f"(presets: {', '.join(presets)})"
                )
        self.dialects = tuple(dialects)
        if backends is None:
            backends = backend_names()
        else:
            backends = tuple(backends)
            known = backend_names()
            unknown = [name for name in backends if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown backends {unknown!r} "
                    f"(registered: {', '.join(known)})"
                )
        self.backends = tuple(backends)
        self.collect_coverage = collect_coverage
        self.cache_dir = cache_dir
        self._registry = (
            sql_parser_registry() if cache_dir is None
            else ParserRegistry(build_sql_product_line(), cache_dir=cache_dir)
        )
        #: dialect -> ComposedProduct, populated by :meth:`run`.
        self.products: dict[str, object] = {}
        #: dialect -> compiled ParseProgram (coverage collectors are
        #: keyed to these exact objects).
        self.programs: dict[str, object] = {}
        #: dialect -> CoverageCollector when ``collect_coverage``.
        self.collectors: dict[str, object] = {}

    def run(self) -> ConformanceReport:
        report = ConformanceReport(
            dialects=self.dialects, cases=len(self.corpus)
        )
        for dialect in self.dialects:
            self._run_dialect(dialect, report)
        return report

    # -- per-dialect machinery ---------------------------------------------

    def _run_dialect(self, dialect: str, report: ConformanceReport) -> None:
        from ..sql import dialect_selection

        # with a cache directory, an unchanged fingerprint loads the
        # parse program from disk instead of recompiling it, and the
        # compiled parser below is lowered from that program
        entry = self._registry.get(dialect_selection(dialect))
        product = entry.product.renamed(f"sql-{dialect}")
        program = entry.program()
        self.products[dialect] = product
        self.programs[dialect] = program
        parser = entry.parser() if INTERPRETER in self.backends else None
        coverage = None
        if self.collect_coverage:
            coverage = CoverageMap(program).collector()
            self.collectors[dialect] = coverage
        compiled = entry.compiled_parser() if COMPILED in self.backends else None
        generated = None
        if GENERATED in self.backends:
            generated = get_backend(GENERATED).build(product, program=program)
        for case in self.corpus.for_dialect(dialect):
            if case.is_translation:
                # translation cases assert on the transpiler pipeline
                # (source parse → capability gap → render → verify);
                # the listed dialect is the translation's *source*
                if INTERPRETER in self.backends:
                    report.results.append(
                        self._check_translation(case, dialect)
                    )
                continue
            if INTERPRETER in self.backends:
                report.results.append(
                    self._check_diagnostics(
                        case, dialect, parser, INTERPRETER, coverage
                    )
                )
            if compiled is not None:
                # the compiled backend carries the full diagnostics
                # surface, so it faces the same assertions as the
                # interpreter — not just the accept/reject boundary
                report.results.append(
                    self._check_diagnostics(case, dialect, compiled, COMPILED)
                )
            if generated is not None:
                report.results.append(
                    self._check_generated(case, dialect, generated)
                )

    @staticmethod
    def _check_diagnostics(
        case: ConformanceCase, dialect: str, parser, backend: str,
        coverage=None,
    ) -> CaseResult:
        outcome = parser.parse_with_diagnostics(case.sql, coverage=coverage)
        accepted = outcome.ok
        failures: list[str] = []
        if accepted != case.expects_accept:
            if case.expects_accept:
                first = next(
                    (d for d in outcome.diagnostics.sorted() if d.is_error),
                    None,
                )
                detail = f": {first.format()}" if first else ""
                failures.append(f"expected accept, got rejection{detail}")
            else:
                failures.append("expected rejection, but the input parsed")
        elif not case.expects_accept:
            errors = [d for d in outcome.diagnostics if d.is_error]
            codes = {d.code for d in errors}
            if case.code is not None and case.code not in codes:
                failures.append(
                    f"expected code {case.code}, got {sorted(codes)}"
                )
            if case.message is not None and not any(
                case.message in d.message for d in errors
            ):
                failures.append(
                    f"no diagnostic message contains {case.message!r}"
                )
            if case.hint is not None and not any(
                case.hint in hint for d in errors for hint in d.hints
            ):
                failures.append(f"no diagnostic hint contains {case.hint!r}")
        return CaseResult(
            case=case.name,
            dialect=dialect,
            backend=backend,
            expect=case.expect,
            passed=not failures,
            failures=tuple(failures),
        )

    def _check_translation(self, case: ConformanceCase, dialect: str) -> CaseResult:
        from ..errors import ReproError
        from ..transpile import translate_on

        failures: list[str] = []
        error: ReproError | None = None
        result = None
        try:
            result = translate_on(self._registry, case.sql, dialect, case.to)
        except ReproError as exc:
            error = exc
        if case.expect == "translates-to":
            if error is not None:
                diag = error.to_diagnostic()
                failures.append(
                    f"expected translation to {case.to!r}, got "
                    f"[{diag.code}] {diag.message}"
                )
            else:
                if case.output is not None and result.sql != case.output:
                    failures.append(
                        f"expected output {case.output!r}, got {result.sql!r}"
                    )
                if case.rewrite is not None and not any(
                    case.rewrite in note for note in result.rewrites
                ):
                    failures.append(
                        f"no rewrite note contains {case.rewrite!r} "
                        f"(notes: {list(result.rewrites)})"
                    )
        else:  # untranslatable
            if error is None:
                failures.append(
                    f"expected the translation to {case.to!r} to be "
                    f"refused, but it produced {result.sql!r}"
                )
            else:
                diag = error.to_diagnostic()
                if case.code is not None and diag.code != case.code:
                    failures.append(
                        f"expected code {case.code}, got {diag.code}"
                    )
                if case.message is not None and case.message not in diag.message:
                    failures.append(
                        f"diagnostic message does not contain "
                        f"{case.message!r}"
                    )
                if case.hint is not None and not any(
                    case.hint in hint for hint in diag.hints
                ):
                    failures.append(
                        f"no diagnostic hint contains {case.hint!r}"
                    )
        return CaseResult(
            case=case.name,
            dialect=dialect,
            backend=TRANSPILER,
            expect=case.expect,
            passed=not failures,
            failures=tuple(failures),
        )

    @staticmethod
    def _check_generated(
        case: ConformanceCase, dialect: str, module
    ) -> CaseResult:
        accepted = module.accepts(case.sql)
        failures: list[str] = []
        if accepted != case.expects_accept:
            failures.append(
                f"generated parser {'accepted' if accepted else 'rejected'} "
                f"but case expects {case.expect}"
            )
        return CaseResult(
            case=case.name,
            dialect=dialect,
            backend=GENERATED,
            expect=case.expect,
            passed=not failures,
            failures=tuple(failures),
        )


def run_conformance(
    corpus: Corpus | None = None,
    dialects: Sequence[str] | None = None,
    collect_coverage: bool = False,
) -> tuple[ConformanceReport, ConformanceRunner]:
    """One-call convenience: build a runner, run it, return both."""
    runner = ConformanceRunner(
        corpus=corpus, dialects=dialects, collect_coverage=collect_coverage
    )
    return runner.run(), runner
