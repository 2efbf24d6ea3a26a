"""Command-line configurator for the SQL parser product line.

The paper's "current work" is "an implementation model and a user
interface presenting various SQL statements and their features.  When a
user selects different features, the required parser is created by
composing these features."  This CLI is that interface, terminal-flavoured::

    python -m repro.cli diagrams                 # list the feature diagrams
    python -m repro.cli show QuerySpecification  # render a diagram (Figure 1)
    python -m repro.cli dialects                 # compare preset dialects
    python -m repro.cli features tinysql         # features behind a preset
    python -m repro.cli compose Where GroupBy -q "SELECT a FROM t WHERE b = 1"
    python -m repro.cli compose --dialect core --emit core_parser.py
    python -m repro.cli shell core               # interactive SQL shell
    python -m repro.cli sample tinysql -n 5      # coverage-guided sentences
    python -m repro.cli ir --dialect tinysql     # compiled parse-program IR
    python -m repro.cli stats --warm core        # parse-service cache metrics
    python -m repro.cli conformance --json       # corpus, every backend
    python -m repro.cli coverage --fail-under 90 # grammar-coverage gate
    python -m repro.cli lint --baseline lint-baseline.txt  # static analysis
    python -m repro.cli translate --from full --to core "SELECT a FROM t"

Products are resolved through the process-wide fingerprint-keyed
registry (:mod:`repro.service`): repeated commands against the same
selection reuse the composed parser, and ``--cache DIR`` persists each
product's one artifact (the IR with its token definitions) across
processes; the compiled backend is lowered from the IR in memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .diagnostics import render_diagnostic, render_diagnostics
from .engine import Database
from .errors import InvalidConfigurationError, ReproError
from .features import render_feature
from .parsing import backend_names, generate_parser_source
from .service import ParseService
from .sql import (
    build_dialect,
    build_sql_product_line,
    dialect_features,
    dialect_names,
    sql_registry,
)
from .workloads import CoverageGuidedGenerator

_WORKED_EXAMPLE_BASE = ["QuerySpecification", "SelectSublist"]


def _cmd_diagrams(args: argparse.Namespace) -> int:
    print(sql_registry().report())
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    model = build_sql_product_line().model
    if not model.has_feature(args.feature):
        print(f"no such feature: {args.feature!r}", file=sys.stderr)
        return 1
    print(render_feature(model.feature(args.feature)))
    return 0


def _cmd_dialects(args: argparse.Namespace) -> int:
    header = (
        f"{'dialect':10} {'features':>8} {'rules':>6} {'tokens':>7} "
        f"{'keywords':>9} {'LL entries':>10}"
    )
    print(header)
    print("-" * len(header))
    for name in dialect_names():
        product = build_dialect(name)
        size = product.size()
        table = product.parser().table.metrics()
        print(
            f"{name:10} {len(product.configuration):>8} {size['rules']:>6} "
            f"{size['tokens']:>7} {len(product.grammar.tokens.keywords):>9} "
            f"{table['entries']:>10}"
        )
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    for feature in dialect_features(args.dialect):
        print(feature)
    return 0


def _service(args: argparse.Namespace) -> ParseService:
    """The command's parse service over the shared SQL registry.

    Commands use it as a context manager so both executor kinds are
    drained on the way out (the ISSUE-10 close path).
    """
    kwargs: dict = {"cache_dir": getattr(args, "cache", None)}
    if getattr(args, "executor", None):
        kwargs["executor"] = args.executor
    if getattr(args, "workers", None):
        kwargs["max_workers"] = args.workers
    return ParseService(**kwargs)


def _selection(args: argparse.Namespace) -> tuple[list[str], str | None]:
    """The feature selection a command names, plus a display name."""
    if getattr(args, "dialect", None):
        return dialect_features(args.dialect), f"sql-{args.dialect.lower()}"
    features = list(getattr(args, "features", []) or [])
    if not features:
        raise ReproError("select features or pass --dialect")
    # convenience: bare clause features imply the worked-example base
    selection = set(features)
    if not selection & {"QuerySpecification", "Insert", "CreateTable"}:
        selection.update(_WORKED_EXAMPLE_BASE)
    return sorted(selection), None


def _resolve_product(args: argparse.Namespace, service: ParseService | None = None):
    """Resolve a command's product through the fingerprint-keyed registry.

    Repeated invocations against the same selection (and every other
    path that composes it — dialing up a shell, ``configure_sql`` …)
    share one composed product per fingerprint.
    """
    features, name = _selection(args)
    if service is None:
        with _service(args) as service:
            product = service.registry.get(features).product
    else:
        product = service.registry.get(features).product
    if name is not None and product.name != name:
        product = dataclasses.replace(product, name=name)
    return product


def _cmd_compose(args: argparse.Namespace) -> int:
    with _service(args) as service:
        features, name = _selection(args)
        entry = service.registry.get(features)
        product = entry.product
        if name is not None and product.name != name:
            product = dataclasses.replace(product, name=name)
        print(f"composed {product.name}: {product.size()}")
        print(f"fingerprint: {entry.fingerprint.digest}")
        print(f"sequence: {' -> '.join(product.sequence)}")
        print(f"trace: {product.trace.summary()}")
        if args.emit:
            # the offline export: print the standalone module from the
            # entry's (possibly disk-cached) parse program
            source = generate_parser_source(
                entry.product.grammar,
                fingerprint=entry.fingerprint.digest,
                program=entry.program(),
            )
            with open(args.emit, "w") as handle:
                handle.write(source)
            print(f"wrote generated parser: {args.emit} "
                  f"({len(source.splitlines())} lines)")
        status = 0
        if args.query:
            result = service.parse(
                args.query, features, max_errors=args.max_errors
            )
            if result.ok:
                print("accepted:")
                print(result.tree.pretty())
            else:
                print("rejected:")
                print(result.render(filename="<query>"))
                status = 1
        if args.cache:
            print(service.render_stats())
        return status


def _cmd_ir(args: argparse.Namespace) -> int:
    """Dump a product's compiled parse program as a readable listing."""
    with _service(args) as service:
        features, name = _selection(args)
        entry = service.registry.get(features)
        program = entry.program()
        if args.artifacts:
            print(f"fingerprint: {entry.fingerprint.digest}")
            if service.registry.cache_dir is None:
                print("artifact cache: disabled (pass --cache DIR)")
            item = entry.artifact()
            if item["path"] is None:
                print("  ir       (no cache directory)")
                return 0
            state = item["state"]
            if item["quarantined"]:
                state += ", quarantined copy present"
            size = (
                " " * 10 if item["state"] == "missing"
                else f"{item['size']:>8} B"
            )
            print(f"  ir       {size}  {state}  {item['path']}")
            return 0
        if args.rule:
            rule_id = program.rule_id(args.rule)
            if rule_id is None:
                print(f"no such rule: {args.rule!r}", file=sys.stderr)
                return 1
            # print the program header plus just the requested rule's block
            lines = program.listing().splitlines()
            keep: list[str] = []
            collecting = False
            for line in lines:
                if line.startswith("rule #"):
                    collecting = line.startswith(f"rule #{rule_id} ")
                if collecting and line.strip():
                    keep.append(line)
            print("\n".join(lines[:5]))
            print()
            print("\n".join(keep))
        else:
            print(program.listing())
        return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    product = _resolve_product(args)
    generator = CoverageGuidedGenerator(product, seed=args.seed)
    for sentence in generator.generate(args.count):
        print(sentence)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _service(args) as service:
        for dialect in args.warm or []:
            entry, warm = service.registry.acquire(dialect_features(dialect))
            state = "warm" if warm else "cold"
            print(f"warmed dialect {dialect!r} ({state}): {entry.product.name}")
        print(service.render_stats())
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Service health: breaker states, degradation counters, queue, timeouts."""
    import json as _json

    with _service(args) as service:
        # keep stdout pure JSON under --json: warm preamble goes to stderr
        warm_out = sys.stderr if args.json else sys.stdout
        for dialect in args.warm or []:
            entry, warm = service.registry.acquire(dialect_features(dialect))
            state = "warm" if warm else "cold"
            print(
                f"warmed dialect {dialect!r} ({state}): {entry.product.name}",
                file=warm_out,
            )
        health = service.health()
        if args.json:
            print(_json.dumps(health, indent=2, sort_keys=True))
        else:
            print(service.render_health())
    return 0 if health["status"] == "ok" else 1


def _cmd_conformance(args: argparse.Namespace) -> int:
    """Run the conformance corpus: every case, every registered backend."""
    from .conformance import ConformanceRunner, load_corpus

    corpus = load_corpus(args.corpus)
    runner = ConformanceRunner(
        corpus=corpus,
        dialects=args.dialect or None,
        backends=tuple(args.backend) if args.backend else None,
        cache_dir=getattr(args, "cache", None),
    )
    report = runner.run()
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_coverage(args: argparse.Namespace) -> int:
    """Measure grammar coverage per preset dialect, with an optional gate.

    The conformance corpus runs first (instrumented interpreter); unless
    ``--no-generate``, the coverage-guided workload generator then keeps
    producing inputs until coverage stops improving, so the report shows
    what the *reachable* grammar looks like, not just what the corpus
    happens to touch.
    """
    from .conformance import (
        ConformanceRunner,
        CoverageReport,
        CoverageSuiteReport,
        load_corpus,
    )
    from .conformance.runner import INTERPRETER

    corpus = load_corpus(args.corpus)
    runner = ConformanceRunner(
        corpus=corpus,
        dialects=args.dialect or None,
        backends=(INTERPRETER,),
        collect_coverage=True,
        cache_dir=getattr(args, "cache", None),
    )
    runner.run()
    reports = []
    for dialect in runner.dialects:
        product = runner.products[dialect]
        collector = runner.collectors[dialect]
        inputs = len(corpus.for_dialect(dialect))
        if not args.no_generate:
            generator = CoverageGuidedGenerator(
                product, collector=collector, seed=args.seed
            )
            inputs += len(generator.generate_until_dry())
        reports.append(CoverageReport.of(product, collector, inputs=inputs))
    suite = CoverageSuiteReport(reports)
    if args.json:
        print(suite.to_json())
    else:
        print(suite.render())
    if args.fail_under is not None and not suite.gate(args.fail_under):
        print(
            f"coverage gate failed: rule coverage "
            f"{suite.rule_coverage_pct():.2f}% < {args.fail_under:g}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of preset dialects (or an explicit selection).

    With no selection, every preset dialect is analyzed plus the pairwise
    feature-interaction pass over the whole product line — the CI
    ``lint-grammar`` entry point.
    """
    from .lint import Baseline, lint_products, lint_sql_dialects, render_baseline
    from .sql.product_line import build_sql_product_line

    baseline = Baseline.load(args.baseline) if args.baseline else None
    if args.features:
        product = _resolve_product(args)
        report = lint_products(
            [product],
            line=build_sql_product_line(),
            interactions=not args.no_interactions,
            baseline=baseline,
        )
    else:
        report = lint_sql_dialects(
            args.dialect or None,
            interactions=not args.no_interactions,
            baseline=baseline,
        )
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            handle.write(render_baseline(report.all_findings()))
        print(f"wrote baseline: {args.write_baseline} "
              f"({len(report.all_findings())} entries)")
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    if baseline is not None:
        for entry in baseline.unused_entries():
            print(
                f"note: baseline entry matched nothing and can be removed: "
                f"{entry.pattern!r} (line {entry.line})",
                file=sys.stderr,
            )
    if not report.gate(args.fail_on):
        counts = report.counts()
        print(
            f"lint gate failed (--fail-on {args.fail_on}): "
            f"{counts['error']} error(s), {counts['warning']} warning(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    """Translate one query between preset dialects.

    Success prints the translated SQL (rewrite notes on stderr); a
    feature gap prints the ``E0401`` diagnostic with its per-unit
    "enable feature" hints and exits 1 — malformed SQL is never emitted.
    """
    import json as _json

    with _service(args) as service:
        sql = args.sql
        if sql == "-":
            sql = sys.stdin.read()
        result = service.translate(sql, args.source, args.target)
    if not result.ok:
        print(result.render(filename="<translate>"), file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(result.result.report(), indent=2, sort_keys=True))
    else:
        print(result.sql)
        for note in result.rewrites:
            print(f"note: {note}", file=sys.stderr)
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    with _service(args) as service:
        return _shell_loop(args, service)


def _shell_loop(args: argparse.Namespace, service: ParseService) -> int:
    features = dialect_features(args.dialect)
    db = Database(args.dialect)
    print(f"repro SQL shell — dialect {args.dialect!r} "
          f"({db.product.size()['rules']} grammar rules). "
          "Type SQL, or .quit to exit.")
    while True:
        try:
            line = input("sql> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        if line in (".quit", ".exit"):
            return 0
        if line == ".tables":
            print(", ".join(db.table_names()) or "(no tables)")
            continue
        if line == ".stats":
            print(service.render_stats())
            continue
        if line.startswith(".translate"):
            rest = line[len(".translate"):].strip()
            target, _, text = rest.partition(" ")
            if target not in dialect_names() or not text.strip():
                print("usage: .translate <dialect> <sql>  "
                      f"(dialects: {', '.join(dialect_names())})")
                continue
            result = service.translate(text.strip(), args.dialect, target)
            if result.ok:
                print(result.sql)
                for note in result.rewrites:
                    print(f"note: {note}")
            else:
                print(result.render(filename="<shell>"))
            continue
        # resilient pre-flight through the parse service: report *every*
        # syntax problem with carets and feature hints instead of dying on
        # the first one; repeated commands reuse the cached parser
        report = service.parse(line, features, max_errors=args.max_errors)
        if not report.ok:
            print(report.render(filename="<shell>"))
            continue
        try:
            outcome = db.execute(line)
        except ReproError as error:
            print(render_diagnostic(error.to_diagnostic(), source=line,
                                    filename="<shell>"))
            continue
        except Exception as error:  # a bug must not kill the session
            print(f"internal error: {type(error).__name__}: {error}")
            continue
        if outcome is None:
            print("ok")
        elif isinstance(outcome, int):
            print(f"{outcome} row(s) affected")
        else:
            print(outcome.to_text())


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Configure and explore tailor-made SQL parsers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("diagrams", help="list the feature diagrams").set_defaults(
        fn=_cmd_diagrams
    )

    show = sub.add_parser("show", help="render a feature diagram")
    show.add_argument("feature")
    show.set_defaults(fn=_cmd_show)

    sub.add_parser("dialects", help="compare preset dialects").set_defaults(
        fn=_cmd_dialects
    )

    features = sub.add_parser("features", help="features behind a preset")
    features.add_argument("dialect", choices=dialect_names())
    features.set_defaults(fn=_cmd_features)

    compose = sub.add_parser("compose", help="compose features into a parser")
    compose.add_argument("features", nargs="*", help="feature names to select")
    compose.add_argument("--dialect", choices=dialect_names())
    compose.add_argument("--emit", metavar="FILE",
                         help="write generated parser source")
    compose.add_argument("-q", "--query", help="try parsing this query")
    compose.add_argument("--max-errors", type=int, default=25, metavar="N",
                         help="stop reporting after N syntax errors")
    compose.add_argument("--cache", metavar="DIR",
                         help="persist compiled parser artifacts to DIR, "
                              "keyed by fingerprint, and print cache stats")
    compose.set_defaults(fn=_cmd_compose)

    ir = sub.add_parser(
        "ir", help="dump a product's compiled parse-program IR"
    )
    ir.add_argument("features", nargs="*", help="feature names to select")
    ir.add_argument("--dialect", choices=dialect_names())
    ir.add_argument("--rule", metavar="NAME",
                    help="show only this rule's instructions")
    ir.add_argument("--cache", metavar="DIR",
                    help="on-disk artifact cache directory (stores the "
                         "program as <digest>.ir.json)")
    ir.add_argument("--artifacts", action="store_true",
                    help="show the selection's artifact (size and "
                         "fresh/stale/corrupt/missing state) instead "
                         "of the IR listing")
    ir.set_defaults(fn=_cmd_ir)

    sample = sub.add_parser("sample", help="coverage-guided sentences")
    sample.add_argument("dialect", choices=dialect_names())
    sample.add_argument("-n", "--count", type=int, default=10)
    sample.add_argument("--seed", type=int, default=0)
    sample.set_defaults(fn=_cmd_sample)

    shell = sub.add_parser("shell", help="interactive SQL shell")
    shell.add_argument("dialect", choices=dialect_names(), nargs="?",
                       default="core")
    shell.add_argument("--max-errors", type=int, default=25, metavar="N",
                       help="stop reporting after N syntax errors")
    shell.add_argument("--cache", metavar="DIR",
                       help="on-disk artifact cache for compiled parser "
                            "artifacts (see `.stats` inside the shell)")
    shell.set_defaults(fn=_cmd_shell)

    lint = sub.add_parser(
        "lint",
        help="static analysis of grammars and the product line",
    )
    lint.add_argument("features", nargs="*",
                      help="lint one explicit feature selection instead of "
                           "the preset dialects")
    lint.add_argument("--dialect", action="append", choices=dialect_names(),
                      metavar="DIALECT",
                      help="restrict to a preset dialect (repeatable; "
                           "default: all presets)")
    lint.add_argument("--json", action="store_true",
                      help="emit the versioned JSON report")
    lint.add_argument("--fail-on", choices=("error", "warning"),
                      default="error",
                      help="exit 1 when findings at or above this grade "
                           "remain (default: error)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppression file of reviewed finding keys")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="seed FILE from the current (unsuppressed) "
                           "findings and continue")
    lint.add_argument("--no-interactions", action="store_true",
                      help="skip the pairwise feature-interaction pass")
    lint.set_defaults(fn=_cmd_lint)

    conformance = sub.add_parser(
        "conformance",
        help="run the conformance corpus (every registered parse backend)",
    )
    conformance.add_argument("--dialect", action="append",
                             choices=dialect_names(), metavar="DIALECT",
                             help="restrict to a preset dialect (repeatable; "
                                  "default: every dialect the corpus names)")
    conformance.add_argument("--backend", action="append",
                             choices=backend_names(), metavar="BACKEND",
                             help="restrict to one parse backend (repeatable; "
                                  "default: every registered backend)")
    conformance.add_argument("--corpus", metavar="DIR",
                             help="corpus directory (default: the in-repo "
                                  "corpus/)")
    conformance.add_argument("--json", action="store_true",
                             help="emit the versioned JSON report")
    conformance.add_argument("--cache", metavar="DIR",
                             help="on-disk artifact cache directory; reuses "
                                  "ir artifacts across runs (the CI "
                                  "per-backend matrix stops recomposing)")
    conformance.set_defaults(fn=_cmd_conformance)

    coverage = sub.add_parser(
        "coverage",
        help="grammar coverage per dialect, with an optional CI gate",
    )
    coverage.add_argument("--dialect", action="append",
                          choices=dialect_names(), metavar="DIALECT",
                          help="restrict to a preset dialect (repeatable)")
    coverage.add_argument("--corpus", metavar="DIR",
                          help="corpus directory (default: the in-repo "
                               "corpus/)")
    coverage.add_argument("--json", action="store_true",
                          help="emit the versioned JSON report")
    coverage.add_argument("--fail-under", type=float, metavar="PCT",
                          help="exit 1 when aggregate rule coverage is below "
                               "PCT")
    coverage.add_argument("--no-generate", action="store_true",
                          help="measure the corpus only; skip coverage-guided "
                               "generation")
    coverage.add_argument("--seed", type=int, default=0,
                          help="seed for the coverage-guided generator")
    coverage.add_argument("--cache", metavar="DIR",
                          help="on-disk artifact cache directory shared with "
                               "`repro conformance`")
    coverage.set_defaults(fn=_cmd_coverage)

    translate = sub.add_parser(
        "translate",
        help="translate a query between preset dialects",
    )
    translate.add_argument("sql", help="SQL text ('-' reads stdin)")
    translate.add_argument("--from", dest="source", required=True,
                           choices=dialect_names(), metavar="DIALECT",
                           help="dialect the input is written in")
    translate.add_argument("--to", dest="target", required=True,
                           choices=dialect_names(), metavar="DIALECT",
                           help="dialect to render the output for")
    translate.add_argument("--json", action="store_true",
                           help="print the versioned transpile report")
    translate.add_argument("--cache", metavar="DIR",
                           help="persist compiled parser artifacts under DIR")
    translate.set_defaults(fn=_cmd_translate)

    stats = sub.add_parser(
        "stats", help="parse-service cache and latency metrics"
    )
    stats.add_argument("--warm", action="append", choices=dialect_names(),
                       metavar="DIALECT",
                       help="compose a preset dialect first (repeatable; "
                            "repeat the same dialect to see a cache hit)")
    stats.add_argument("--cache", metavar="DIR",
                       help="on-disk artifact cache directory")
    stats.add_argument("--executor", choices=("thread", "process"),
                       help="batch executor kind the service reports on")
    stats.add_argument("--workers", type=int, metavar="N",
                       help="worker-pool width")
    stats.set_defaults(fn=_cmd_stats)

    health = sub.add_parser(
        "health",
        help="parse-service health: breakers, degradation, queue "
             "(exit 0 iff status is ok)",
    )
    health.add_argument("--json", action="store_true",
                        help="emit the machine-readable health payload")
    health.add_argument("--warm", action="append", choices=dialect_names(),
                        metavar="DIALECT",
                        help="compose a preset dialect first (repeatable)")
    health.add_argument("--cache", metavar="DIR",
                        help="on-disk artifact cache directory")
    health.add_argument("--executor", choices=("thread", "process"),
                        help="batch executor kind the service reports on")
    health.add_argument("--workers", type=int, metavar="N",
                        help="worker-pool width")
    health.set_defaults(fn=_cmd_health)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvalidConfigurationError as error:
        # one diagnostic per violation, each with a suggested fix
        print(render_diagnostics(error.diagnostics(), filename="<config>"),
              file=sys.stderr)
        return 1
    except ReproError as error:
        print(render_diagnostic(error.to_diagnostic()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
