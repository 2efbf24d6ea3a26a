"""Grammar product lines: feature model + units ⇒ composed products.

"The complete SQL:2003 BNF grammar represents a product line, in which
various sub-grammars represent features.  Composing these features creates
products of this product line."

:class:`GrammarProductLine` ties a feature model to the units implementing
its features.  :meth:`GrammarProductLine.configure` turns a feature
selection into a :class:`ComposedProduct` — a validated configuration, the
composition sequence, the composed grammar/token set, and a trace of what
the composer did.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping

from ..errors import CompositionError
from ..features.configuration import (
    Configuration,
    check_configuration,
    expand_selection,
)
from ..features.model import FeatureModel
from ..grammar.grammar import Grammar
from .composer import CompositionTrace, GrammarComposer
from .sequence import order_units
from .unit import FeatureUnit


@dataclass(frozen=True)
class ComposedProduct:
    """One product of the line: a tailor-made grammar for a feature selection."""

    name: str
    configuration: Configuration
    sequence: tuple[str, ...]
    grammar: Grammar
    trace: CompositionTrace
    #: The product line this product was configured from; lets parsers
    #: explain rejections in terms of *unselected* features.  ``None`` for
    #: hand-built products.
    line: "GrammarProductLine | None" = None
    #: Canonical fingerprint of (line, expanded selection, counts) — the
    #: cache key the :mod:`repro.service` layer stores this product under.
    #: ``None`` for products composed outside a product line.
    fingerprint: "object | None" = None

    def parser(self, strict: bool = False, hints: bool = True, program=None):
        """Build an interpreting parser for this product.

        With ``hints`` on (and a known product line), syntax errors are
        enriched with feature-aware suggestions: when the offending token
        is a keyword of an unselected feature's sub-grammar, the
        diagnostic says "enable feature 'X'".

        The parser runs :meth:`program`, and shares :attr:`analysis` for
        its LL(1) table, unless ``program`` hands it another compiled
        program of this grammar (one loaded from an artifact, say).
        """
        from ..parsing.parser import Parser

        own = program is None
        return Parser(self.grammar, strict=strict,
                      hint_provider=self.hint_provider() if hints else None,
                      program=self.program() if own else program,
                      analysis=self.analysis if own else None)

    @cached_property
    def analysis(self):
        """The grammar's FIRST/FOLLOW analysis, computed on first use.

        Kept on the product (outside equality and ``repr``; a
        :func:`dataclasses.replace` copy starts without it, a
        :meth:`renamed` one reads its original's), so :meth:`program`
        and the lint passes share one analysis.
        """
        origin = self.__dict__.get("_origin")
        if origin is not None:
            return origin.analysis
        from ..parsing.first_follow import GrammarAnalysis

        return GrammarAnalysis(self.grammar)

    @cached_property
    def validation(self):
        """The grammar's :class:`~repro.grammar.validate.ValidationReport`,
        computed on first use.

        Kept like :attr:`analysis`, so the registry's completeness check
        and :meth:`program` read one report.
        """
        origin = self.__dict__.get("_origin")
        if origin is not None:
            return origin.validation
        from ..grammar.validate import validate

        return validate(self.grammar)

    def program(self):
        """This product's parse-program IR, compiled on the first call.

        The program is the single compiled semantics source shared by the
        interpreting parser, the code generator, and the service cache;
        the product's fingerprint digest is embedded for cache validation.
        The grammar must pass :attr:`validation`; it is compiled with
        :attr:`analysis`.

        Every call returns the same object, also when threads race on
        the first one, so a :class:`~repro.parsing.coverage.CoverageMap`
        built over it fits every parser this product builds
        (:meth:`parser`, ``get_backend(name).build(product)``).  Like
        :attr:`analysis` it is kept outside equality and ``repr``: a
        :func:`dataclasses.replace` copy compiles its own, a
        :meth:`renamed` one returns its original's.
        """
        program = self.__dict__.get("_program")
        if program is None:
            origin = self.__dict__.get("_origin")
            if origin is not None:
                return origin.program()
            from ..parsing.program import compile_program

            self.validation.raise_if_failed()
            digest = getattr(self.fingerprint, "digest", None)
            # frozen: store past __setattr__, as cached_property does;
            # racing first calls all return the program stored first
            program = self.__dict__.setdefault("_program", compile_program(
                self.grammar, analysis=self.analysis, fingerprint=digest,
            ))
        return program

    def renamed(self, name: str) -> "ComposedProduct":
        """This product under ``name``, sharing its analysis, validation
        and program.

        A :func:`dataclasses.replace` copy would start without them and
        compile the same grammar again; this one asks ``self`` for them,
        so a registry's product compiles once however often it is
        renamed.  Returns ``self`` when the name is already ``name``.
        """
        if name == self.name:
            return self
        copy = replace(self, name=name)
        # outside the fields, like the program and analysis it leads to
        copy.__dict__["_origin"] = self.__dict__.get("_origin", self)
        return copy

    def hint_provider(self):
        """Feature-hint callback over the line's unselected units."""
        if self.line is None:
            return None
        from ..diagnostics.hints import feature_hint_provider

        return feature_hint_provider(
            self.line.units(), self.configuration.selected,
            grammar=self.grammar,
        )

    def rule_origins(self) -> dict[str, str]:
        """Rule name -> feature that first contributed it (trace provenance).

        Only rules present in the composed grammar are reported; rules a
        later unit removed again do not appear.
        """
        return {
            name: origin
            for name, origin in self.trace.origins.items()
            if self.grammar.has_rule(name)
        }

    def generate_source(self) -> str:
        """Emit standalone Python parser source for this product.

        The source is the lowering of :meth:`program`.  When the product
        carries a fingerprint, its digest is embedded in the source
        (``_FINGERPRINT``, read back by
        :func:`~repro.parsing.codegen.source_fingerprint`), so an export
        names the product it was generated for.
        """
        from ..parsing.codegen import generate_parser_source

        digest = getattr(self.fingerprint, "digest", None)
        return generate_parser_source(self.grammar, fingerprint=digest,
                                      program=self.program())

    def size(self) -> dict[str, int]:
        """Grammar size metrics (experiment E6)."""
        return self.grammar.size()


class GrammarProductLine:
    """A software product line of grammars.

    Args:
        model: The feature model (diagram + constraints).
        units: The feature units; every unit's feature must exist in the
            model.  Features without units are allowed — they are
            pure-configuration features (e.g. abstract groupings).
        name: Product-line name, used for composed grammar names.
        start: Start rule of composed grammars (defaults to the first
            start symbol contributed during composition).
    """

    def __init__(
        self,
        model: FeatureModel,
        units: Iterable[FeatureUnit],
        name: str = "product-line",
        start: str | None = None,
    ) -> None:
        self.model = model
        self.name = name
        self.start = start
        self._units: dict[str, FeatureUnit] = {}
        for u in units:
            if not model.has_feature(u.feature):
                raise CompositionError(
                    f"unit {u.feature!r} has no corresponding feature in the model"
                )
            if u.feature in self._units:
                raise CompositionError(
                    f"duplicate unit for feature {u.feature!r}"
                )
            self._units[u.feature] = u

    # -- unit access ----------------------------------------------------------

    def unit_for(self, feature: str) -> FeatureUnit | None:
        return self._units.get(feature)

    def units(self) -> list[FeatureUnit]:
        return list(self._units.values())

    def features_with_units(self) -> list[str]:
        return list(self._units)

    # -- configuration --------------------------------------------------------

    def resolve_configuration(
        self,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        expand: bool = True,
    ) -> Configuration:
        """Resolve a (possibly sparse) selection into a full configuration.

        This is the pure "what would be composed" half of
        :meth:`configure`: equivalent sparse selections resolve to the
        same configuration, which is what lets the service layer key
        caches by fingerprint without composing anything.
        """
        if expand:
            # expansion closure: the model pulls in ancestors/mandatory
            # children; unit-level requires may then add features, which in
            # turn need model expansion again — iterate until stable.
            selected = set(features)
            while True:
                config = expand_selection(self.model, selected, counts)
                missing: set[str] = set()
                for name in config.selected:
                    u = self._units.get(name)
                    if u is not None:
                        missing.update(
                            req for req in u.requires if req not in config.selected
                        )
                if not missing:
                    return config
                selected = set(config.selected) | missing
        config = Configuration.of(features, counts)
        check_configuration(self.model, config)
        return config

    def compose_product(
        self,
        config: Configuration,
        strict_order: bool = True,
        product_name: str | None = None,
        fingerprint: "object | None" = None,
    ) -> ComposedProduct:
        """Compose an already-resolved configuration into a product.

        The default product name is fingerprint-derived
        (``"{line}@{digest[:12]}"``), so equivalent selections always get
        the same name and different selections never collide.
        """
        # composition sequence: model pre-order restricted to the selection,
        # refined by unit-level requires/after edges
        preorder = [
            f.name for f in self.model.root.walk() if f.name in config.selected
        ]
        selected_units = [
            self._units[name] for name in preorder if name in self._units
        ]
        sequence = order_units(selected_units, config.selected)

        if fingerprint is None:
            from ..service.fingerprint import configuration_fingerprint

            fingerprint = configuration_fingerprint(self, config)
        name = product_name or f"{self.name}@{fingerprint.short}"

        trace = CompositionTrace()
        composer = GrammarComposer(strict_order=strict_order)
        grammar = Grammar(name)
        for u in sequence:
            if u.grammar is not None:
                composer.extend(grammar, u.grammar, trace=trace, origin=u.feature)
            if u.removes:
                grammar = composer.remove_rules(grammar, u.removes, trace=trace)
        grammar.name = name
        if self.start is not None:
            grammar.start = self.start

        return ComposedProduct(
            name=name,
            configuration=config,
            sequence=tuple(u.feature for u in sequence),
            grammar=grammar,
            trace=trace,
            line=self,
            fingerprint=fingerprint,
        )

    def configure(
        self,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        expand: bool = True,
        strict_order: bool = True,
        product_name: str | None = None,
    ) -> ComposedProduct:
        """Compose the product for a feature selection.

        Args:
            features: Selected feature names (sparse when ``expand``).
            counts: Clone counts for cardinality features.
            expand: Grow the selection to a full valid configuration
                (ancestors, mandatory children, requires) before checking.
            strict_order: Enforce the paper's composition-order rules.
            product_name: Name of the composed grammar; defaults to a
                fingerprint-derived deterministic name.
        """
        config = self.resolve_configuration(features, counts, expand=expand)
        return self.compose_product(
            config, strict_order=strict_order, product_name=product_name
        )

    def __repr__(self) -> str:
        return (
            f"<GrammarProductLine {self.name!r}: {len(self.model)} features, "
            f"{len(self._units)} units>"
        )
