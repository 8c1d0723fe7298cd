"""``RuleRegistry`` — lookup, coverage queries, and runtime registration.

The registry is the extension point: registering a spec at runtime
makes the rule flow through ``Analyzer`` (detector), ``Optimizer``
(transform), the Table I bench (micro pair) and ``pepo rules``
(coverage matrix) with no edits to ``repro`` internals.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.rules.spec import RuleSpec

if TYPE_CHECKING:
    from repro.analyzer.rules.base import Rule
    from repro.bench.micro import MicroPair
    from repro.optimizer.transforms.base import Transform


class RegistryError(ValueError):
    """An inconsistent spec or registry (drift the old sprawl allowed)."""


class RuleRegistry:
    """Ordered collection of :class:`RuleSpec` keyed by rule id."""

    def __init__(self, specs: Iterable[RuleSpec] = ()) -> None:
        self._specs: dict[str, RuleSpec] = {}
        for spec in specs:
            self.register(spec)

    # -- registration -----------------------------------------------------

    def register(self, spec: RuleSpec, *, replace: bool = False) -> RuleSpec:
        """Add a spec; :class:`RegistryError` on duplicates or drift."""
        _check_spec(spec)
        if not replace and spec.rule_id in self._specs:
            raise RegistryError(f"duplicate rule id: {spec.rule_id}")
        self._specs[spec.rule_id] = spec
        return spec

    def unregister(self, rule_id: str) -> RuleSpec:
        """Remove and return a spec; KeyError when unknown."""
        return self._specs.pop(rule_id)

    # -- lookup -----------------------------------------------------------

    def get(self, rule_id: str) -> RuleSpec:
        """Spec for a rule id; KeyError when unknown."""
        return self._specs[rule_id]

    def __contains__(self, rule_id: object) -> bool:
        return rule_id in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[RuleSpec]:
        return iter(self._specs.values())

    def specs(self, *, include_extensions: bool = True) -> tuple[RuleSpec, ...]:
        """All specs in registration order."""
        return tuple(
            spec
            for spec in self._specs.values()
            if include_extensions or not spec.extension
        )

    def table1_specs(self) -> tuple[RuleSpec, ...]:
        """The built-in Table I catalog (extensions excluded)."""
        return tuple(
            s for s in self._specs.values() if s.builtin and not s.extension
        )

    def extension_specs(self) -> tuple[RuleSpec, ...]:
        """Built-in future-work rules beyond Table I."""
        return tuple(
            s for s in self._specs.values() if s.builtin and s.extension
        )

    # -- consumer views ---------------------------------------------------

    def detector_classes(self, extended: bool = False) -> "tuple[type[Rule], ...]":
        """Detector classes for the analyzer's rule set.

        Extension rules join only when ``extended`` (they are the
        paper's future work, opt-in everywhere).
        """
        return tuple(
            spec.detector
            for spec in self._specs.values()
            if spec.detector is not None and (extended or not spec.extension)
        )

    def transform_classes(self) -> "tuple[type[Transform], ...]":
        """Transform classes in application order.

        Ordering comes from each transform's ``application_order``
        (statement-level splices early, the loop swap last) with the
        rule id as a stable tie-break, so pipeline order is a property
        of the transform, not of a hand-maintained list.
        """
        transforms = [
            spec.transform
            for spec in self._specs.values()
            if spec.transform is not None
        ]
        transforms.sort(
            key=lambda t: (getattr(t, "application_order", 50), t.rule_id)
        )
        return tuple(transforms)

    def micro_pairs(self) -> "tuple[MicroPair, ...]":
        """Every registered micro-benchmark pair, in registration order."""
        return tuple(
            spec.micro for spec in self._specs.values() if spec.micro is not None
        )

    # -- cache identity ---------------------------------------------------

    def fingerprint(self) -> str:
        """Stable digest of the registered rule set.

        Folds in every rule id plus the identity and declared
        ``version`` of its detector and transform classes, so
        registering, unregistering, or editing (version-bumping) a rule
        changes the fingerprint — and therefore invalidates exactly the
        sweep-cache entries that depended on it.  Sorted by rule id so
        registration order does not matter.
        """
        digest = hashlib.sha256()
        for spec in sorted(self._specs.values(), key=lambda s: s.rule_id):
            digest.update(
                repr(
                    (
                        spec.rule_id,
                        _class_token(spec.detector),
                        _class_token(spec.transform),
                        spec.extension,
                        spec.overhead_percent,
                    )
                ).encode("utf-8")
            )
        return digest.hexdigest()

    # -- coverage queries -------------------------------------------------

    def has_transform(self, rule_id: str) -> bool:
        spec = self._specs.get(rule_id)
        return spec is not None and spec.transform is not None

    def has_micro(self, rule_id: str) -> bool:
        spec = self._specs.get(rule_id)
        return spec is not None and spec.micro is not None

    def coverage_counts(self) -> dict[str, int]:
        """Rollup for the ``pepo rules`` footer."""
        specs = list(self._specs.values())
        return {
            "rules": len(specs),
            "detectors": sum(1 for s in specs if s.detector is not None),
            "transforms": sum(1 for s in specs if s.transform is not None),
            "micros": sum(1 for s in specs if s.micro is not None),
        }

    # -- self-check -------------------------------------------------------

    def validate(self) -> None:
        """Reject the drift the old four-file sprawl allowed.

        Raises :class:`RegistryError` for specs whose detector,
        transform, or micro-pair carries a mismatching rule id, for
        transforms attached to a spec with no detector, and for empty
        suggestion text.  Called at import of :mod:`repro.rules`.
        """
        for spec in self._specs.values():
            _check_spec(spec)


def _class_token(cls: type | None) -> tuple | None:
    """Identity of a detector/transform class for fingerprinting.

    Folds in the declared pre-filter triggers: widening or narrowing a
    rule's triggers changes which files it runs on, so cached sweep
    results must be invalidated exactly like a logic change.
    """
    if cls is None:
        return None
    return (
        cls.__module__,
        cls.__qualname__,
        getattr(cls, "version", 1),
        getattr(cls, "triggers", None),
    )


def _check_spec(spec: RuleSpec) -> None:
    if not spec.rule_id or not isinstance(spec.rule_id, str):
        raise RegistryError(f"spec needs a non-empty string rule id: {spec!r}")
    if not spec.python_component or not spec.python_suggestion:
        raise RegistryError(
            f"{spec.rule_id}: pool text (component + suggestion) is required"
        )
    if spec.detector is None:
        raise RegistryError(f"{spec.rule_id}: a detector class is required")
    detector_id = getattr(spec.detector, "rule_id", None)
    if detector_id != spec.rule_id:
        raise RegistryError(
            f"{spec.rule_id}: detector {spec.detector.__name__} declares "
            f"rule_id {detector_id!r}"
        )
    if spec.transform is not None:
        transform_id = getattr(spec.transform, "rule_id", None)
        if transform_id != spec.rule_id:
            raise RegistryError(
                f"{spec.rule_id}: transform {spec.transform.__name__} "
                f"declares rule_id {transform_id!r} — no detector owns it"
            )
    if spec.micro is not None and spec.micro.rule_id != spec.rule_id:
        raise RegistryError(
            f"{spec.rule_id}: micro-pair points at unknown rule "
            f"{spec.micro.rule_id!r}"
        )
    if spec.overhead_percent < 0:
        raise RegistryError(
            f"{spec.rule_id}: overhead_percent must be non-negative"
        )
    triggers = getattr(spec.detector, "triggers", None)
    if triggers is not None:
        strings = isinstance(triggers, tuple) and all(
            isinstance(t, str) for t in triggers
        )
        if not strings or not all(triggers):
            raise RegistryError(
                f"{spec.rule_id}: detector {spec.detector.__name__} "
                "triggers must be None or a tuple of non-empty strings"
            )
        if not triggers:
            # An empty tuple would mean "never runs anywhere" — that is
            # a disabled rule pretending to be registered.
            raise RegistryError(
                f"{spec.rule_id}: empty triggers would disable the rule; "
                "use None to opt out of pre-filtering"
            )
