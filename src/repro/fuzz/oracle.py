"""Differential oracle: drive a mutant through all nine parser models.

For one :class:`~repro.fuzz.mutators.MutantSpec` the oracle asks every
:mod:`repro.tlslibs` profile to decode the content octets exactly the
way the Tables 4/5 harness does (``decode_dn_attribute`` in the DN
context, ``decode_gn`` in the GeneralName context) and folds the nine
outcomes into an :class:`Observation`:

* a **scenario fingerprint** — (context, declared type, character
  classes present in the value) — the row coordinate;
* a **library-outcome vector** — one symbol per library, ``"E"`` for a
  rejection, ``"A"`` for text equal to the standard reference decode,
  ``"-"`` for an unsupported surface, and lowercase partition letters
  (``a``, ``b``, …) grouping libraries whose divergent outputs agree
  *with each other* — the column coordinate.

A campaign's :class:`CoverageMap` is a set of those (fingerprint,
vector) cells.  A mutant is *interesting* iff it lights a cell the map
has never seen; the map is seeded from the Tables 4/5 baseline probes
(:func:`baseline_specs`), so "novel" literally means "a behaviour cell
the paper's hand-crafted matrix does not contain".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..asn1.tags import UniversalTag
from ..tlslibs.base import (
    DecodingMethod,
    REFERENCE_DECODERS,
    STANDARD_METHODS,
    ParseOutcome,
)
from ..tlslibs.profiles import ALL_PROFILES
from ..uni.confusables import BIDI_CONTROLS, INVISIBLE_CHARACTERS
from ..uni.idna import alabel_violations
from .mutators import MutantSpec

#: The nine libraries in the paper's fixed column order.
LIBRARIES: tuple[str, ...] = tuple(profile.name for profile in ALL_PROFILES)

#: Outcome-vector symbols with fixed meaning (see module docstring).
SYMBOL_ERROR = "E"
SYMBOL_AGREES = "A"
SYMBOL_UNSUPPORTED = "-"

_PARTITION_LETTERS = "abcdefghijklmnopqrstuvwxyz"

#: Fingerprint = (context, declared spec name, character classes).
Fingerprint = tuple[str, str, tuple[str, ...]]


@dataclass(frozen=True)
class Observation:
    """One mutant's coordinates in the behaviour matrix."""

    fingerprint: Fingerprint
    vector: tuple[str, ...]  # aligned with :data:`LIBRARIES`

    @property
    def key(self) -> tuple[Fingerprint, tuple[str, ...]]:
        """The coverage-map cell this observation occupies."""
        return (self.fingerprint, self.vector)

    @property
    def disagreement(self) -> bool:
        """Whether at least two supported libraries behaved differently."""
        tested = {s for s in self.vector if s != SYMBOL_UNSUPPORTED}
        return len(tested) > 1


def _spec_name(tag: int) -> str:
    from ..asn1.strings import spec_for_tag
    from ..asn1.errors import StringDecodeError

    try:
        return spec_for_tag(tag).name
    except StringDecodeError:
        return f"tag-{tag}"


def _reference_decode(spec: MutantSpec) -> ParseOutcome:
    """The standard-compliant decode of the mutant's content octets."""
    if spec.context == "gn":
        # GeneralName alternatives are IA5String on the wire.
        method = DecodingMethod.ASCII
    else:
        method = STANDARD_METHODS.get(spec.tag, DecodingMethod.ASCII)
    return REFERENCE_DECODERS[method](spec.value)


def value_classes(spec: MutantSpec) -> tuple[str, ...]:
    """Character classes present in the mutant's value (sorted).

    Classes are derived from the standard reference decode when it
    succeeds (control/latin1/bmp/astral/bidi/invisible/xn-label/
    xn-invalid/empty), and from the raw octets when it does not
    (undecodable, high-byte, odd-length) — the Appendix E character
    dimensions collapsed to set membership.
    """
    classes: set[str] = set()
    if not spec.value:
        classes.add("empty")
        return tuple(sorted(classes))
    reference = _reference_decode(spec)
    if not reference.ok:
        classes.add("undecodable")
        if any(b >= 0x80 for b in spec.value):
            classes.add("high-byte")
        if spec.tag == int(UniversalTag.BMP_STRING) and len(spec.value) % 2:
            classes.add("odd-length")
        return tuple(sorted(classes))
    text = reference.text or ""
    for ch in text:
        cp = ord(ch)
        if cp in BIDI_CONTROLS:
            classes.add("bidi")
        elif cp in INVISIBLE_CHARACTERS:
            classes.add("invisible")
        elif cp < 0x20 or cp == 0x7F:
            classes.add("control")
        elif cp <= 0x7E:
            pass  # plain ASCII carries no class
        elif cp <= 0xFF:
            classes.add("latin1")
        elif cp > 0xFFFF:
            classes.add("astral")
        else:
            classes.add("bmp")
    if "xn--" in text:
        classes.add("xn-label")
        for label in text.split("."):
            if label.startswith("xn--") and alabel_violations(label):
                classes.add("xn-invalid")
                break
    return tuple(sorted(classes))


def fingerprint_of(spec: MutantSpec) -> Fingerprint:
    """The mutant's scenario fingerprint (context, type, classes)."""
    return (spec.context, _spec_name(spec.tag), value_classes(spec))


def evaluate(spec: MutantSpec) -> Observation:
    """Run one mutant through all nine profiles and classify the outcomes."""
    reference = _reference_decode(spec)
    symbols: list[str] = []
    partitions: dict[str, str] = {}
    for profile in ALL_PROFILES:
        if spec.context == "gn" and not profile.supports_san:
            symbols.append(SYMBOL_UNSUPPORTED)
            continue
        if spec.context == "gn":
            outcome = profile.decode_gn(spec.value)
        else:
            outcome = profile.decode_dn_attribute(spec.tag, spec.value)
        if not outcome.ok:
            symbols.append(SYMBOL_ERROR)
            continue
        text = outcome.text or ""
        if reference.ok and text == reference.text:
            symbols.append(SYMBOL_AGREES)
            continue
        if text not in partitions:
            index = min(len(partitions), len(_PARTITION_LETTERS) - 1)
            partitions[text] = _PARTITION_LETTERS[index]
        symbols.append(partitions[text])
    return Observation(fingerprint=fingerprint_of(spec), vector=tuple(symbols))


def evaluate_batch(specs: Sequence[MutantSpec]) -> list[Observation]:
    """Evaluate a batch of mutants in order (the worker-side entry point)."""
    return [evaluate(spec) for spec in specs]


def evaluate_batch_timed(specs: Sequence[MutantSpec]):
    """Worker wrapper: evaluate a batch and account its wall/CPU time.

    Returns ``(observations, StageTimings)`` with the batch recorded
    under the ``evaluate`` stage — the same shape the engine's pool
    workers ship back, so the parent merges it with ``worker=True``.
    """
    from ..engine.stats import StageTimings

    timings = StageTimings()
    with timings.time("evaluate", items=len(specs)):
        observations = evaluate_batch(specs)
    return observations, timings


class CoverageMap:
    """The campaign's set of visited (fingerprint, vector) cells."""

    def __init__(self) -> None:
        self._cells: set[tuple[Fingerprint, tuple[str, ...]]] = set()
        self._disagreements: set[tuple[Fingerprint, tuple[str, ...]]] = set()

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key) -> bool:
        return key in self._cells

    @property
    def disagreement_cells(self) -> int:
        """How many visited cells carry a library disagreement."""
        return len(self._disagreements)

    def observe(self, observation: Observation) -> bool:
        """Record one observation; returns True iff its cell is new."""
        key = observation.key
        if key in self._cells:
            return False
        self._cells.add(key)
        if observation.disagreement:
            self._disagreements.add(key)
        return True


def baseline_specs() -> list[MutantSpec]:
    """The Tables 4/5 probe set, rephrased as mutant specs.

    Covers every (scenario, sample) pair the decoding-matrix inference
    feeds the profiles (Table 4) plus the illegal-character probes of
    the character-checking matrix (Table 5), so the seeded coverage map
    contains exactly the behaviour cells the paper's hand-built
    matrices already exercise.
    """
    from ..tlslibs.differential import (
        TABLE4_SCENARIOS,
        TABLE5_DN_PROBES,
        TABLE5_GN_PROBE,
    )
    from ..tlslibs.inference import build_samples

    specs: list[MutantSpec] = []
    for label, tag, context in TABLE4_SCENARIOS:
        ctx = "gn" if context == "gn" else "dn"
        field = "san:dns" if ctx == "gn" else "subject:CN"
        for raw in build_samples(tag):
            specs.append(
                MutantSpec(context=ctx, field=field, tag=int(tag), value=raw)
            )
    for tag, raw in TABLE5_DN_PROBES.values():
        specs.append(
            MutantSpec(context="dn", field="subject:CN", tag=int(tag), value=raw)
        )
    specs.append(
        MutantSpec(
            context="gn",
            field="san:dns",
            tag=int(UniversalTag.IA5_STRING),
            value=TABLE5_GN_PROBE,
        )
    )
    return specs


def baseline_coverage(extra: Iterable[MutantSpec] = ()) -> CoverageMap:
    """A coverage map pre-seeded with the Tables 4/5 baseline cells."""
    coverage = CoverageMap()
    for spec in baseline_specs():
        coverage.observe(evaluate(spec))
    for spec in extra:
        coverage.observe(evaluate(spec))
    return coverage
