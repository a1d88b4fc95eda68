"""Section 3.2's inference algorithm: which decoding method and
character-handling mode does a parser use?

For a given declared string type, the harness crafts content octets
containing progressively wider character ranges, feeds them to the
parser under test, and matches its outputs against the five common
decoding methods — first verbatim, then after each of the three special
character handling modes.  The first candidate that explains *all*
observations wins, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..asn1.tags import UniversalTag
from .base import (
    CharHandling,
    DecodePractice,
    DecodingMethod,
    ParseOutcome,
    ParserProfile,
    REFERENCE_DECODERS,
    STANDARD_METHODS,
)

# ---------------------------------------------------------------------------
# Test sample construction
# ---------------------------------------------------------------------------

#: Texts spanning the ranges the paper samples (ASCII, Latin-1, CJK,
#: controls) — each is encoded under several byte encodings to build
#: the mixed scenarios of Table 4.
SAMPLE_TEXTS = [
    "test.com",
    "café-ü",  # Latin-1 supplement
    "中国",  # CJK
    "ctrl",  # C0 controls
]


def build_samples(declared_tag: int) -> list[bytes]:
    """Content octets to feed a parser for one declared string type.

    The bytes intentionally include sequences outside the declared
    type's standard range (e.g. UTF-8 and Latin-1 bytes inside a
    PrintableString) so that tolerant, incompatible, and modified
    decoders become distinguishable.
    """
    samples: list[bytes] = []
    for text in SAMPLE_TEXTS:
        if declared_tag in (
            UniversalTag.PRINTABLE_STRING,
            UniversalTag.IA5_STRING,
            UniversalTag.VISIBLE_STRING,
            UniversalTag.NUMERIC_STRING,
            UniversalTag.TELETEX_STRING,
        ):
            try:
                samples.append(text.encode("latin-1"))
            except UnicodeEncodeError:
                samples.append(text.encode("utf-8"))
        elif declared_tag == UniversalTag.UTF8_STRING:
            samples.append(text.encode("utf-8"))
        elif declared_tag == UniversalTag.BMP_STRING:
            samples.append(text.encode("utf-16-be"))
    if declared_tag == UniversalTag.UTF8_STRING:
        samples.append(b"bad\xff\xfebytes")  # invalid UTF-8
    if declared_tag == UniversalTag.BMP_STRING:
        samples.append("\U0001f600".encode("utf-16-be"))  # surrogate pair
    return samples


# ---------------------------------------------------------------------------
# Character-handling transforms applied after a reference decode
# ---------------------------------------------------------------------------


def _apply_escaping(raw: bytes, method: DecodingMethod) -> ParseOutcome:
    if method is DecodingMethod.ASCII:
        from .base import ascii_hex_escape

        return ascii_hex_escape(raw)
    if method is DecodingMethod.UTF_8:
        from .base import utf8_hex_escape_fallback

        return utf8_hex_escape_fallback(raw)
    return ParseOutcome(error="escaping not modelled for this method")


def _apply_replacement(raw: bytes, method: DecodingMethod) -> ParseOutcome:
    if method is DecodingMethod.ASCII:
        from .base import ascii_replace

        return ascii_replace(raw)
    if method is DecodingMethod.UTF_8:
        from .base import utf8_replace

        return utf8_replace(raw)
    return ParseOutcome(error="replacement not modelled for this method")


def _apply_truncation(raw: bytes, method: DecodingMethod) -> ParseOutcome:
    if method is DecodingMethod.ASCII:
        from .base import ascii_truncate

        return ascii_truncate(raw)
    return ParseOutcome(error="truncation not modelled for this method")


def _apply_dot_replacement(raw: bytes, method: DecodingMethod) -> ParseOutcome:
    from .base import control_chars_to_dot

    if method in (DecodingMethod.ASCII, DecodingMethod.ISO_8859_1):
        return control_chars_to_dot(raw)
    return ParseOutcome(error="dot replacement not modelled for this method")


_HANDLING_TRANSFORMS: list[tuple[CharHandling, Callable]] = [
    (CharHandling.ESCAPING, _apply_escaping),
    (CharHandling.REPLACEMENT, _apply_replacement),
    (CharHandling.REPLACEMENT, _apply_dot_replacement),
    (CharHandling.TRUNCATION, _apply_truncation),
]


@dataclass(frozen=True)
class InferenceResult:
    """What the harness concluded about one (library, scenario) cell."""

    method: DecodingMethod | None
    handling: CharHandling | None
    practice: DecodePractice

    @property
    def label(self) -> str:
        if self.practice is DecodePractice.UNSUPPORTED:
            return "-"
        method = self.method.value if self.method else "?"
        if self.handling and self.handling is not CharHandling.NONE:
            return f"Modified {method}"
        return method


def _outcomes_match(observed: list[ParseOutcome], expected: list[ParseOutcome]) -> bool:
    """Whether a candidate explains every *successful* observation.

    Complete parsing failures are excluded from the inference, per
    Section 3.2 ("cases with complete parsing failures were excluded
    from this inference and analyzed separately").  A candidate that
    *fails* where the parser succeeded cannot explain the output.
    """
    for obs, exp in zip(observed, expected):
        if not obs.ok:
            continue
        if not exp.ok or obs.text != exp.text:
            return False
    return True


def infer_decoding(
    profile: ParserProfile,
    declared_tag: int,
    context: str = "dn",
) -> InferenceResult:
    """Infer the decoding method + handling for one scenario."""
    samples = build_samples(declared_tag)
    if context == "dn":
        observed = [profile.decode_dn_attribute(declared_tag, raw) for raw in samples]
    else:
        observed = [profile.decode_gn(raw, context=context) for raw in samples]

    if all(not outcome.ok for outcome in observed):
        return InferenceResult(None, None, DecodePractice.UNSUPPORTED)

    # Pass 1: a bare decoding method explains everything.
    for method, decoder in REFERENCE_DECODERS.items():
        expected = [decoder(raw) for raw in samples]
        if _outcomes_match(observed, expected):
            return InferenceResult(
                method, CharHandling.NONE, classify(declared_tag, method, CharHandling.NONE)
            )

    # Pass 2: a method plus one special-character handling mode.
    for method in REFERENCE_DECODERS:
        for handling, transform in _HANDLING_TRANSFORMS:
            expected = [transform(raw, method) for raw in samples]
            if _outcomes_match(observed, expected):
                return InferenceResult(
                    method, handling, classify(declared_tag, method, handling)
                )

    # Nothing matched: record as modified with unknown method.
    return InferenceResult(None, None, DecodePractice.MODIFIED)


def classify(
    declared_tag: int,
    method: DecodingMethod | None,
    handling: CharHandling,
) -> DecodePractice:
    """Map an inferred (method, handling) to Table 4's practice classes."""
    if method is None:
        return DecodePractice.UNSUPPORTED
    if handling is not CharHandling.NONE:
        return DecodePractice.MODIFIED
    standard = STANDARD_METHODS.get(declared_tag)
    if standard is None or method == standard:
        return DecodePractice.COMPLIANT
    ascii_like = standard is DecodingMethod.ASCII
    if ascii_like and method in (DecodingMethod.ISO_8859_1, DecodingMethod.UTF_8):
        return DecodePractice.OVER_TOLERANT
    if standard is DecodingMethod.UCS_2 and method is DecodingMethod.UTF_16:
        return DecodePractice.OVER_TOLERANT
    if standard is DecodingMethod.ISO_8859_1 and method in (
        DecodingMethod.UTF_8,
        DecodingMethod.ISO_8859_1,
    ):
        # TeletexString modelled as Latin-1; UTF-8 widening is tolerant.
        return DecodePractice.OVER_TOLERANT
    return DecodePractice.INCOMPATIBLE
