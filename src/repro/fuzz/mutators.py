"""Mutation engine over the paper's Unicode/encoding dimensions.

A mutant is a :class:`MutantSpec`: the declared ASN.1 string type plus
the content octets one certificate field carries, in either the DN
(``"dn"``) or GeneralName (``"gn"``) context — exactly the surface the
nine :mod:`repro.tlslibs` profiles decode.  Mutations are sampled from
an explicitly seeded :class:`random.Random` into concrete, replayable
:class:`Mutation` records (op name + fully resolved parameters), so a
campaign is deterministic end to end and the minimizer can re-apply any
*subset* of a mutant's mutations without consulting the RNG again.

The operator catalogue covers the dimensions of the paper's Tables 4/5
plus the DRLGENCERT-style byte corruption of the related work:

* ASN.1 string-type swaps and re-encodes across the five DN types;
* BMP vs astral code-point insertion (surrogate pairs under BMPString);
* punycode edge forms (overflow-adjacent deltas, empty/hyphen labels);
* mixed-script confusable labels;
* control, bidi, and invisible layout characters;
* raw byte/length corruption of the content octets (flip, insert,
  delete, truncation, overlong UTF-8, lone surrogates).

The byte-level helpers (:func:`byte_flip` and friends) are shared with
the robustness test-suite in ``tests/fuzz/``, which applies the same
corruption strategies to whole DER certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from ..asn1.tags import UniversalTag

#: The five DN string types the paper's Table 4 varies.
DN_STRING_TAGS: tuple[int, ...] = (
    int(UniversalTag.PRINTABLE_STRING),
    int(UniversalTag.IA5_STRING),
    int(UniversalTag.TELETEX_STRING),
    int(UniversalTag.UTF8_STRING),
    int(UniversalTag.BMP_STRING),
)

#: Tags whose standard content encoding is single-octet.
_SINGLE_OCTET_TAGS = frozenset(
    {
        int(UniversalTag.PRINTABLE_STRING),
        int(UniversalTag.IA5_STRING),
        int(UniversalTag.TELETEX_STRING),
        int(UniversalTag.VISIBLE_STRING),
        int(UniversalTag.NUMERIC_STRING),
    }
)


@dataclass(frozen=True)
class MutantSpec:
    """One fuzzing subject: a (context, declared type, content octets) triple.

    ``context`` is ``"dn"`` for Subject attribute values (the declared
    tag travels on the wire) or ``"gn"`` for GeneralName alternatives
    (IMPLICIT tagging hides the string type, so ``tag`` stays
    IA5String).  ``ops`` records the names of the mutations applied so
    far, in order — campaign metadata, not behaviour.
    """

    context: str  # "dn" | "gn"
    field: str  # e.g. "subject:CN", "san:dns"
    tag: int  # declared universal string tag
    value: bytes  # content octets fed to the profile decoders
    ops: tuple[str, ...] = ()


@dataclass(frozen=True)
class Mutation:
    """One concrete, replayable mutation: op name + resolved parameters.

    ``params`` holds only JSON-serializable primitives chosen at sample
    time, so applying a mutation is a pure function of ``(spec,
    mutation)`` — the property delta-debug minimization relies on.
    """

    op: str
    params: tuple = ()


# ---------------------------------------------------------------------------
# Byte-level corruption primitives (shared with tests/fuzz/)
# ---------------------------------------------------------------------------


def byte_flip(data: bytes, index: int, value: int) -> bytes:
    """Overwrite one byte (index taken modulo the length; no-op when empty)."""
    if not data:
        return data
    index %= len(data)
    return data[:index] + bytes([value & 0xFF]) + data[index + 1 :]


def byte_insert(data: bytes, index: int, value: int) -> bytes:
    """Insert one byte at ``index`` (clamped modulo ``len + 1``)."""
    index %= len(data) + 1
    return data[:index] + bytes([value & 0xFF]) + data[index:]


def byte_delete(data: bytes, index: int) -> bytes:
    """Remove one byte (index taken modulo the length; no-op when empty)."""
    if not data:
        return data
    index %= len(data)
    return data[:index] + data[index + 1 :]


def truncate(data: bytes, keep: int) -> bytes:
    """Keep the first ``keep % len`` bytes — breaks TLV/multibyte framing."""
    if not data:
        return data
    return data[: keep % len(data)]


# ---------------------------------------------------------------------------
# Character encoding under a declared string type
# ---------------------------------------------------------------------------


def encode_char(tag: int, char: str) -> bytes:
    """Encode one character the way the declared type's standard method would.

    BMPString content is UTF-16-BE (astral characters become surrogate
    pairs — the over-tolerance probe); the ASCII/Latin-1 family carries
    single octets where possible and falls back to UTF-8 for wider
    characters (the mis-declared-encoding probe); everything else is
    UTF-8.
    """
    if tag == int(UniversalTag.BMP_STRING):
        return char.encode("utf-16-be")
    if tag in _SINGLE_OCTET_TAGS:
        try:
            return char.encode("latin-1")
        except UnicodeEncodeError:
            return char.encode("utf-8")
    return char.encode("utf-8")


def encode_text(tag: int, text: str) -> bytes:
    """Encode a whole string under the declared type (see :func:`encode_char`)."""
    return b"".join(encode_char(tag, ch) for ch in text)


def decode_standard(tag: int, value: bytes) -> str:
    """Best-effort decode under the type's standard method (lossy, total)."""
    if tag == int(UniversalTag.BMP_STRING):
        return value.decode("utf-16-be", errors="replace")
    if tag in _SINGLE_OCTET_TAGS:
        return value.decode("latin-1")
    return value.decode("utf-8", errors="replace")


def _insert(value: bytes, position: int, payload: bytes) -> bytes:
    position %= len(value) + 1
    return value[:position] + payload + value[position:]


# ---------------------------------------------------------------------------
# Character pools (fixed, so sampled params stay replayable primitives)
# ---------------------------------------------------------------------------

#: Non-ASCII BMP characters across scripts (Latin-1 sup., Greek,
#: Cyrillic, CJK, compatibility forms).
BMP_CHARS = "éüßΩя中アﬁａİ"

#: Astral (supplementary-plane) characters: emoji, math, Gothic, Han-B.
ASTRAL_CHARS = "\U0001f600\U0001d54f\U00010348\U00020000\U0001f98a"

#: C0 controls plus DEL — the Table 5 illegal-character rows.
CONTROL_CHARS = "\x00\x01\x07\x0a\x0d\x1b\x1f\x7f"

#: Bidirectional layout controls (RLO/LRO/PDF, marks, isolates).
BIDI_CHARS = "\u202e\u202d\u202c\u200f\u061c\u2066\u2067\u2069"

#: Zero-width / invisible characters that survive rendering unseen.
INVISIBLE_CHARS = "\u200b\u200c\u200d\u2060\ufeff\u00ad"

#: Mixed-script confusable labels (Cyrillic/Greek letters inside Latin).
CONFUSABLE_LABELS = (
    "pаypal.com",  # Cyrillic а
    "gοοgle.com",  # Greek omicron
    "аpple.com",
    "microsоft.com",
    "facebооk.com",
)

#: Punycode edge forms: empty/hyphen labels, minimal and overflow-
#: adjacent deltas (RFC 3492 §6.4 guards), non-ASCII survivors.
PUNYCODE_LABELS = (
    "xn--",  # empty A-label body
    "xn---",  # hyphen-only body
    "xn--a",  # shortest decodable delta
    "xn--0",  # digit-only delta
    "xn--a-ecp.com",  # ordinary two-char label for contrast
    "xn--99999999",  # large delta approaching the overflow guard
    "xn--jgbcpc9d",  # RTL Arabic label
    "xn--ls8h.la",  # emoji TLD label (astral after decode)
    "xn--a-0000000000",  # overflow-adjacent extended delta
    "-xn--a-",  # leading/trailing hyphens around an xn-- core
)

#: ASCII filler bytes used by the insertion ops.
_FILLER_BYTES = (0x00, 0x20, 0x2E, 0x3D, 0x41, 0x7F, 0x80, 0xC1, 0xE9, 0xFF)


# ---------------------------------------------------------------------------
# The operator catalogue
# ---------------------------------------------------------------------------

Sampler = Callable[[random.Random, MutantSpec], "Mutation | None"]
Applier = Callable[[MutantSpec, Mutation], MutantSpec]


@dataclass(frozen=True)
class Mutator:
    """One named mutation operator: an RNG sampler + a pure applier."""

    name: str
    sample: Sampler
    apply: Applier


def _with_value(spec: MutantSpec, value: bytes, op: str) -> MutantSpec:
    return replace(spec, value=value, ops=spec.ops + (op,))


def _sample_position(rng: random.Random) -> int:
    return rng.randrange(0, 1 << 16)


# -- string-type ops (dn context only: gn tags are IMPLICIT on the wire) --


def _sample_swap_tag(rng: random.Random, spec: MutantSpec) -> Mutation | None:
    if spec.context != "dn":
        return None
    choices = [tag for tag in DN_STRING_TAGS if tag != spec.tag]
    return Mutation("swap-string-type", (rng.choice(choices),))


def _apply_swap_tag(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    (new_tag,) = mutation.params
    return replace(spec, tag=new_tag, ops=spec.ops + (mutation.op,))


def _sample_reencode_tag(rng: random.Random, spec: MutantSpec) -> Mutation | None:
    if spec.context != "dn":
        return None
    choices = [tag for tag in DN_STRING_TAGS if tag != spec.tag]
    return Mutation("reencode-string-type", (rng.choice(choices),))


def _apply_reencode_tag(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    (new_tag,) = mutation.params
    text = decode_standard(spec.tag, spec.value)
    return replace(
        spec,
        tag=new_tag,
        value=encode_text(new_tag, text),
        ops=spec.ops + (mutation.op,),
    )


# -- character insertion ops ----------------------------------------------


def _char_inserter(op: str, pool: str) -> Mutator:
    def sample(rng: random.Random, spec: MutantSpec) -> Mutation:
        return Mutation(op, (_sample_position(rng), rng.choice(pool)))

    def apply(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
        position, char = mutation.params
        payload = encode_char(spec.tag, char)
        return _with_value(spec, _insert(spec.value, position, payload), op)

    return Mutator(op, sample, apply)


def _label_replacer(op: str, pool: tuple[str, ...]) -> Mutator:
    def sample(rng: random.Random, spec: MutantSpec) -> Mutation:
        return Mutation(op, (rng.choice(pool),))

    def apply(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
        (label,) = mutation.params
        return _with_value(spec, encode_text(spec.tag, label), op)

    return Mutator(op, sample, apply)


# -- raw byte / length corruption ops -------------------------------------


def _sample_byte_flip(rng: random.Random, spec: MutantSpec) -> Mutation:
    return Mutation("byte-flip", (_sample_position(rng), rng.choice(_FILLER_BYTES)))


def _apply_byte_flip(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    index, value = mutation.params
    return _with_value(spec, byte_flip(spec.value, index, value), mutation.op)


def _sample_byte_insert(rng: random.Random, spec: MutantSpec) -> Mutation:
    return Mutation("byte-insert", (_sample_position(rng), rng.choice(_FILLER_BYTES)))


def _apply_byte_insert(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    index, value = mutation.params
    return _with_value(spec, byte_insert(spec.value, index, value), mutation.op)


def _sample_byte_delete(rng: random.Random, spec: MutantSpec) -> Mutation:
    return Mutation("byte-delete", (_sample_position(rng),))


def _apply_byte_delete(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    (index,) = mutation.params
    return _with_value(spec, byte_delete(spec.value, index), mutation.op)


def _sample_truncate(rng: random.Random, spec: MutantSpec) -> Mutation:
    return Mutation("truncate", (_sample_position(rng),))


def _apply_truncate(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    (keep,) = mutation.params
    return _with_value(spec, truncate(spec.value, keep), mutation.op)


def _sample_overlong_utf8(rng: random.Random, spec: MutantSpec) -> Mutation:
    return Mutation("overlong-utf8", (_sample_position(rng),))


def _apply_overlong_utf8(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    # 0xC1 0xA1 is the overlong two-byte encoding of "a" — always
    # invalid UTF-8, accepted by sloppy decoders.
    (position,) = mutation.params
    return _with_value(
        spec, _insert(spec.value, position, b"\xc1\xa1"), mutation.op
    )


def _sample_surrogate(rng: random.Random, spec: MutantSpec) -> Mutation:
    return Mutation("lone-surrogate", (_sample_position(rng),))


def _apply_surrogate(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    # A lone high surrogate: two octets under UTF-16 framing, the
    # CESU-8 form elsewhere — illegal in UCS-2, UTF-16, and UTF-8.
    (position,) = mutation.params
    payload = (
        b"\xd8\x00"
        if spec.tag == int(UniversalTag.BMP_STRING)
        else b"\xed\xa0\x80"
    )
    return _with_value(spec, _insert(spec.value, position, payload), mutation.op)


def _sample_empty(rng: random.Random, spec: MutantSpec) -> Mutation | None:
    if not spec.value:
        return None
    return Mutation("empty-value", ())


def _apply_empty(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    return _with_value(spec, b"", mutation.op)


#: The full operator catalogue, in a fixed order (campaign determinism).
MUTATORS: tuple[Mutator, ...] = (
    Mutator("swap-string-type", _sample_swap_tag, _apply_swap_tag),
    Mutator("reencode-string-type", _sample_reencode_tag, _apply_reencode_tag),
    _char_inserter("insert-bmp", BMP_CHARS),
    _char_inserter("insert-astral", ASTRAL_CHARS),
    _char_inserter("insert-control", CONTROL_CHARS),
    _char_inserter("insert-bidi", BIDI_CHARS),
    _char_inserter("insert-invisible", INVISIBLE_CHARS),
    _label_replacer("confusable-label", CONFUSABLE_LABELS),
    _label_replacer("punycode-edge", PUNYCODE_LABELS),
    Mutator("byte-flip", _sample_byte_flip, _apply_byte_flip),
    Mutator("byte-insert", _sample_byte_insert, _apply_byte_insert),
    Mutator("byte-delete", _sample_byte_delete, _apply_byte_delete),
    Mutator("truncate", _sample_truncate, _apply_truncate),
    Mutator("overlong-utf8", _sample_overlong_utf8, _apply_overlong_utf8),
    Mutator("lone-surrogate", _sample_surrogate, _apply_surrogate),
    Mutator("empty-value", _sample_empty, _apply_empty),
)

MUTATORS_BY_NAME: dict[str, Mutator] = {m.name: m for m in MUTATORS}


def apply_mutation(spec: MutantSpec, mutation: Mutation) -> MutantSpec:
    """Apply one concrete mutation (pure; unknown ops raise KeyError)."""
    return MUTATORS_BY_NAME[mutation.op].apply(spec, mutation)


def apply_mutations(spec: MutantSpec, mutations) -> MutantSpec:
    """Fold a mutation sequence over a seed spec, left to right."""
    for mutation in mutations:
        spec = apply_mutation(spec, mutation)
    return spec


def sample_mutations(
    rng: random.Random, seed: MutantSpec, count: int
) -> list[Mutation]:
    """Sample ``count`` stacked mutations against the evolving spec.

    Operators that decline the current context (e.g. string-type swaps
    in the GN context, where IMPLICIT tagging erases the type) return
    ``None`` and are re-rolled; the RNG stream alone determines the
    outcome, so equal seeds give equal mutation lists.
    """
    mutations: list[Mutation] = []
    spec = seed
    while len(mutations) < count:
        mutator = rng.choice(MUTATORS)
        mutation = mutator.sample(rng, spec)
        if mutation is None:
            continue
        mutations.append(mutation)
        spec = apply_mutation(spec, mutation)
    return mutations
