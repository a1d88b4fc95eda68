"""Punycode — the RFC 3492 Bootstring instance for IDNA, from scratch.

The module deliberately does not use :mod:`codecs`' built-in punycode
codec: the paper studies *malformed* Punycode (A-labels that cannot be
converted back to Unicode), so we need full control over every failure
mode and over overflow/range checking.
"""

from __future__ import annotations

from .errors import PunycodeError

BASE = 36
TMIN = 1
TMAX = 26
SKEW = 38
DAMP = 700
INITIAL_BIAS = 72
INITIAL_N = 0x80
DELIMITER = "-"

#: Bootstring overflow guard (RFC 3492 6.4 recommends detecting overflow;
#: we use the Unicode ceiling plus headroom like the reference C code).
_MAXINT = 0x7FFFFFFF

#: Digit value 0..35 -> its (lowercase) Punycode character.
_DIGITS = "abcdefghijklmnopqrstuvwxyz0123456789"


#: Punycode character (either case) -> its digit value 0..35.
_DIGIT_VALUES = {ch: value for value, ch in enumerate(_DIGITS)}
_DIGIT_VALUES.update({ch.upper(): value for ch, value in _DIGIT_VALUES.items()})


#: RFC 3492 §6.1: ``adapt`` divides delta while it exceeds this.
_ADAPT_LIMIT = ((BASE - TMIN) * TMAX) // 2


def _adapt(delta: int, numpoints: int, firsttime: bool) -> int:
    delta = delta // DAMP if firsttime else delta // 2
    delta += delta // numpoints
    k = 0
    while delta > _ADAPT_LIMIT:
        delta //= BASE - TMIN
        k += BASE
    return k + (((BASE - TMIN + 1) * delta) // (delta + SKEW))


def encode(text: str) -> str:
    """Encode ``text`` to its Punycode form (without the ``xn--`` prefix).

    Edge cases pinned down by tests: ``encode("") == ""`` (no spurious
    delimiter), and an all-basic input comes back verbatim plus one
    trailing delimiter (RFC 3492 §3.1: the delimiter is emitted whenever
    the basic string is nonempty, even if nothing follows it).
    """
    if not text:
        return ""
    for ch in text:
        if "\ud800" <= ch <= "\udfff":
            raise PunycodeError(f"surrogate U+{ord(ch):04X} cannot be encoded")
    codes = [ord(ch) for ch in text]
    output = [ch for ch in text if ch < "\x80"]
    basic_count = handled = len(output)
    if output:
        output.append(DELIMITER)
    digits = _DIGITS
    n = INITIAL_N
    delta = 0
    bias = INITIAL_BIAS
    # Each distinct non-basic code point, in ascending order, is the
    # next ``m`` of RFC 3492 §6.3 (the smallest code point >= n).
    for m in sorted({cp for cp in codes if cp >= INITIAL_N}):
        # RFC 3492 §6.4 overflow guard, applied *before* the arithmetic
        # like the reference encoder: delta would exceed maxint.
        if m - n > (_MAXINT - delta) // (handled + 1):
            raise PunycodeError("overflow while encoding")
        delta += (m - n) * (handled + 1)
        for cp in codes:
            if cp < m:
                delta += 1
                if delta > _MAXINT:
                    raise PunycodeError("overflow while encoding")
            elif cp == m:
                q = delta
                k = BASE
                while True:
                    if k <= bias:
                        t = TMIN
                    elif k >= bias + TMAX:
                        t = TMAX
                    else:
                        t = k - bias
                    if q < t:
                        break
                    output.append(digits[t + (q - t) % (BASE - t)])
                    q = (q - t) // (BASE - t)
                    k += BASE
                output.append(digits[q])
                bias = _adapt(delta, handled + 1, handled == basic_count)
                delta = 0
                handled += 1
        delta += 1
        n = m + 1
    return "".join(output)


def decode(text: str) -> str:
    """Decode a Punycode string (without the ``xn--`` prefix) to Unicode.

    Raises :class:`PunycodeError` on any malformation: non-ASCII input,
    invalid digits, truncated variable-length integers, overflow, or code
    points outside the Unicode range.  These are precisely the "A-label
    cannot be converted to a U-label" failures the paper measures.
    """
    if not text:
        return ""
    if not text.isascii():
        for ch in text:
            if ch >= "\x80":
                raise PunycodeError(f"non-ASCII character {ch!r} in Punycode input")
    # RFC 3492 §3.1: the basic string is everything before the *last*
    # delimiter, if any delimiter is present.  A delimiter at position 0
    # ("-abc") delimits an empty basic string, and a lone trailing
    # delimiter ("abc-") marks an empty extended part.
    last_delim = text.rfind(DELIMITER)
    if last_delim > 0:
        output = list(text[:last_delim])
    else:
        output = []
    pos = last_delim + 1
    length = len(text)
    values = _DIGIT_VALUES
    n = INITIAL_N
    i = 0
    bias = INITIAL_BIAS
    while pos < length:
        old_i = i
        w = 1
        k = BASE
        while True:
            if pos >= length:
                raise PunycodeError("truncated variable-length integer")
            digit = values.get(text[pos])
            if digit is None:
                raise PunycodeError(f"invalid Punycode digit {text[pos]!r}")
            pos += 1
            # RFC 3492 §6.4: guard each accumulation *before* it happens
            # so i and w never exceed maxint even transiently.
            if digit > (_MAXINT - i) // w:
                raise PunycodeError("overflow while decoding")
            i += digit * w
            t = k - bias
            if t < TMIN:
                t = TMIN
            elif t > TMAX:
                t = TMAX
            if digit < t:
                break
            if w > _MAXINT // (BASE - t):
                raise PunycodeError("overflow while decoding")
            w *= BASE - t
            k += BASE
        count = len(output) + 1
        # RFC 3492 §6.1 bias adaptation (``_adapt``), inlined.
        delta = (i - old_i) // DAMP if old_i == 0 else (i - old_i) // 2
        delta += delta // count
        k = 0
        while delta > _ADAPT_LIMIT:
            delta //= BASE - TMIN
            k += BASE
        bias = k + ((BASE - TMIN + 1) * delta) // (delta + SKEW)
        if i // count > _MAXINT - n:
            raise PunycodeError("overflow while decoding")
        n += i // count
        if n > 0x10FFFF:
            raise PunycodeError(f"code point {n:#x} outside Unicode range")
        if 0xD800 <= n <= 0xDFFF:
            raise PunycodeError(f"decoded surrogate U+{n:04X}")
        i %= count
        output.insert(i, chr(n))
        i += 1
    return "".join(output)
