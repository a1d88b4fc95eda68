"""The original Punycode encoder and decoder, kept as test-only oracles.

:func:`repro.uni.punycode.encode` walks the sorted distinct non-basic
code points once and looks digits up in a table, and
:func:`repro.uni.punycode.decode` reads digits from a table with the
bias adaptation inlined; these are the RFC 3492 §6.2/§6.3 algorithms
written straight from the pseudocode (a ``min`` over the whole input
per code point, a digit function per digit, a separate ``adapt``).  The
differential tests require both sides to give the same output or raise
the same :class:`~repro.uni.errors.PunycodeError`.  Nothing here is
imported from :mod:`repro.uni.punycode`, so the oracle cannot drift
with it.
"""

from repro.uni.errors import PunycodeError

BASE = 36
TMIN = 1
TMAX = 26
SKEW = 38
DAMP = 700
INITIAL_BIAS = 72
INITIAL_N = 0x80
DELIMITER = "-"
_MAXINT = 0x7FFFFFFF


def _decode_digit(ch: str) -> int:
    cp = ord(ch)
    if 0x30 <= cp <= 0x39:  # '0'-'9' -> 26..35
        return cp - 0x30 + 26
    if 0x41 <= cp <= 0x5A:  # 'A'-'Z' -> 0..25
        return cp - 0x41
    if 0x61 <= cp <= 0x7A:  # 'a'-'z' -> 0..25
        return cp - 0x61
    raise PunycodeError(f"invalid Punycode digit {ch!r}")


def _adapt(delta: int, numpoints: int, firsttime: bool) -> int:
    delta = delta // DAMP if firsttime else delta // 2
    delta += delta // numpoints
    k = 0
    while delta > ((BASE - TMIN) * TMAX) // 2:
        delta //= BASE - TMIN
        k += BASE
    return k + (((BASE - TMIN + 1) * delta) // (delta + SKEW))


def _encode_digit(d: int) -> str:
    """Map 0..35 to 'a'..'z', '0'..'9' (always lowercase)."""
    if d < 26:
        return chr(ord("a") + d)
    if d < 36:
        return chr(ord("0") + d - 26)
    raise PunycodeError(f"digit out of range: {d}")


def encode(text: str) -> str:
    if not text:
        return ""
    for ch in text:
        if 0xD800 <= ord(ch) <= 0xDFFF:
            raise PunycodeError(f"surrogate U+{ord(ch):04X} cannot be encoded")
    output = [ch for ch in text if ord(ch) < INITIAL_N]
    basic_count = handled = len(output)
    if output:
        output.append(DELIMITER)
    n = INITIAL_N
    delta = 0
    bias = INITIAL_BIAS
    while handled < len(text):
        m = min(ord(ch) for ch in text if ord(ch) >= n)
        if m - n > (_MAXINT - delta) // (handled + 1):
            raise PunycodeError("overflow while encoding")
        delta += (m - n) * (handled + 1)
        n = m
        for ch in text:
            cp = ord(ch)
            if cp < n:
                delta += 1
                if delta > _MAXINT:
                    raise PunycodeError("overflow while encoding")
            elif cp == n:
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
                    output.append(_encode_digit(t + (q - t) % (BASE - t)))
                    q = (q - t) // (BASE - t)
                    k += BASE
                output.append(_encode_digit(q))
                bias = _adapt(delta, handled + 1, handled == basic_count)
                delta = 0
                handled += 1
        delta += 1
        n += 1
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
    for ch in text:
        if ord(ch) >= INITIAL_N:
            raise PunycodeError(f"non-ASCII character {ch!r} in Punycode input")
    # RFC 3492 §3.1: the basic string is everything before the *last*
    # delimiter, if any delimiter is present.  A delimiter at position 0
    # ("-abc") delimits an empty basic string, and a lone trailing
    # delimiter ("abc-") marks an empty extended part.
    last_delim = text.rfind(DELIMITER)
    if last_delim > 0:
        output = list(text[:last_delim])
        pos = last_delim + 1
    else:
        output = []
        pos = last_delim + 1 if last_delim == 0 else 0
    n = INITIAL_N
    i = 0
    bias = INITIAL_BIAS
    while pos < len(text):
        old_i = i
        w = 1
        k = BASE
        while True:
            if pos >= len(text):
                raise PunycodeError("truncated variable-length integer")
            digit = _decode_digit(text[pos])
            pos += 1
            # RFC 3492 §6.4: guard each accumulation *before* it happens
            # so i and w never exceed maxint even transiently.
            if digit > (_MAXINT - i) // w:
                raise PunycodeError("overflow while decoding")
            i += digit * w
            if k <= bias:
                t = TMIN
            elif k >= bias + TMAX:
                t = TMAX
            else:
                t = k - bias
            if digit < t:
                break
            if w > _MAXINT // (BASE - t):
                raise PunycodeError("overflow while decoding")
            w *= BASE - t
            k += BASE
        count = len(output) + 1
        bias = _adapt(i - old_i, count, old_i == 0)
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
