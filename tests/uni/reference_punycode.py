"""The original Punycode encoder, kept as a test-only oracle.

:func:`repro.uni.punycode.encode` walks the sorted distinct non-basic
code points once and looks digits up in a table; this is the RFC 3492
§6.3 encoder written straight from the pseudocode (a ``min`` over the
whole input per code point, a digit function per output digit).  The
differential tests require both to give the same output or raise the
same :class:`~repro.uni.errors.PunycodeError`.
"""

from repro.uni.errors import PunycodeError
from repro.uni.punycode import (
    BASE,
    DELIMITER,
    INITIAL_BIAS,
    INITIAL_N,
    TMAX,
    TMIN,
    _MAXINT,
    _adapt,
)


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
