"""Browser IDN display policies (the Appendix F.1 context).

Browsers decide per-hostname whether to display the Unicode form or
fall back to Punycode.  This module implements a Chrome-style policy
pipeline (the checks the paper notes address *address-bar* display but
not certificate-viewer rendering): invalid A-labels, mixed scripts,
whole-script confusables, invisible characters, and deviation
characters all force Punycode display.
"""

from __future__ import annotations

import enum
import unicodedata
from dataclasses import dataclass

from ..uni import punycode
from ..uni.confusables import has_bidi_control, has_invisible, skeleton
from ..uni.dns import is_xn_label
from ..uni.idna import alabel_violations
from ..uni.errors import PunycodeError


class DisplayDecision(enum.Enum):
    """The three possible address-bar display outcomes."""
    UNICODE = "display Unicode"
    PUNYCODE = "fall back to Punycode"
    BLOCKED = "refuse to display"


#: IDNA2003->2008 deviation characters that changed interpretation.
_DEVIATION_CHARS = frozenset("ßς‌‍")  # sharp s, final sigma, ZWNJ, ZWJ


def _scripts(label: str) -> set[str]:
    scripts = set()
    for ch in label:
        if not ch.isalpha():
            continue
        name = unicodedata.name(ch, "")
        if "CJK UNIFIED" in name or "CJK COMPATIBILITY" in name:
            scripts.add("HAN")
            continue
        for script in ("LATIN", "CYRILLIC", "GREEK", "HIRAGANA", "KATAKANA",
                       "HANGUL", "ARABIC", "HEBREW", "DEVANAGARI", "THAI"):
            if script in name:
                scripts.add(script)
                break
        else:
            scripts.add("OTHER")
    return scripts


#: Script combinations that legitimately co-occur.
_ALLOWED_COMBINATIONS = [
    {"HAN", "HIRAGANA", "KATAKANA"},  # Japanese
    {"HAN", "HANGUL"},  # Korean
    {"HAN"},
    {"LATIN"},
]


@dataclass
class DisplayVerdict:
    decision: DisplayDecision
    reason: str = ""
    displayed: str = ""


def decide_label_display(
    label: str,
    protected_skeletons: frozenset[str] = frozenset(),
) -> DisplayVerdict:
    """Chrome-style display decision for one label.

    ``protected_skeletons`` models the top-domain skeleton list: a
    U-label whose confusable skeleton collides with a protected name is
    forced to Punycode even when single-script.
    """
    if is_xn_label(label):
        try:
            decoded = punycode.decode(label[4:])
        except PunycodeError:
            return DisplayVerdict(DisplayDecision.PUNYCODE, "undecodable A-label", label)
        problems = alabel_violations(label)
        if problems:
            return DisplayVerdict(DisplayDecision.PUNYCODE, problems[0], label)
        return decide_label_display(decoded, protected_skeletons)

    if has_invisible(label) or has_bidi_control(label):
        return DisplayVerdict(
            DisplayDecision.PUNYCODE, "invisible or bidi control character",
            _to_punycode(label),
        )
    if any(ch in _DEVIATION_CHARS for ch in label):
        return DisplayVerdict(
            DisplayDecision.PUNYCODE, "IDNA deviation character", _to_punycode(label)
        )
    scripts = _scripts(label)
    if len(scripts) > 1 and not any(
        scripts <= combination for combination in _ALLOWED_COMBINATIONS
    ):
        return DisplayVerdict(
            DisplayDecision.PUNYCODE, f"mixed scripts {sorted(scripts)}",
            _to_punycode(label),
        )
    if scripts and "LATIN" not in scripts and skeleton(label) != label.casefold():
        # Whole-script confusable: non-Latin label that skeletons to
        # a Latin-looking string.
        folded = skeleton(label)
        if all(ord(ch) < 0x80 for ch in folded):
            return DisplayVerdict(
                DisplayDecision.PUNYCODE,
                "whole-script confusable with ASCII",
                _to_punycode(label),
            )
    if protected_skeletons and skeleton(label) in protected_skeletons:
        return DisplayVerdict(
            DisplayDecision.PUNYCODE, "skeleton matches protected domain",
            _to_punycode(label),
        )
    return DisplayVerdict(DisplayDecision.UNICODE, "", label)


def _to_punycode(label: str) -> str:
    try:
        return "xn--" + punycode.encode(label.casefold())
    except PunycodeError:
        return label


def decide_domain_display(
    domain: str,
    protected: tuple[str, ...] = ("paypal", "google", "apple", "amazon"),
) -> DisplayVerdict:
    """Apply the per-label policy across a whole domain name."""
    protected_skeletons = frozenset(skeleton(name) for name in protected)
    displayed_labels: list[str] = []
    worst = DisplayVerdict(DisplayDecision.UNICODE)
    for label in domain.split("."):
        verdict = decide_label_display(label, protected_skeletons)
        displayed_labels.append(verdict.displayed or label)
        if verdict.decision is not DisplayDecision.UNICODE:
            worst = verdict
    return DisplayVerdict(
        worst.decision, worst.reason, ".".join(displayed_labels)
    )
