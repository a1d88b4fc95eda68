"""Browser certificate-rendering models and user-spoofing (Appendix F.1).

Each browser model implements a certificate-viewer *rendering policy*
(how C0/C1 controls, invisible layout characters, homographs, and
substitutions are displayed) plus the warning-page identity selection —
the Table 14 feature matrix, executable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..uni.confusables import BIDI_CONTROLS, INVISIBLE_CHARACTERS, mixed_script_confusable
from ..x509.certificate import Certificate


def apply_bidi_overrides(text: str) -> str:
    """Render text the way a bidi-unaware display would show it.

    Minimal model of the RLO/PDF trick: characters between U+202E
    (RIGHT-TO-LEFT OVERRIDE) and U+202C (POP DIRECTIONAL FORMATTING)
    appear reversed; the controls themselves are invisible.
    """
    out: list[str] = []
    stack: list[list[str]] = []
    for ch in text:
        if ch == "‮":
            stack.append([])
        elif ch == "‬" and stack:
            segment = stack.pop()
            target = stack[-1] if stack else out
            target.extend(reversed(segment))
        elif stack:
            stack[-1].append(ch)
        elif ord(ch) in BIDI_CONTROLS or ord(ch) in INVISIBLE_CHARACTERS:
            continue  # Invisible either way.
        else:
            out.append(ch)
    while stack:
        segment = stack.pop()
        target = stack[-1] if stack else out
        target.extend(reversed(segment))
    return "".join(out)


@dataclass(frozen=True)
class BrowserProfile:
    """Rendering policy of one browser family (Table 14)."""

    name: str
    kernel: str
    #: How C0/C1 controls render: "marker" (visible placeholder),
    #: "raw" (passed to the text stack), or "strip".
    c0_rendering: str = "marker"
    #: Invisible layout controls (U+2000-206F) are shown.
    layout_controls_visible: bool = False
    #: The viewer detects confusable homographs.
    homograph_detection: bool = False
    #: Equivalent-character substitution is applied *correctly*.
    substitution_correct: bool = False
    #: ASN.1 string range checking before display.
    asn1_range_check: bool = False
    #: Which identity feeds the warning page ("subject" or "san").
    warning_identity: str = "subject"
    #: Whether the warning page neutralizes bidi/invisible controls by
    #: rendering visible placeholders (Safari's defence in Table 14).
    warning_escapes_controls: bool = False

    # -- rendering -----------------------------------------------------

    def render_value(self, text: str) -> str:
        """Display string for one certificate field."""
        out: list[str] = []
        for ch in text:
            cp = ord(ch)
            if cp < 0x20 or cp == 0x7F or 0x80 <= cp <= 0x9F:
                if self.c0_rendering == "marker":
                    out.append("␀" if cp == 0 else "�")
                elif self.c0_rendering == "raw":
                    out.append(ch)
                # "strip": drop entirely.
                continue
            if not self.substitution_correct and cp == 0x037E:
                # Greek question mark substituted as a semicolon (G1.2).
                out.append(";")
                continue
            out.append(ch)
        rendered = "".join(out)
        if not self.layout_controls_visible:
            rendered = apply_bidi_overrides(rendered)
        return rendered

    def flags_homograph(self, text: str) -> bool:
        return self.homograph_detection and mixed_script_confusable(text)

    # -- viewer components (Table 14 "Components" column) ---------------

    def components(self) -> tuple[str, ...]:
        """The certificate-viewer components this browser exposes.

        Firefox/Safari split the viewer into a digest/details pane plus
        a general summary; Chromium renders all parts with one policy.
        """
        if self.kernel in ("Gecko", "Webkit"):
            return ("digest", "details", "general")
        return ("all",)

    def render_component(self, text: str, component: str = "digest") -> str | None:
        """Render a field value in one viewer component.

        The general summary of Firefox/Safari shows only hostname-like
        identities and returns ``None`` for other values ("-" cells in
        Table 14); digest/details apply the full rendering policy.
        """
        if component not in self.components() and self.components() != ("all",):
            raise ValueError(f"{self.name} has no {component!r} component")
        if component == "general" and self.kernel in ("Gecko", "Webkit"):
            if " " in text or any(ord(ch) < 0x20 for ch in text):
                return None  # not rendered in the summary pane
        return self.render_value(text)

    # -- warning pages ----------------------------------------------------

    def warning_page_identity(self, cert: Certificate) -> str:
        """The identity string the connection-warning page displays."""
        if self.warning_identity == "san":
            names = cert.san_dns_names
            value = names[0] if names else (cert.subject_common_names or [""])[0]
        else:
            value = (cert.subject_common_names or [""])[0]
        if self.warning_escapes_controls:
            value = "".join(
                "�"
                if ord(ch) in BIDI_CONTROLS or ord(ch) in INVISIBLE_CHARACTERS
                else ch
                for ch in value
            )
        return self.render_value(value)

    def spoof_feasible(self, cert: Certificate) -> bool:
        """Whether a crafted cert renders as a different *clean* identity.

        The displayed string must differ from the raw value (the trick
        worked) without any visible anomaly marker that would tip the
        user off (�/␀ placeholders defeat the spoof).
        """
        raw = (cert.subject_common_names or [""])[0]
        displayed = self.warning_page_identity(cert)
        if displayed == raw:
            return False
        if "�" in displayed or "␀" in displayed:
            return False
        return not self.flags_homograph(displayed)


FIREFOX = BrowserProfile(
    name="Firefox",
    kernel="Gecko",
    c0_rendering="raw",  # robust but potentially insecure rendering
    warning_identity="san",
    asn1_range_check=False,
)
SAFARI = BrowserProfile(
    name="Safari",
    kernel="Webkit",
    c0_rendering="marker",
    warning_identity="subject",
    asn1_range_check=False,
    warning_escapes_controls=True,
)
CHROMIUM = BrowserProfile(
    name="Chromium-based",
    kernel="Blink",
    c0_rendering="marker",
    warning_identity="subject",
    asn1_range_check=True,  # Table 14: flawed-range-check column is ✗
)

ALL_BROWSERS = [FIREFOX, SAFARI, CHROMIUM]


def chrome_warning_spoof_demo() -> tuple[str, str]:
    """The paper's Figure 7 example: RLO makes lapyap read as paypal."""
    crafted = "www.‮lapyap‬.com"
    return crafted, CHROMIUM.render_value(crafted)


#: The Table 14 result columns, in paper order.
TABLE14_COLUMNS = (
    "c0_c1_visible",
    "layout_controls_visible",
    "homograph_feasible",
    "incorrect_substitution",
    "flawed_asn1_range_check",
    "warning_spoof_feasible",
)


def derive_browser_matrix(
    browsers: list[BrowserProfile] | None = None,
) -> dict[str, dict[str, bool]]:
    """Re-derive Table 14 by rendering crafted Unicerts (black-box)."""
    import datetime as dt

    from ..x509.builder import CertificateBuilder
    from ..x509.keys import generate_keypair

    key = generate_keypair(seed="browser-probe")
    bidi_cert = (
        CertificateBuilder()
        .subject_cn("www.‮lapyap‬.com")
        .not_before(dt.datetime(2024, 1, 1))
        .sign(key)
    )
    matrix: dict[str, dict[str, bool]] = {}
    for browser in browsers if browsers is not None else ALL_BROWSERS:
        rendered_c0 = browser.render_value("evil\x01entity")
        rendered_layout = browser.render_value("pay​pal")  # ZWSP
        results = {
            # Controls are "visible" when the display differs from the
            # clean text (markers or raw control characters survive).
            "c0_c1_visible": rendered_c0 != "evilentity",
            "layout_controls_visible": rendered_layout != "paypal",
            "homograph_feasible": not browser.flags_homograph("gооgle"),
            "incorrect_substitution": browser.render_value("a;b") == "a;b",
            "flawed_asn1_range_check": not browser.asn1_range_check,
            "warning_spoof_feasible": browser.spoof_feasible(bidi_cert),
        }
        matrix[browser.name] = results
    return matrix
