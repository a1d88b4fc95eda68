"""The committed witness corpus: minimized reproducers CI replays forever.

Every novel disagreement cell a campaign discovers is persisted as one
JSON witness file carrying the full reproduction recipe:

* the minimized mutant (context, field, declared tag, content octets);
* a complete test certificate (base64 DER) embedding those octets in
  the mutated field, so any external tool can consume the reproducer;
* the expected scenario fingerprint and nine-library outcome vector.

Replaying a witness re-extracts the content octets *from the DER* (not
from the stored value — the certificate is the artifact of record),
re-runs the differential oracle, and verifies both the octet round-trip
and the recorded cell.  File names are derived from the cell hash, so a
witness directory is content-addressed and two campaigns that discover
the same cell write byte-identical files.
"""

from __future__ import annotations

import base64
import datetime as _dt
import hashlib
import json
import os
from dataclasses import dataclass, field

from ..asn1.strings import spec_for_tag
from ..asn1.oid import OID_COMMON_NAME
from ..x509.builder import CertificateBuilder
from ..x509.certificate import Certificate
from ..x509.extensions import subject_alt_name
from ..x509.general_name import GeneralName, GeneralNameKind
from ..x509.keys import generate_keypair
from .mutators import MutantSpec
from .oracle import LIBRARIES, Observation, evaluate

#: Format version of the witness JSON schema.
WITNESS_VERSION = 1

#: GeneralName kind per SAN field label.
_GN_KINDS = {
    "san:dns": GeneralNameKind.DNS_NAME,
    "san:rfc822": GeneralNameKind.RFC822_NAME,
    "san:uri": GeneralNameKind.URI,
}

#: Deterministic signing key for witness certificates.
_WITNESS_KEY_SEED = "repro.fuzz:witness"


def cell_hash(observation: Observation) -> str:
    """Content address of a coverage cell (16 hex chars of SHA-256)."""
    payload = json.dumps(
        [list(observation.fingerprint[:2]), list(observation.fingerprint[2]),
         list(observation.vector)],
        separators=(",", ":"),
    ).encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:16]


def build_witness_der(spec: MutantSpec) -> bytes:
    """Render a full test certificate embedding the mutant's octets.

    Follows the paper's construction rule (iii): every field except the
    mutated one stays at a compliant default.  DN mutants inject the
    raw content octets under the declared tag via the builder's ``raw``
    path; GN mutants inject them as the content of an IMPLICIT
    IA5String alternative.
    """
    key = generate_keypair(seed=_WITNESS_KEY_SEED)
    builder = (
        CertificateBuilder()
        .serial(4096)
        .not_before(_dt.datetime(2024, 1, 1))
        .validity_days(90)
    )
    if spec.context == "dn":
        builder.subject_attr(
            OID_COMMON_NAME,
            spec.value.decode("latin-1"),
            spec_for_tag(spec.tag),
            raw=spec.value,
        )
        builder.add_extension(subject_alt_name(GeneralName.dns("test.com")))
    else:
        kind = _GN_KINDS.get(spec.field, GeneralNameKind.DNS_NAME)
        builder.subject_cn("test.com")
        builder.add_extension(
            subject_alt_name(
                GeneralName(
                    kind=kind,
                    value=spec.value.decode("latin-1"),
                    raw=spec.value,
                )
            )
        )
    return builder.sign(key).to_der()


def extract_spec(der: bytes, context: str, field_label: str) -> MutantSpec:
    """Re-derive the mutant spec from a witness certificate's DER."""
    cert = Certificate.from_der(der, strict=False)
    if context == "dn":
        attr = cert.subject.attributes()[0]
        raw = attr.raw if attr.raw is not None else attr.spec.encode(
            attr.value, strict=False
        )
        return MutantSpec(
            context="dn", field=field_label, tag=attr.spec.tag_number, value=raw
        )
    san = cert.san
    if san is None or not san.names:
        raise ValueError("witness certificate carries no SAN")
    gn = san.names[0]
    return MutantSpec(
        context="gn",
        field=field_label,
        tag=int(gn.spec.tag_number),
        value=gn.raw or b"",
    )


@dataclass(frozen=True)
class Witness:
    """One minimized discrepancy reproducer (the on-disk unit)."""

    cell: str  # cell_hash of (fingerprint, vector)
    context: str
    field: str
    tag: int
    spec_name: str
    classes: tuple[str, ...]
    vector: tuple[str, ...]  # aligned with LIBRARIES
    value: bytes  # minimized content octets
    der: bytes  # full witness certificate
    ops: tuple[str, ...] = ()  # surviving mutation op names
    campaign_seed: int | None = None

    @property
    def filename(self) -> str:
        """Content-addressed file name inside a witness directory."""
        return f"cell-{self.cell}.json"

    def to_dict(self) -> dict:
        """The JSON document written to disk (stable key order)."""
        return {
            "version": WITNESS_VERSION,
            "cell": self.cell,
            "context": self.context,
            "field": self.field,
            "tag": self.tag,
            "spec_name": self.spec_name,
            "classes": list(self.classes),
            "vector": {lib: sym for lib, sym in zip(LIBRARIES, self.vector)},
            "value_b64": base64.b64encode(self.value).decode("ascii"),
            "der_b64": base64.b64encode(self.der).decode("ascii"),
            "ops": list(self.ops),
            "campaign_seed": self.campaign_seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Witness":
        """Parse one witness document (inverse of :meth:`to_dict`)."""
        return cls(
            cell=doc["cell"],
            context=doc["context"],
            field=doc["field"],
            tag=doc["tag"],
            spec_name=doc["spec_name"],
            classes=tuple(doc["classes"]),
            vector=tuple(doc["vector"][lib] for lib in LIBRARIES),
            value=base64.b64decode(doc["value_b64"]),
            der=base64.b64decode(doc["der_b64"]),
            ops=tuple(doc.get("ops", ())),
            campaign_seed=doc.get("campaign_seed"),
        )


def witness_from_spec(
    spec: MutantSpec,
    observation: Observation,
    campaign_seed: int | None = None,
) -> Witness:
    """Package a minimized spec + observation into a Witness."""
    return Witness(
        cell=cell_hash(observation),
        context=spec.context,
        field=spec.field,
        tag=int(spec.tag),
        spec_name=observation.fingerprint[1],
        classes=observation.fingerprint[2],
        vector=observation.vector,
        value=spec.value,
        der=build_witness_der(spec),
        ops=spec.ops,
        campaign_seed=campaign_seed,
    )


def write_witness(directory: str, witness: Witness) -> str:
    """Write one witness file (stable JSON rendering); returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, witness.filename)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(witness.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_witnesses(directory: str) -> list[Witness]:
    """Load every ``cell-*.json`` witness in a directory (sorted by name)."""
    witnesses: list[Witness] = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("cell-") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name), encoding="ascii") as handle:
            witnesses.append(Witness.from_dict(json.load(handle)))
    return witnesses


@dataclass
class ReplayResult:
    """Outcome of replaying one witness against the live profiles."""

    witness: Witness
    ok: bool
    problems: list[str] = field(default_factory=list)


def replay_witness(witness: Witness) -> ReplayResult:
    """Re-run one witness end to end: DER → octets → oracle → cell."""
    problems: list[str] = []
    try:
        spec = extract_spec(witness.der, witness.context, witness.field)
    except (ValueError, IndexError) as exc:
        return ReplayResult(witness, False, [f"DER extraction failed: {exc}"])
    if spec.value != witness.value:
        problems.append(
            "content octets changed across the DER round-trip "
            f"({spec.value!r} != {witness.value!r})"
        )
    observation = evaluate(spec)
    if observation.vector != witness.vector:
        problems.append(
            f"outcome vector drifted: {observation.vector} != {witness.vector}"
        )
    if observation.fingerprint[2] != witness.classes:
        problems.append(
            f"fingerprint drifted: {observation.fingerprint[2]} != {witness.classes}"
        )
    if cell_hash(observation) != witness.cell:
        problems.append("cell hash mismatch")
    return ReplayResult(witness, not problems, problems)


def replay_witnesses(directory: str) -> list[ReplayResult]:
    """Replay a whole witness directory (sorted, deterministic order)."""
    return [replay_witness(w) for w in load_witnesses(directory)]
