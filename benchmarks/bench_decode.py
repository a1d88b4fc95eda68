"""Decode sub-stage microbenchmark: where ``Certificate.from_der`` spends.

Generates one seeded corpus, keeps each certificate's DER, and times
each decode sub-stage over the whole corpus, ``--reps`` times:

* ``tlv_walk`` — ``parse(der, strict=False)``: the element tree;
* ``tbs_bytes`` — the TBSCertificate octets taken from the tree;
* ``oid_decode`` — ``decode_oid`` on every OBJECT IDENTIFIER in the tree;
* ``time_decode`` — ``decode_time`` on notBefore and notAfter;
* ``name_parse_x2`` — ``Name.parse`` on issuer and subject;
* ``from_der`` — the whole ``Certificate.from_der``.

Each repetition yields one µs-per-certificate figure per stage; the run
prints the median and the interquartile range (IQR) across repetitions.
Stages are timed on trees parsed beforehand, so each figure is that
stage alone.

CLI::

    PYTHONPATH=src python benchmarks/bench_decode.py --seed 3 --reps 7
"""

import argparse
import statistics
import time

from repro.asn1 import UniversalTag, decode_oid, decode_time, parse
from repro.ct import CorpusGenerator
from repro.x509 import Certificate, Name

#: About 700 certificates, the corpus size of the ``corpus`` workload.
DEFAULT_SCALE = 1 / 50_000


def _oid_elements(element, out):
    if element.tag.number == UniversalTag.OBJECT_IDENTIFIER and not element.tag.constructed:
        out.append(element)
    for child in element.children:
        _oid_elements(child, out)
    return out


def _tbs_fields(tbs):
    index = 1 if tbs.children[0].tag.number == 0 and tbs.children[0].tag.constructed else 0
    validity = tbs.children[index + 3]
    return (
        (tbs.children[index + 2], tbs.children[index + 4]),
        (validity.children[0], validity.children[1]),
    )


def stages(ders):
    """The timed sub-stages: name -> callable doing one corpus pass."""
    roots = [parse(der, strict=False) for der in ders]
    tbses = [root.children[0] for root in roots]
    oids = [_oid_elements(root, []) for root in roots]
    fields = [_tbs_fields(tbs) for tbs in tbses]
    names = [pair for pair, _times in fields]
    times = [pair for _names, pair in fields]

    def tlv_walk():
        for der in ders:
            parse(der, strict=False)

    def tbs_bytes():
        for der, tbs in zip(ders, tbses):
            der[tbs.offset : tbs.end]

    def oid_decode():
        for elements in oids:
            for element in elements:
                decode_oid(element)

    def time_decode():
        for not_before, not_after in times:
            decode_time(not_before)
            decode_time(not_after)

    def name_parse_x2():
        for issuer, subject in names:
            Name.parse(issuer, strict=False)
            Name.parse(subject, strict=False)

    def from_der():
        for der in ders:
            Certificate.from_der(der)

    return {
        "tlv_walk": tlv_walk,
        "tbs_bytes": tbs_bytes,
        "oid_decode": oid_decode,
        "time_decode": time_decode,
        "name_parse_x2": name_parse_x2,
        "from_der": from_der,
    }


def measure(ders, reps: int) -> dict[str, tuple[float, float]]:
    """``{stage: (median, iqr)}`` in µs per certificate over ``reps`` passes."""
    samples: dict[str, list[float]] = {}
    timed = stages(ders)
    for _rep in range(reps):
        for name, run in timed.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            samples.setdefault(name, []).append(elapsed / len(ders) * 1e6)
    result = {}
    for name, values in samples.items():
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        result[name] = (statistics.median(values), q3 - q1)
    return result


def render(result: dict[str, tuple[float, float]], count: int, reps: int) -> list[str]:
    lines = [f"decode sub-stages over {count} certificates, {reps} repetitions (µs/cert)"]
    lines.append(f"{'stage':<14} {'median':>9} {'IQR':>8}")
    for name, (median, iqr) in result.items():
        lines.append(f"{name:<14} {median:>9.1f} {iqr:>8.1f}")
    return lines


def corpus_ders(seed: int, scale: float) -> list[bytes]:
    corpus = CorpusGenerator(seed=seed, scale=scale).generate()
    return [record.certificate.to_der() for record in corpus.records]


def test_decode_stages():
    ders = corpus_ders(seed=3, scale=1 / 500_000)
    result = measure(ders, reps=3)
    assert set(result) == set(stages(ders))
    assert all(median > 0 for median, _iqr in result.values())
    print("\n" + "\n".join(render(result, len(ders), 3)))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    ders = corpus_ders(args.seed, args.scale)
    print("\n".join(render(measure(ders, args.reps), len(ders), args.reps)))


if __name__ == "__main__":
    main()
