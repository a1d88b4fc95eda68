"""Decode sub-stage microbenchmark: where ``Certificate.from_der`` spends.

Generates one seeded corpus, keeps each certificate's DER, and times
each decode sub-stage over the whole corpus, ``--reps`` times:

* ``node_walk`` — ``parse_node(der, strict=False)``: the node table;
* ``element_build`` — ``to_element`` over that table: the extra cost
  of ``parse``'s public ``Element`` tree, which decode does not build;
* ``tbs_bytes`` — the TBSCertificate octets taken from the table;
* ``oid_decode`` — ``node_oid`` on every OBJECT IDENTIFIER node;
* ``time_decode`` — ``node_time`` on notBefore and notAfter;
* ``name_decode_x2`` — ``Name.from_node`` on issuer and subject;
* ``from_der`` — the whole ``Certificate.from_der``.

Each repetition yields one µs-per-certificate figure per stage; the run
prints the median and the interquartile range (IQR) across repetitions.
Stages are timed on node tables walked beforehand, so each figure is
that stage alone.

CLI::

    PYTHONPATH=src python benchmarks/bench_decode.py --seed 3 --reps 7
"""

import argparse
import statistics
import time

from repro.asn1.der import node_oid, node_time, parse_node, to_element
from repro.asn1.tags import UniversalTag
from repro.ct.corpus import CorpusGenerator
from repro.x509.certificate import Certificate
from repro.x509.name import Name

#: About 700 certificates, the corpus size of the ``corpus`` workload.
DEFAULT_SCALE = 1 / 50_000


def _oid_nodes(node, out):
    tag, _start, _content_start, _end, children = node
    if tag.number == UniversalTag.OBJECT_IDENTIFIER and not tag.constructed:
        out.append(node)
    for child in children:
        _oid_nodes(child, out)
    return out


def _tbs_fields(tbs):
    fields = tbs[4]
    first = fields[0][0]
    index = 1 if first.number == 0 and first.constructed else 0
    validity = fields[index + 3][4]
    return (fields[index + 2], fields[index + 4]), (validity[0], validity[1])


def stages(ders):
    """The timed sub-stages: name -> callable doing one corpus pass."""
    roots = [parse_node(der, strict=False) for der in ders]
    tbses = [root[4][0] for root in roots]
    oids = [_oid_nodes(root, []) for root in roots]
    fields = [_tbs_fields(tbs) for tbs in tbses]
    names = [pair for pair, _times in fields]
    times = [pair for _names, pair in fields]

    def node_walk():
        for der in ders:
            parse_node(der, strict=False)

    def element_build():
        for der, root in zip(ders, roots):
            to_element(der, root)

    def tbs_bytes():
        for der, tbs in zip(ders, tbses):
            der[tbs[1] : tbs[3]]

    def oid_decode():
        for der, nodes in zip(ders, oids):
            for node in nodes:
                node_oid(der, node)

    def time_decode():
        for der, (not_before, not_after) in zip(ders, times):
            node_time(der, not_before)
            node_time(der, not_after)

    def name_decode_x2():
        for der, (issuer, subject) in zip(ders, names):
            Name.from_node(der, issuer, strict=False)
            Name.from_node(der, subject, strict=False)

    def from_der():
        for der in ders:
            Certificate.from_der(der)

    return {
        "node_walk": node_walk,
        "element_build": element_build,
        "tbs_bytes": tbs_bytes,
        "oid_decode": oid_decode,
        "time_decode": time_decode,
        "name_decode_x2": name_decode_x2,
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
