"""Lint sub-stage microbenchmark: where ``run_lints`` spends.

Generates one seeded corpus, keeps each certificate's DER, and times
each lint sub-stage over the whole corpus, ``--reps`` times:

* ``views_families`` — a new ``LintContext`` and its ``families()`` on
  freshly decoded certificates: the SAN/IAN/extension views, the DN
  attribute scans, the DNS-name and A-label lists;
* ``scope_masks_cold`` — every scope mask the compiled dispatch would
  resolve, with the process-wide string memos cleared first (the state
  of every ``corpus`` operation's fresh worker);
* ``scope_masks_warm`` — the same with the memos already filled;
* ``xn_analysis`` — the per-A-label IDN analysis behind the ``xn``
  scope, memo cleared: decode, permitted check, NFC and round-trip;
* ``dispatch`` — ``run_lints`` with warm memos on certificates whose
  views are built: the dispatch loop with its checks (scope masks warm);
* ``run_lints_cold`` — the whole ``run_lints`` on freshly decoded
  certificates with the memos cleared.

Each repetition yields one µs-per-certificate figure per stage; the run
prints the median and the interquartile range (IQR) across repetitions.
Certificates are decoded beforehand, untimed, so each figure is that
stage alone.

CLI::

    PYTHONPATH=src python benchmarks/bench_lint_stage.py --seed 3 --reps 7
"""

import argparse
import statistics
import time

from repro.ct import CorpusGenerator
from repro.lint import compiled
from repro.lint.context import LintContext
from repro.lint.framework import REGISTRY, index_for
from repro.lint.runner import run_lints
from repro.x509 import Certificate, cache

#: About 700 certificates, the corpus size of the ``corpus`` workload.
DEFAULT_SCALE = 1 / 50_000

#: The process-wide memos a fresh lint worker starts without.
_MEMOS = (
    compiled._STRING_MASKS,
    compiled._CHAR_MASKS,
    compiled._DNS_MASKS,
    compiled._EMAIL_MASKS,
    compiled._URI_MASKS,
    compiled._XN_MASKS,
    cache._CHAR_SETS,
)


def clear_memos() -> None:
    for memo in _MEMOS:
        memo.clear()


def _fresh(ders):
    return [Certificate.from_der(der) for der in ders]


def _scope_plan(plan, ctx) -> list:
    """The scopes the compiled dispatch resolves for one certificate."""
    present = ctx.families()
    scopes = []
    for _lint, families, scope, _trigger, _mode in plan.entries:
        if scope is None or (families is not None and families.isdisjoint(present)):
            continue
        if scope not in scopes:
            scopes.append(scope)
    return scopes


def stages(ders, issued):
    """The timed sub-stages: name -> ``(prepare, run)``.

    ``prepare`` runs untimed before each timed ``run`` and returns its
    argument.
    """
    index = index_for(REGISTRY.snapshot())
    plan = index.compiled_plan()
    resolve = plan.resolve_scope

    def fresh_contexts():
        certs = _fresh(ders)
        contexts = [LintContext(cert) for cert in certs]
        return [(cert, ctx, _scope_plan(plan, ctx)) for cert, ctx in zip(certs, contexts)]

    def views_families(certs):
        for cert in certs:
            LintContext(cert).families()

    def scope_masks(prepared):
        for cert, ctx, scopes in prepared:
            masks: dict = {}
            for scope in scopes:
                if scope not in masks:
                    resolve(scope, cert, ctx, masks)

    def cold_contexts():
        prepared = fresh_contexts()
        clear_memos()
        return prepared

    def warm_contexts():
        prepared = fresh_contexts()
        scope_masks(fresh_contexts())
        return prepared

    def xn_labels():
        labels = [LintContext(cert).xn_labels() for cert in _fresh(ders)]
        compiled._XN_MASKS.clear()
        return labels

    def xn_analysis(labels):
        for cert_labels in labels:
            for label in cert_labels:
                compiled._xn_label_mask(label)

    def warm_certs():
        certs = _fresh(ders)
        for cert in certs:
            LintContext(cert).families()
        for cert, when in zip(certs, issued):
            run_lints(cert, issued_at=when, index=index)
        return certs

    def lint_all(certs):
        for cert, when in zip(certs, issued):
            run_lints(cert, issued_at=when, index=index)

    def cold_certs():
        certs = _fresh(ders)
        clear_memos()
        return certs

    return {
        "views_families": (lambda: _fresh(ders), views_families),
        "scope_masks_cold": (cold_contexts, scope_masks),
        "scope_masks_warm": (warm_contexts, scope_masks),
        "xn_analysis": (xn_labels, xn_analysis),
        "dispatch": (warm_certs, lint_all),
        "run_lints_cold": (cold_certs, lint_all),
    }


def measure(ders, issued, reps: int) -> dict[str, tuple[float, float]]:
    """``{stage: (median, iqr)}`` in µs per certificate over ``reps`` passes."""
    samples: dict[str, list[float]] = {}
    timed = stages(ders, issued)
    for _rep in range(reps):
        for name, (prepare, run) in timed.items():
            argument = prepare()
            start = time.perf_counter()
            run(argument)
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
    lines = [f"lint sub-stages over {count} certificates, {reps} repetitions (µs/cert)"]
    lines.append(f"{'stage':<17} {'median':>9} {'IQR':>8}")
    for name, (median, iqr) in result.items():
        lines.append(f"{name:<17} {median:>9.1f} {iqr:>8.1f}")
    return lines


def corpus_inputs(seed: int, scale: float) -> tuple[list[bytes], list]:
    corpus = CorpusGenerator(seed=seed, scale=scale).generate()
    ders = [record.certificate.to_der() for record in corpus.records]
    return ders, [record.issued_at for record in corpus.records]


def test_lint_stages():
    ders, issued = corpus_inputs(seed=3, scale=1 / 500_000)
    result = measure(ders, issued, reps=3)
    assert set(result) == set(stages(ders, issued))
    assert all(median > 0 for median, _iqr in result.values())
    print("\n" + "\n".join(render(result, len(ders), 3)))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    ders, issued = corpus_inputs(args.seed, args.scale)
    print("\n".join(render(measure(ders, issued, args.reps), len(ders), args.reps)))


if __name__ == "__main__":
    main()
