"""repro.fuzz — coverage-guided differential fuzzing of the parser models.

The subsystem the paper's hand-built Tables 4/5 matrices grow into: a
mutation engine over the paper's Unicode/encoding dimensions
(:mod:`~repro.fuzz.mutators`), a differential oracle that scores each
mutant by behaviour-matrix novelty across all nine library profiles
(:mod:`~repro.fuzz.oracle`), a delta-debug minimizer
(:mod:`~repro.fuzz.minimize`), a committed witness corpus with full-DER
reproducers CI replays forever (:mod:`~repro.fuzz.witness`), and the
deterministic campaign driver behind ``repro fuzz``
(:mod:`~repro.fuzz.campaign`).

Campaigns are replayable: the only randomness is one explicitly seeded
``random.Random`` in the parent process, so the same ``--seed`` and
``--budget`` produce byte-identical witness corpora at any ``--jobs``.
"""
