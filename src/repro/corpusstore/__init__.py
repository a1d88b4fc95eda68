"""Memory-mapped columnar corpus substrate (the zero-copy corpus form).

The parallel lint pipeline used to pickle every shard's DER blobs into
its worker tasks — O(shard bytes) of serialization per task, which at
``--jobs 4`` cost more than the lint work it parallelized.  A substrate
file stores the whole corpus once — one contiguous DER region plus a
fixed-width offset/length index and an issued-at column — and workers
``mmap`` it, so a shard task is just ``(path, start, stop)`` and the
corpus bytes flow to workers through the page cache instead of pipes.
This is the shape bulk X.509 measurement tooling scales with (ParsEval's
sharded parser evaluation, CT log processing): share the bytes, copy
nothing.

Public surface:

* :func:`write_store` — serialize a ``Corpus`` / record list /
  ``(der, issued_at)`` pairs to one substrate file;
* :class:`CorpusStore` — the zero-copy reader (``len``, ``der_view``,
  ``der_bytes``, ``issued_at``, ``iter_shard``); engine-compatible, so
  ``Engine.run(store, jobs=N)`` lints straight off the mapping;
* :class:`CorpusStoreError` — the structured failure taxonomy
  (``bad_magic`` / ``truncated`` / ``corrupt_index`` / ...);
* :class:`SegmentWriter` / :class:`SegmentedCorpusStore` — append-only
  segment chains for streaming ingest (one atomic substrate file per
  batch, chained back into one logical store), with
  :func:`store_digest` as the checkpointable chain fingerprint.
"""
