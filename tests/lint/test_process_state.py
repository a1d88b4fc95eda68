"""Worker entry points leave process-wide state as they found it.

The pool builds the registry snapshot, its :class:`RegistryIndex` and
the compiled plan before it starts workers, and every worker inherits
them: copy-on-write under fork, rebuilt under spawn.  A worker that
writes a module-level dict, list or set, or rebinds a module global,
makes each process diverge from the others, and the serial and pool
paths can then disagree on inputs no fixture happens to hit.  The one
container a worker may write is a :class:`repro.memo.ProcessMemo`,
whose entries change speed, never an answer.

The test imports every ``repro`` module, records each module global
and a fingerprint of each container it holds, drives every worker
entry point in-process, and asserts that nothing it recorded changed.
"""

import importlib
import pkgutil
import types

import pytest

import repro
from repro.ct import CorpusGenerator
from repro.engine import increment_pairs
from repro.fuzz.oracle import baseline_specs, evaluate_batch_timed
from repro.lint import REGISTRY, index_for
from repro.lint.parallel import (
    ShardOutput,
    _WORKER_STORES,
    _warm_worker,
    build_pair_shard_tasks,
    build_store_shard_tasks,
    lint_shard,
)
from repro.memo import ProcessMemo

#: Holder types fingerprinted: the mutable containers, and tuples,
#: which can hold them.
_WATCHED = (dict, list, set, tuple)


def _repro_modules() -> list[types.ModuleType]:
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] == "__main__":
            continue  # importing it runs the CLI
        modules.append(importlib.import_module(info.name))
    return modules


def _fingerprint(value, seen: set) -> object:
    """The identities ``value`` holds, following nested containers.

    Identity, not equality: a worker that stores an equal but new
    object has still written.  A ``ProcessMemo`` is recorded by identity
    only, so its entries may change.
    """
    if isinstance(value, ProcessMemo) or id(value) in seen:
        return id(value)
    if isinstance(value, dict):
        seen.add(id(value))
        items = tuple((id(key), _fingerprint(item, seen)) for key, item in value.items())
        return (id(value), items)
    if isinstance(value, (list, tuple)):
        seen.add(id(value))
        return (id(value), tuple(_fingerprint(item, seen) for item in value))
    if isinstance(value, (set, frozenset)):
        return frozenset(map(id, value))
    return id(value)


def _attributes(obj) -> dict:
    state = dict(getattr(obj, "__dict__", {}))
    for name in getattr(type(obj), "__slots__", ()):
        if hasattr(obj, name):
            state[name] = getattr(obj, name)
    return state


def _snapshot(modules, shared) -> tuple[dict, dict]:
    """``(globals, containers)``: each module global's identity, and a
    fingerprint of each container held by a module global, by a class
    attribute of a class the module defines, or by an attribute of a
    ``shared`` instance."""
    bindings: dict[str, int] = {}
    holders: dict[str, object] = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            label = f"{module.__name__}.{name}"
            bindings[label] = id(value)
            holders[label] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if not attr.startswith("__"):
                        holders[f"{label}.{attr}"] = member
    for label, obj in shared.items():
        for name, value in _attributes(obj).items():
            holders[f"{label}.{name}"] = value
    seen: set = set()
    containers = {
        label: _fingerprint(value, seen)
        for label, value in holders.items()
        if isinstance(value, _WATCHED) and not isinstance(value, ProcessMemo)
    }
    return bindings, containers


def _changes(before, after) -> list[str]:
    changed = []
    for kind, old, new in (("global", before[0], after[0]),
                           ("container", before[1], after[1])):
        for label in sorted(old.keys() | new.keys()):
            if old.get(label) != new.get(label):
                changed.append(f"{kind} {label}")
    return changed


def _shared_instances() -> dict:
    index = index_for(REGISTRY.snapshot())
    return {
        "REGISTRY": REGISTRY,
        "RegistryIndex": index,
        "CompiledPlan": index.compiled_plan(),
    }


class TestSnapshot:
    """The guard itself: it sees a write and forgives a memo."""

    def _module(self):
        module = types.ModuleType("planted")
        module.TABLE = {"a": [1]}
        module.MEMO = ProcessMemo(4)
        module.COUNT = 1000
        return module

    def test_memo_writes_pass(self):
        module = self._module()
        before = _snapshot([module], {})
        module.MEMO["key"] = object()
        assert _changes(before, _snapshot([module], {})) == []

    @pytest.mark.parametrize("write", [
        lambda m: m.TABLE.__setitem__("b", 2),
        lambda m: m.TABLE["a"].append(2),
        lambda m: m.TABLE.__setitem__("a", [1]),
    ])
    def test_container_writes_are_caught(self, write):
        module = self._module()
        before = _snapshot([module], {})
        write(module)
        assert _changes(before, _snapshot([module], {})) == ["container planted.TABLE"]

    def test_rebinding_is_caught(self):
        module = self._module()
        before = _snapshot([module], {})
        module.COUNT = module.COUNT + 1
        assert _changes(before, _snapshot([module], {})) == ["global planted.COUNT"]

    def test_shared_instance_attributes_are_watched(self):
        shared = _shared_instances()
        _, containers = _snapshot([], shared)
        assert "CompiledPlan.passed" in containers
        assert "REGISTRY._lints" in containers


def test_worker_entry_points_leave_process_state_unchanged(tmp_path):
    corpus = CorpusGenerator(seed=11, scale=1 / 40000).generate()
    pairs = increment_pairs(corpus)
    # A record no parser accepts takes the failure path of the loop.
    pairs.insert(len(pairs) // 2, (b"\x30\x03\x02\x01\x00", None))
    store_path = corpus.to_store(tmp_path / "corpus.rcs")
    tasks = []
    for output in ShardOutput:
        tasks += build_pair_shard_tasks(pairs, 3, output=output, collect_facts=True)
        tasks += build_store_shard_tasks(store_path, len(corpus.records), 3, output=output)
    tasks += build_pair_shard_tasks(pairs, 2, respect_effective_dates=False)
    specs = baseline_specs()
    modules = _repro_modules()
    shared = _shared_instances()

    before = _snapshot(modules, shared)
    try:
        _warm_worker()
        results = [lint_shard(task) for task in tasks]
        evaluate_batch_timed(specs)
        after = _snapshot(modules, shared)
    finally:
        _WORKER_STORES.clear()  # close the store the substrate tasks opened

    assert all(result.error is None for result in results)
    assert sum(result.count for result in results) > 4 * len(corpus.records)
    assert len(before[1]) > 200, "the guard watches too few containers"
    assert _changes(before, after) == []
