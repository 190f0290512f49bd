"""Span tracer for the traced benchmark run.

Spans are recorded from this file only: :func:`instrument` wraps the
public entry points of each layer of ``repro`` (module functions and
class methods) for the duration of one traced round and restores the
originals afterwards.  Nothing in ``src/`` is edited or aware of it.

Each span records its name, start, end and parent span.  Spans stay in
memory as compact columns and are written out once, when the run ends
(:meth:`Tracer.dump`).  Self time — a span's duration minus the part of
it that its child spans cover — is accumulated online per span name, so
the per-layer split needs no pass over the span log.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: Layer names, in report order.  A span name is ``layer:function``.
LAYERS = (
    "harness",
    "sim.events",
    "sim.network",
    "repro._core",
    "crypto",
    "core",
    "smr.replica",
    "smr.client",
    "storage",
    "obs",
    "scenarios",
    "fuzz",
)


class Tracer:
    """In-memory span log plus per-name call counts and self times."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        #: Open spans: [span index, ns covered by finished children].
        self._stack: List[List[int]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        stack = self._stack
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents,
        )
        calls, self_ns = self.calls, self.self_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                ends[index] = end
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def __len__(self) -> int:
        return len(self.starts)

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def layer_self_ns(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for name, ns in zip(self.names, self.self_ns):
            totals[name.split(":", 1)[0]] += ns
        return totals

    def layer_calls(self, layer: str) -> int:
        prefix = layer + ":"
        return sum(
            count for name, count in zip(self.names, self.calls)
            if name.startswith(prefix)
        )

    def dump(self, directory: Path, stem: str, meta: Dict[str, Any]) -> Path:
        """Write the span log: ``<stem>.json`` (names, per-name totals,
        ``meta``) plus one little-endian binary file per column."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name_id": self.name_ids,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
        }
        for column, values in columns.items():
            with open(directory / f"{stem}.{column}.bin", "wb") as handle:
                values.tofile(handle)
        header = {
            "spans": len(self),
            "columns": {c: v.typecode for c, v in columns.items()},
            "names": self.names,
            "calls": dict(zip(self.names, self.calls)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            **meta,
        }
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(header, indent=1, sort_keys=True))
        return path


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _wrap_function(
    tracer: Tracer, patches: Patches, module: Any, attr: str, layer: str
) -> None:
    fn = getattr(module, attr)
    patches.set(module, attr, tracer.wrap(f"{layer}:{fn.__name__}", fn))


def _wrap_method(
    tracer: Tracer, patches: Patches, cls: type, attr: str, layer: str
) -> None:
    raw = cls.__dict__[attr]
    name = f"{layer}:{cls.__name__}.{attr}"
    if isinstance(raw, classmethod):
        patches.set(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
    elif isinstance(raw, staticmethod):
        patches.set(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
    else:
        patches.set(cls, attr, tracer.wrap(name, raw))


def _public_methods(cls: type) -> List[str]:
    """Names of the public plain/class/static methods ``cls`` defines."""
    return [
        attr for attr, raw in vars(cls).items()
        if not attr.startswith("_")
        and (callable(raw) or isinstance(raw, (classmethod, staticmethod)))
        and not isinstance(raw, type)
    ]


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class Capture:
    """Objects a traced round builds, collected for their public counters."""

    def __init__(self) -> None:
        self.clusters: List[Any] = []
        self.registries: List[Any] = []


def instrument(tracer: Tracer) -> Tuple[Patches, Capture]:
    """Install spans on every layer; returns the patches to restore.

    Must run before the round builds its objects: some call targets
    (the network's size function and delivery callback, the registry's
    canonical serializer) are bound when those objects are constructed.
    """
    import repro._core as core_backend
    import repro.baselines  # noqa: F401  (registers Process subclasses)
    import repro.byzantine  # noqa: F401
    import repro.crypto as crypto_pkg
    import repro.crypto.keys as keys
    import repro.fuzz.campaign as campaign
    import repro.fuzz.corpus as corpus
    import repro.obs.recorder as recorder
    import repro.scenarios.adapters as adapters
    import repro.scenarios.runner as scenario_runner
    import repro.scenarios.spec as scenario_spec
    import repro.sim.digest as digest
    import repro.sim.events as events
    import repro.sim.network as network
    import repro.sim.runner as sim_runner
    import repro.smr.replica as replica_module
    import repro.storage.catchup as catchup
    import repro.storage.checkpoint as checkpoint
    import repro.storage.store as store
    import repro.storage.wal as wal
    from repro.sim.process import Process
    from repro.smr.client import SMRClient

    SMRReplica = replica_module.SMRReplica

    patches = Patches()
    capture = Capture()
    fn = lambda module, attr, layer: _wrap_function(  # noqa: E731
        tracer, patches, module, attr, layer
    )
    meth = lambda cls, attr, layer: _wrap_method(  # noqa: E731
        tracer, patches, cls, attr, layer
    )

    # Event loop, and the stop predicate the harness hands it.
    simulator = events.Simulator
    run_until = simulator.__dict__["run_until"]
    predicate_span = "harness:predicate"

    def run_until_with_predicate(sim, predicate, *args, **kwargs):
        return run_until(
            sim, tracer.wrap(predicate_span, predicate), *args, **kwargs
        )

    patches.set(
        simulator, "run_until",
        tracer.wrap("sim.events:Simulator.run_until", run_until_with_predicate),
    )
    for attr in ("run", "step"):
        meth(simulator, attr, "sim.events")

    # Network transport: send/broadcast and delivery, both the fast-path
    # callback and the envelope path taken while an observer is attached.
    for attr in ("send", "broadcast"):
        meth(network.Network, attr, "sim.network")
    patches.set(
        network.Network, "_deliver",
        tracer.wrap("sim.network:Network._deliver",
                    network.Network.__dict__["_deliver"]),
    )
    make_deliver = core_backend.make_deliver
    deliver_span = "sim.network:deliver"
    patches.set(
        core_backend, "make_deliver",
        lambda handlers, stats: tracer.wrap(
            deliver_span, make_deliver(handlers, stats)
        ),
    )

    # Backend hot spots: canonical serialization and payload sizing,
    # patched where each consumer looks them up.
    for module in (core_backend, keys, crypto_pkg, checkpoint):
        fn(module, "canonical_bytes", "repro._core")
    for module in (core_backend, network, digest):
        fn(module, "payload_size", "repro._core")
    fn(core_backend, "payload_size_cached", "repro._core")

    # Crypto: signing, verification, key generation.
    meth(keys.Signer, "sign", "crypto")
    for attr in ("verify", "verify_all", "add_process"):
        meth(keys.KeyRegistry, attr, "crypto")

    # Processes: protocol instances, SMR replicas and clients.
    for cls in _subclasses(Process):
        if issubclass(cls, SMRClient):
            layer = "smr.client"
        elif issubclass(cls, SMRReplica):
            layer = "smr.replica"
        else:
            layer = "core"
        for attr in ("on_start", "on_message", "on_recover", "enter_view", "submit"):
            if attr in vars(cls):
                meth(cls, attr, layer)

    # Durable storage: WAL, checkpoints, catchup, the storage facade
    # (not the message dataclasses, whose ``signing_fields`` belongs to
    # canonicalization), plus the state digest where the replica calls it.
    for cls in (wal.WriteAheadLog, *_subclasses(wal.WriteAheadLog),
                checkpoint.CheckpointManager, catchup.CatchupManager,
                store.ReplicaStorage):
        for attr in _public_methods(cls):
            meth(cls, attr, "storage")
    fn(replica_module, "state_digest", "storage")

    # Flight recorder.
    for attr in _public_methods(recorder.FlightRecorder):
        if attr not in ("dump", "dumps", "to_dicts", "header"):
            meth(recorder.FlightRecorder, attr, "obs")
    for attr in ("attach_observers", "hook_view_changes"):
        fn(recorder, attr, "obs")

    # Scenario engine: adapter build, oracles, coverage, digest, specs.
    for cls in [adapters.ScenarioAdapter, *_subclasses(adapters.ScenarioAdapter)]:
        if "build" in vars(cls):
            meth(cls, "build", "scenarios")
    for attr in ("evaluate_invariants", "collect_coverage", "cluster_digest",
                 "decisions_of", "durable_rejoin_sets"):
        fn(scenario_runner, attr, "scenarios")
    for attr in ("validate", "to_dict", "from_dict"):
        meth(scenario_spec.ScenarioSpec, attr, "scenarios")

    # Fuzz campaign: generator, mutators, signatures, corpus.
    for attr in ("generate_scenario", "mutate", "signature_features",
                 "signature_key"):
        fn(campaign, attr, "fuzz")
    for attr in ("consider", "choose", "stats"):
        meth(corpus.Corpus, attr, "fuzz")

    # Counter sources (no spans): every cluster and key registry built.
    cluster_init = sim_runner.Cluster.__dict__["__init__"]
    registry_init = keys.KeyRegistry.__dict__["__init__"]

    def capturing_cluster_init(self, *args, **kwargs):
        cluster_init(self, *args, **kwargs)
        capture.clusters.append(self)

    def capturing_registry_init(self, *args, **kwargs):
        registry_init(self, *args, **kwargs)
        capture.registries.append(self)

    patches.set(sim_runner.Cluster, "__init__", capturing_cluster_init)
    patches.set(keys.KeyRegistry, "__init__", capturing_registry_init)
    return patches, capture


def traced_round(tracer: Tracer, run: Callable[[], Any]) -> Tuple[Any, Capture, int]:
    """Run one round under instrumentation; returns its result, the
    captured objects and the round's wall time in ns."""
    patches, capture = instrument(tracer)
    try:
        start = perf_counter_ns()
        result = run()
        wall = perf_counter_ns() - start
    finally:
        patches.restore()
    return result, capture, wall


def ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def counters(capture: Capture) -> Dict[str, int]:
    """Sum the program's public counters over the captured objects."""
    from repro._core import pure
    from repro.storage.catchup import CatchupReply, CatchupRequest

    totals = {
        "messages": 0, "bytes": 0, "size_hits": 0, "size_misses": 0,
        "events": 0, "envelopes": 0, "verify_hits": 0, "verify_misses": 0,
        "canonical_hits": 0, "canonical_misses": 0,
        "catchup_msgs": 0, "catchup_bytes": 0,
    }
    for cluster in capture.clusters:
        stats = cluster.network.stats
        totals["messages"] += stats.messages_sent
        totals["bytes"] += stats.bytes_sent
        totals["size_hits"] += stats.size_cache_hits
        totals["size_misses"] += stats.size_cache_misses
        totals["events"] += cluster.sim.events_processed
        totals["envelopes"] += len(cluster.trace.sends)
        for envelope in cluster.trace.sends:
            if isinstance(envelope.payload, (CatchupRequest, CatchupReply)):
                totals["catchup_msgs"] += 1
                totals["catchup_bytes"] += pure.payload_size(envelope.payload)
    for registry in capture.registries:
        totals["verify_hits"] += registry.cache_hits
        totals["verify_misses"] += registry.cache_misses
        totals["canonical_hits"] += registry.canonical_hits
        totals["canonical_misses"] += registry.canonical_misses
    return totals
