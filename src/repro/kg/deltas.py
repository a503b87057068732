"""Version-chained delta bundles: grow a served KG without full re-saves.

The paper's construction tier streams corroborated facts continuously while
the serving tier keeps answering (§2, §4: "continuous construction and
serving of knowledge at scale").  Before this module, every mutation implied
a full CSR/context/alias rebuild plus a full bundle re-save — O(graph) work
per generation.  A *delta chain* makes generations O(change):

* the **base** is an ordinary :func:`~repro.kg.persistence.save_snapshot`
  bundle (unchanged layout);
* each **delta** is a small overlay directory holding only what moved since
  the parent generation: the appended dictionary suffix, the changed CSR
  rows (re-encoded and re-sorted), the changed/new context rows, alias-key
  updates, plus the logical fact/entity records and removals;
* ``chain.json`` at the bundle root links base → delta → delta by
  ``store_version`` (each entry records its ``parent_version``), and is the
  *only* file rewritten in place — atomically, via ``os.replace`` — so a
  crash mid-publish leaves the previous generation fully intact and a
  reader can never observe a half-applied generation.

Readers (:func:`load_chain_snapshot`, called through
``persistence.load_snapshot``) merge the chain back into ordinary layer
objects: :class:`DeltaOverlay` splices changed CSR rows over the base with
O(changed rows) Python work, context rows overwrite/append into one matrix,
and alias updates apply key-by-key onto the base state.  Every merged layer
is stamped at the *tip* store version, so the adopt-or-rebuild contract of
``AdjacencyIndex``/``EntityContextIndex``/``AliasTable`` is unchanged — a
layer that cannot be merged (stale delta manifest, incompatible marshal) is
dropped and its consumer silently rebuilds from the replayed store, while
corruption (bad checksums, a chain referencing a missing delta, broken
version linkage) raises :class:`StoreError`.

Chains cannot grow forever: :meth:`GenerationPublisher.compact` folds the
whole chain into a fresh base under ``bases/base-<version>/`` (never
overwriting the old base in place — live readers may still be mmapping it)
and resets the chain, amortising the O(graph) rebuild over
``compact_every`` cheap generations.

Id-space invariant the whole design rests on: the dictionary is append-only
(:class:`~repro.kg.encoding.Dictionary`), so an id assigned at any
generation means the same string at every later generation — delta CSR rows
written at generation k splice verbatim into the merged id space at
generation k+n.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.common import tracing
from repro.common.errors import StoreError
from repro.common.logging import get_logger
from repro.common.serialization import read_jsonl, write_jsonl
from repro.common.snapshot_io import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    SnapshotStaleError,
    load_arrays,
    pack_strings,
    read_manifest,
    unpack_strings,
    write_arrays,
)
from repro.common.text import normalize_name
from repro.kg.adjacency import CSRAdjacency, build_csr
from repro.kg.encoding import Dictionary
from repro.kg.persistence import (
    SNAPSHOT_MANIFEST,
    KGSnapshot,
    SnapshotStore,
    save_snapshot,
)
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import Fact, ObjectKind

if TYPE_CHECKING:
    from repro.common.metrics import MetricsRegistry

CHAIN_NAME = "chain.json"
DELTAS_DIR = "deltas"
BASES_DIR = "bases"
DELTA_KIND = "delta"

_log = get_logger("kg.deltas")

# Fault-injection sites (consulted through repro.serving.faults when armed).
# The ordering of the two publish-side hooks is the crash-safety contract:
# a crash at SITE_PUBLISH_DELTA loses only a temp directory; a crash at
# SITE_PUBLISH_CHAIN leaves a complete-but-unreferenced delta directory —
# either way chain.json still points at the previous generation.
SITE_PUBLISH_DELTA = "publisher.delta"
SITE_PUBLISH_CHAIN = "publisher.chain"
SITE_COMPACT = "publisher.compact"


def _fault_point(site: str) -> None:
    # Lazy import: kg must not depend on the serving package at import time.
    from repro.serving.faults import fault_point

    fault_point(site)


# -- chain manifest -----------------------------------------------------------


def read_chain(bundle_dir: str | Path) -> dict[str, Any] | None:
    """The parsed, linkage-validated ``chain.json``, or ``None`` if absent.

    Raises :class:`StoreError` for unparseable JSON, unsupported format,
    escaped paths, or broken ``parent_version`` linkage — a chain that
    references generations that cannot follow each other is corruption,
    never silently truncated.
    """
    path = Path(bundle_dir) / CHAIN_NAME
    if not path.exists():
        return None
    try:
        chain = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt chain manifest {path}: {exc}") from None
    if chain.get("format_version") != FORMAT_VERSION:
        raise StoreError(
            f"unsupported chain format {chain.get('format_version')!r} in "
            f"{path} (supported: {FORMAT_VERSION})"
        )
    base = chain.get("base")
    if base != "." and not (
        isinstance(base, str) and base.startswith(f"{BASES_DIR}/")
    ):
        raise StoreError(f"chain manifest {path} has invalid base {base!r}")
    previous = chain.get("base_version")
    if not isinstance(previous, int):
        raise StoreError(f"chain manifest {path} missing base_version")
    for info in chain.get("deltas", ()):
        rel = info.get("dir", "")
        if not rel.startswith(f"{DELTAS_DIR}/") or ".." in rel:
            raise StoreError(f"chain manifest {path} has invalid delta dir {rel!r}")
        if info.get("parent_version") != previous:
            raise StoreError(
                f"broken chain linkage in {path}: delta {rel} claims parent "
                f"{info.get('parent_version')!r}, previous generation is {previous}"
            )
        previous = info.get("store_version")
        if not isinstance(previous, int):
            raise StoreError(f"chain manifest {path}: delta {rel} has no store_version")
    return chain


def write_chain(bundle_dir: str | Path, chain: dict[str, Any]) -> None:
    """Atomically publish ``chain.json`` (write temp file + ``os.replace``)."""
    bundle_dir = Path(bundle_dir)
    path = bundle_dir / CHAIN_NAME
    tmp = bundle_dir / (CHAIN_NAME + ".tmp")
    tmp.write_text(json.dumps(chain, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def chain_tip_version(chain: dict[str, Any]) -> int:
    """The store version of the newest generation the chain references."""
    deltas = chain.get("deltas", ())
    if deltas:
        return int(deltas[-1]["store_version"])
    return int(chain["base_version"])


def published_version(bundle_dir: str | Path) -> int | None:
    """The bundle's newest published ``store_version`` (chain tip), if any.

    Cheap enough to poll: one small JSON read.  Falls back to the plain
    ``snapshot.json`` for pre-chain bundles; ``None`` when the directory
    holds neither.
    """
    bundle_dir = Path(bundle_dir)
    chain = read_chain(bundle_dir)
    if chain is not None:
        return chain_tip_version(chain)
    manifest_path = bundle_dir / SNAPSHOT_MANIFEST
    if manifest_path.exists():
        return int(json.loads(manifest_path.read_text(encoding="utf-8"))["store_version"])
    return None


# -- one delta's payload ------------------------------------------------------


@dataclass
class DeltaPayload:
    """One generation's overlay, loaded from a ``deltas/delta-NNNNNN`` dir.

    ``changed_nodes`` ids (and the row contents) live in the *merged*
    dictionary space of this generation — base ids plus every previous
    delta's appended strings plus ``new_strings``.  Append-only ids make
    those references stable at every later generation.
    """

    directory: Path
    seq: int
    store_version: int
    parent_version: int
    new_strings: list[str]
    changed_nodes: np.ndarray  # int64, merged-space ids
    row_offsets: np.ndarray  # int64, len(changed_nodes) + 1
    row_indices: np.ndarray  # int32, replacement rows, string-sorted
    changed_degrees: np.ndarray  # int64, per changed node
    ctx_entities: list[str]
    ctx_matrix: np.ndarray  # float64 (len(ctx_entities), dim)
    alias_updates: dict[str, Any]
    predicate_counts: dict[str, int]
    removed: list[tuple[str, str, str]]
    extra: dict[str, Any]

    def changed_rows(self) -> dict[int, np.ndarray]:
        """``node id -> replacement neighbor row`` for this generation."""
        offsets = self.row_offsets
        return {
            int(node): self.row_indices[offsets[i] : offsets[i + 1]]
            for i, node in enumerate(self.changed_nodes.tolist())
        }


def save_delta(
    directory: str | Path,
    *,
    seq: int,
    store_version: int,
    parent_version: int,
    new_strings: list[str],
    changed_nodes: list[int],
    changed_rows: list[np.ndarray],
    changed_degrees: list[int],
    ctx_entities: list[str],
    ctx_matrix: np.ndarray,
    alias_updates: dict[str, Any],
    predicate_counts: dict[str, int],
    facts: list[Fact],
    entities: list[EntityRecord],
    removed: list[tuple[str, str, str]],
    dim: int,
    neighbor_limit: int,
) -> dict[str, Any]:
    """Write one delta directory (arrays + manifest + fact/entity logs)."""
    directory = Path(directory)
    write_jsonl(directory / "facts.jsonl", facts)
    write_jsonl(directory / "entities.jsonl", entities)
    new_blob, new_offsets = pack_strings(new_strings)
    ctx_blob, ctx_offsets = pack_strings(ctx_entities)
    row_offsets = np.zeros(len(changed_rows) + 1, dtype=np.int64)
    if changed_rows:
        np.cumsum([len(row) for row in changed_rows], out=row_offsets[1:])
    row_indices = (
        np.concatenate(changed_rows).astype(np.int32)
        if changed_rows
        else np.empty(0, dtype=np.int32)
    )
    return write_arrays(
        directory,
        {
            "new_blob": new_blob,
            "new_offsets": new_offsets,
            "changed_nodes": np.asarray(changed_nodes, dtype=np.int64),
            "row_offsets": row_offsets,
            "row_indices": row_indices,
            "changed_degrees": np.asarray(changed_degrees, dtype=np.int64),
            "ctx_matrix": np.ascontiguousarray(ctx_matrix, dtype=np.float64),
            "ctx_blob": ctx_blob,
            "ctx_offsets": ctx_offsets,
        },
        kind=DELTA_KIND,
        store_version=store_version,
        extra={
            "seq": seq,
            "parent_version": parent_version,
            "predicate_counts": predicate_counts,
            "alias": alias_updates,
            "removed": [list(key) for key in removed],
            "dim": dim,
            "neighbor_limit": neighbor_limit,
            "counts": {
                "facts": len(facts),
                "entities": len(entities),
                "removed": len(removed),
                "changed_nodes": len(changed_nodes),
                "ctx_rows": len(ctx_entities),
                "new_strings": len(new_strings),
            },
        },
    )


def load_delta(
    directory: str | Path,
    *,
    expected_store_version: int | None = None,
    mmap: bool = True,
    verify: bool = True,
) -> DeltaPayload:
    """Load one delta directory written by :func:`save_delta`.

    Raises :class:`StoreError` on corruption and
    :class:`SnapshotStaleError` when the manifest's ``store_version``
    disagrees with ``expected_store_version`` (the chain's record) —
    callers drop the physical overlay and rebuild layers from the store.
    """
    manifest, arrays = load_arrays(
        directory,
        kind=DELTA_KIND,
        expected_store_version=expected_store_version,
        mmap=mmap,
        verify=verify,
    )
    extra = manifest.get("extra", {})
    ctx_matrix = arrays["ctx_matrix"]
    ctx_entities = unpack_strings(arrays["ctx_blob"], arrays["ctx_offsets"])
    if ctx_matrix.shape[0] != len(ctx_entities):
        raise StoreError(
            f"corrupt delta {directory}: {ctx_matrix.shape[0]} context rows "
            f"for {len(ctx_entities)} entities"
        )
    changed_nodes = arrays["changed_nodes"]
    if len(arrays["row_offsets"]) != len(changed_nodes) + 1 or len(
        arrays["changed_degrees"]
    ) != len(changed_nodes):
        raise StoreError(f"corrupt delta {directory}: row arrays do not line up")
    return DeltaPayload(
        directory=Path(directory),
        seq=int(extra.get("seq", 0)),
        store_version=int(manifest["store_version"]),
        parent_version=int(extra.get("parent_version", -1)),
        new_strings=unpack_strings(arrays["new_blob"], arrays["new_offsets"]),
        changed_nodes=changed_nodes,
        row_offsets=arrays["row_offsets"],
        row_indices=arrays["row_indices"],
        changed_degrees=arrays["changed_degrees"],
        ctx_entities=ctx_entities,
        ctx_matrix=ctx_matrix,
        alias_updates=extra.get("alias", {}),
        predicate_counts=dict(extra.get("predicate_counts", {})),
        removed=[tuple(key) for key in extra.get("removed", ())],
        extra=extra,
    )


# -- read-time merging --------------------------------------------------------


class DeltaOverlay:
    """A merged read view of a base CSR plus an ordered delta chain.

    Spot reads (:meth:`neighbors`, :meth:`degree`) consult the newest
    delta first and fall through to the base; :meth:`collapse` splices the
    chain into one ordinary :class:`CSRAdjacency` stamped at the tip
    version — O(changed rows) Python work plus array copies — which is
    what serving adopts (every downstream cache keys off one snapshot
    object).
    """

    def __init__(self, base: CSRAdjacency, deltas: list[DeltaPayload]) -> None:
        previous = base.built_version
        for payload in deltas:
            if payload.parent_version != previous:
                raise StoreError(
                    f"delta {payload.directory} built on parent "
                    f"{payload.parent_version}, previous generation is {previous}"
                )
            previous = payload.store_version
        self.base = base
        self.deltas = list(deltas)
        # Append-only id space: new strings extend the base dictionary in
        # chain order.  The base dictionary itself is shared and never
        # mutated here.
        self._extra_strings: list[str] = []
        self._extra_id_of: dict[str, int] = {}
        base_n = base.num_nodes
        for payload in self.deltas:
            for string in payload.new_strings:
                self._extra_id_of[string] = base_n + len(self._extra_strings)
                self._extra_strings.append(string)
        self._changed: dict[int, np.ndarray] = {}
        self._degrees: dict[int, int] = {}
        for payload in self.deltas:
            self._changed.update(payload.changed_rows())
            for node, degree in zip(
                payload.changed_nodes.tolist(), payload.changed_degrees.tolist()
            ):
                self._degrees[int(node)] = int(degree)

    @property
    def tip_version(self) -> int:
        return self.deltas[-1].store_version if self.deltas else self.base.built_version

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes + len(self._extra_strings)

    def _id_of(self, node: str) -> int | None:
        node_id = self.base.dictionary.get(node)
        if node_id is None:
            node_id = self._extra_id_of.get(node)
        return node_id

    def _string_of(self, node_id: int) -> str:
        base_n = self.base.num_nodes
        if node_id < base_n:
            return self.base.dictionary.string_of(node_id)
        return self._extra_strings[node_id - base_n]

    def neighbors(self, node: str) -> set[str]:
        """Decoded neighbor set of ``node`` at the tip generation."""
        node_id = self._id_of(node)
        if node_id is None:
            return set()
        row = self._changed.get(node_id)
        if row is None:
            if node_id >= self.base.num_nodes:
                return set()
            row = self.base.neighbors_of(node_id)
        return {self._string_of(int(i)) for i in np.asarray(row).tolist()}

    def degree(self, node: str) -> int:
        """Distinct-neighbor degree of ``node`` at the tip generation."""
        node_id = self._id_of(node)
        if node_id is None:
            return 0
        row = self._changed.get(node_id)
        if row is not None:
            return len(row)
        if node_id >= self.base.num_nodes:
            return 0
        return int(self.base.indptr[node_id + 1] - self.base.indptr[node_id])

    def collapse(self) -> CSRAdjacency:
        """One merged :class:`CSRAdjacency` at the tip version.

        The splice is O(changed) Python pieces: unchanged base rows copy
        wholesale as contiguous segments between changed rows, changed and
        new rows drop into their slots, and ``indptr`` is one cumsum.
        """
        base = self.base
        if not self.deltas:
            return base
        base_n = base.num_nodes
        total_n = base_n + len(self._extra_strings)
        if self._changed and max(self._changed) >= total_n:
            raise StoreError(
                f"corrupt delta chain: changed node id {max(self._changed)} "
                f"outside merged dictionary of {total_n} nodes"
            )
        dictionary = Dictionary(base.dictionary._strings_view())
        for string in self._extra_strings:
            dictionary.intern(string)
        if len(dictionary) != total_n:
            raise StoreError("corrupt delta chain: duplicate appended strings")

        lengths = np.zeros(total_n, dtype=np.int64)
        lengths[:base_n] = np.diff(base.indptr)
        for node, row in self._changed.items():
            lengths[node] = len(row)
        indptr = np.zeros(total_n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])

        pieces: list[np.ndarray] = []
        cursor = 0
        for node in sorted(n for n in self._changed if n < base_n):
            pieces.append(base.indices[base.indptr[cursor] : base.indptr[node]])
            pieces.append(self._changed[node])
            cursor = node + 1
        pieces.append(base.indices[base.indptr[cursor] :])
        # Rows past the base are either changed (spliced here, ascending id
        # order matches the indptr layout) or empty.
        for node in sorted(n for n in self._changed if n >= base_n):
            pieces.append(self._changed[node])
        indices = (
            np.concatenate(pieces).astype(np.int32)
            if pieces
            else np.empty(0, dtype=np.int32)
        )
        if len(indices) != indptr[-1]:
            raise StoreError("corrupt delta chain: spliced rows do not fill indptr")
        if indices.size and int(indices.max()) >= total_n:
            raise StoreError("corrupt delta chain: row references unknown node id")

        degrees = np.zeros(total_n, dtype=np.int64)
        degrees[:base_n] = base.entity_edge_degrees
        for node, degree in self._degrees.items():
            degrees[node] = degree
        return CSRAdjacency(
            dictionary=dictionary,
            indptr=indptr,
            indices=indices,
            entity_edge_degrees=degrees,
            predicate_counts=dict(self.deltas[-1].predicate_counts),
            built_version=self.tip_version,
        )


def merge_context(
    base_context: tuple | None, deltas: list[DeltaPayload]
) -> tuple | None:
    """Merge delta context rows over the base matrix; stamped at the tip.

    Returns a ``(matrix, entities, built_version, extra)`` tuple shaped
    like :func:`~repro.annotation.context_encoder.load_context_arrays`
    output, or ``None`` when the base layer is absent (consumer rebuilds).
    Existing entities' rows are overwritten in place; new entities append
    in chain order (matching the store's entity insertion order).
    """
    if base_context is None or not deltas:
        return base_context
    base_matrix, base_entities, _version, extra = base_context
    dim = base_matrix.shape[1] if base_matrix.size else int(extra.get("dim", 0))
    for payload in deltas:
        if payload.ctx_matrix.size and payload.ctx_matrix.shape[1] != dim:
            raise StoreError(
                f"delta {payload.directory} context dim "
                f"{payload.ctx_matrix.shape[1]} != base dim {dim}"
            )
    row_of: dict[str, int] = {entity: row for row, entity in enumerate(base_entities)}
    entities = list(base_entities)
    for payload in deltas:
        for entity in payload.ctx_entities:
            if entity not in row_of:
                row_of[entity] = len(entities)
                entities.append(entity)
    merged = np.empty((len(entities), dim), dtype=np.float64)
    merged[: len(base_entities)] = base_matrix
    for payload in deltas:
        if payload.ctx_entities:
            rows = np.array(
                [row_of[entity] for entity in payload.ctx_entities], dtype=np.intp
            )
            merged[rows] = payload.ctx_matrix
    tip = deltas[-1].store_version
    return merged, entities, tip, dict(extra)


def merge_alias(base_alias: tuple | None, deltas: list[DeltaPayload]) -> tuple | None:
    """Apply each delta's alias-key updates over the base state; tip-stamped.

    Returns a ``(state, built_version, extra)`` tuple shaped like
    :func:`~repro.annotation.alias_table.load_alias_state` output, or
    ``None`` when the base layer is absent.
    """
    if base_alias is None or not deltas:
        return base_alias
    from repro.annotation.alias_table import apply_alias_updates

    state, _version, extra = base_alias
    for payload in deltas:
        state = apply_alias_updates(state, payload.alias_updates)
    return state, deltas[-1].store_version, dict(extra)


# -- chain-aware logical store ------------------------------------------------


class ChainSnapshotStore(SnapshotStore):
    """A :class:`SnapshotStore` that replays base + delta logs lazily.

    Delta entity records load eagerly alongside the base's (the serving
    paths need descriptors immediately); the fact replay applies, per
    generation, the recorded removals first and then the end-state facts.
    Re-recorded existing keys *replace* in place — a delta fact is the
    store's exact end state at publish time, so merging metadata with the
    superseded fact (as a plain upsert would) could resurrect a deleted
    fact's confidence or provenance.  In-place replacement also preserves
    scan order for add-and-update workloads, keeping chain-loaded stores
    byte-compatible with a store that applied the same operations live.
    """

    def __init__(
        self,
        base_dir: str | Path,
        *,
        parts: list[tuple[Path, list[tuple[str, str, str]]]],
        name: str = "kg",
        pinned_version: int = 0,
        defer_facts: bool = True,
    ) -> None:
        self._chain_parts = list(parts)
        super().__init__(
            base_dir, name=name, pinned_version=pinned_version, defer_facts=True
        )
        for directory, _removed in self._chain_parts:
            path = directory / "entities.jsonl"
            if path.exists():
                for record in read_jsonl(path, EntityRecord.from_dict):
                    self._entities[record.entity] = record
        if not defer_facts:
            self._ensure_facts()
        self.version = pinned_version

    def _ensure_facts(self) -> None:
        if self._facts_loaded:
            return
        with self._replay_lock:
            if self._facts_loaded:
                return
            pinned = self.version
            for fact in read_jsonl(self._directory / "facts.jsonl", Fact.from_dict):
                self._upsert(fact)
            for directory, removed in self._chain_parts:
                for key in removed:
                    # Unbound base call: the wrapped SnapshotStore.remove
                    # would re-enter _ensure_facts through its RLock.
                    TripleStore.remove(self, *key)
                facts_path = directory / "facts.jsonl"
                if facts_path.exists():
                    for fact in read_jsonl(facts_path, Fact.from_dict):
                        if fact.key in self._facts:
                            self._facts[fact.key] = fact
                        else:
                            self._upsert(fact)
            # Replay is a load, not a mutation (removals above bumped the
            # version); adopted tip-stamped layers must still match.
            self.version = pinned
            self._facts_loaded = True


def _chain_base_dir(directory: Path, chain: dict[str, Any]) -> Path:
    return directory if chain["base"] == "." else directory / chain["base"]


def _chain_parts(
    directory: Path, chain: dict[str, Any]
) -> list[tuple[Path, list[tuple[str, str, str]]]]:
    """``(delta directory, removed fact keys)`` per chained delta, in order."""
    parts: list[tuple[Path, list[tuple[str, str, str]]]] = []
    for info in chain["deltas"]:
        delta_dir = directory / info["dir"]
        if not (delta_dir / MANIFEST_NAME).exists():
            raise StoreError(
                f"chain references missing delta: {delta_dir} "
                "(crash-orphaned chains never reference unwritten deltas)"
            )
        extra = read_manifest(delta_dir, kind=DELTA_KIND).get("extra", {})
        parts.append((delta_dir, [tuple(key) for key in extra.get("removed", ())]))
    return parts


def load_chain_snapshot(
    directory: str | Path,
    *,
    defer_facts: bool = True,
    mmap: bool = True,
    verify: bool = True,
) -> KGSnapshot:
    """Load a chained bundle: base + deltas merged into one tip snapshot.

    The returned :class:`~repro.kg.persistence.KGSnapshot` looks exactly
    like a freshly saved bundle at the tip version — workers, the serving
    service and the gateway need no chain awareness.  Per layer, the usual
    contract: mergeable layers come back tip-stamped; a stale delta
    manifest (version disagreeing with the chain's record) drops the
    physical overlays so consumers rebuild from the replayed store;
    corruption raises :class:`StoreError`.  The embeddings layer does not
    participate in deltas — it is ``None`` whenever the chain is non-empty
    (suites retrain on demand; compaction restores the persisted layer).
    """
    from repro.kg.persistence import load_plain_snapshot

    directory = Path(directory)
    chain = read_chain(directory)
    if chain is None:
        raise StoreError(f"not a chained bundle: {directory} (missing {CHAIN_NAME})")
    base_dir = _chain_base_dir(directory, chain)
    if not (base_dir / SNAPSHOT_MANIFEST).exists():
        raise StoreError(f"chain base missing: {base_dir}")
    base = load_plain_snapshot(
        base_dir, defer_facts=defer_facts, mmap=mmap, verify=verify
    )
    base_version = int(chain["base_version"])
    if int(base.manifest["store_version"]) != base_version:
        raise StoreError(
            f"chain base {base_dir} at store version "
            f"{base.manifest['store_version']}, chain expects {base_version}"
        )
    if not chain["deltas"]:
        base.directory = directory
        return base

    parts = _chain_parts(directory, chain)
    payloads: list[DeltaPayload] = []
    physical_ok = True
    for info, (delta_dir, _removed) in zip(chain["deltas"], parts):
        try:
            payloads.append(
                load_delta(
                    delta_dir,
                    expected_store_version=int(info["store_version"]),
                    mmap=mmap,
                    verify=verify,
                )
            )
        except SnapshotStaleError:
            # Stale delta manifest: drop every physical overlay (the
            # chain's array view is no longer coherent) but keep the
            # logical replay — consumers rebuild silently.
            physical_ok = False
            payloads = []
            break

    tip = chain_tip_version(chain)
    store = ChainSnapshotStore(
        base_dir,
        parts=parts,
        name=base.manifest.get("name", "kg"),
        pinned_version=tip,
        defer_facts=defer_facts,
    )
    adjacency = None
    context = None
    alias = None
    if physical_ok:
        if base.adjacency is not None:
            adjacency = DeltaOverlay(base.adjacency, payloads).collapse()
        context = merge_context(base.context, payloads)
        alias = merge_alias(base.alias, payloads)
    manifest = dict(base.manifest)
    manifest["store_version"] = tip
    manifest["chain"] = {
        "base": chain["base"],
        "base_version": base_version,
        "deltas": len(chain["deltas"]),
    }
    return KGSnapshot(
        directory=directory,
        manifest=manifest,
        store=store,
        adjacency=adjacency,
        context=context,
        alias=alias,
        embeddings=None,
    )


# -- the publisher ------------------------------------------------------------


@dataclass(frozen=True)
class GenerationInfo:
    """One published generation's coordinates."""

    seq: int
    store_version: int
    parent_version: int
    directory: Path
    chain_length: int
    compacted: bool = False


class GenerationPublisher:
    """Emits delta generations of one live store into a chained bundle.

    The construction-side half of live growth: the caller owns a
    :class:`TripleStore`, applies mutations to it (ODKE fusion, manual
    edits), tells the publisher *which* fact keys / entity ids it touched
    (:meth:`record`), and calls :meth:`publish` on its cadence.  Each
    publish reads the store's end state for every recorded key — a
    delete-then-readd sequence collapses into one recorded fact, a pure
    delete into one removal — and writes a delta that is O(touched
    neighborhood), not O(graph).

    Crash safety: the delta directory is staged under a temp name and
    renamed into place, then ``chain.json`` swaps atomically; in-memory
    publisher state commits only after both succeed, so a failed publish
    (including injected faults at :data:`SITE_PUBLISH_DELTA` /
    :data:`SITE_PUBLISH_CHAIN`) keeps the pending set intact for a clean
    retry and readers keep serving the previous generation.

    After ``compact_every`` deltas the chain folds into a fresh base under
    ``bases/base-<version>/`` — never overwriting the live base in place,
    because concurrent readers may still be mmapping its arrays.
    """

    def __init__(
        self,
        store: TripleStore,
        bundle_dir: str | Path,
        *,
        compact_every: int = 8,
        embeddings: bool = False,
        verify: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.store = store
        self.bundle_dir = Path(bundle_dir)
        self.compact_every = compact_every
        self.embeddings = embeddings
        self.verify = verify
        self.metrics = metrics
        self._lock = threading.Lock()
        self._pending_keys: dict[tuple[str, str, str], None] = {}
        self._pending_entities: dict[str, None] = {}
        # Background compaction (scheduled off the publish path): at most
        # one in-flight thread; its failure parks here and re-raises on
        # the next publish()/compact()/join_compaction() call.  A leaf
        # lock (never held while taking _lock) keeps schedule / join /
        # error-surfacing atomic against each other.
        self._compact_lock = threading.Lock()
        self._compact_thread: threading.Thread | None = None
        self._compact_error: BaseException | None = None

        chain = read_chain(self.bundle_dir)
        if chain is None and not (self.bundle_dir / SNAPSHOT_MANIFEST).exists():
            save_snapshot(self.store, self.bundle_dir, embeddings=self.embeddings)
            chain = self._fresh_chain(".", self.store.version)
            write_chain(self.bundle_dir, chain)
        elif chain is None:
            # Adopt a pre-chain bundle: make it chain-aware in place.
            manifest = json.loads(
                (self.bundle_dir / SNAPSHOT_MANIFEST).read_text(encoding="utf-8")
            )
            chain = self._fresh_chain(".", int(manifest["store_version"]))
            write_chain(self.bundle_dir, chain)
        self._chain = chain
        if chain_tip_version(chain) != self.store.version:
            raise StoreError(
                f"publisher store at version {self.store.version}, bundle "
                f"{self.bundle_dir} tip is {chain_tip_version(chain)}; "
                "load the store from the bundle (or compact) before publishing"
            )
        self._load_tip_state()

    @staticmethod
    def _fresh_chain(base: str, base_version: int) -> dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "base": base,
            "base_version": base_version,
            "next_seq": 1,
            "compactions": 0,
            "deltas": [],
        }

    def _load_tip_state(self) -> None:
        """Rebuild in-memory tip state (dictionary, context recipe, alias
        bookkeeping) from the bundle; compacts first if the physical chain
        cannot be merged (e.g. an incompatible marshal sidecar)."""
        from repro.kg.persistence import load_snapshot

        snapshot = load_snapshot(self.bundle_dir, verify=self.verify)
        if snapshot.adjacency is None:
            # Unmergeable physical chain: fold to a fresh base and retry.
            self._compact_locked()
            return
        # The snapshot object is discarded after init, so taking ownership
        # of its dictionary (and interning into it later) is safe.
        self._dictionary = snapshot.adjacency.dictionary
        ctx_extra = snapshot.context[3] if snapshot.context is not None else {}
        self._ctx_dim = int(ctx_extra.get("dim", 256))
        self._ctx_neighbor_limit = int(ctx_extra.get("neighbor_limit", 16))
        self._alias_extra = snapshot.alias[2] if snapshot.alias is not None else {}
        self._reset_alias_bookkeeping(self.store)

    def _reset_alias_bookkeeping(self, store: TripleStore) -> None:
        self._entity_pos: dict[str, int] = {}
        self._surface_keys: dict[str, tuple[str, ...]] = {}
        self._key_entities: dict[str, dict[str, None]] = {}
        for position, record in enumerate(store.entities()):
            self._entity_pos[record.entity] = position
            keys = self._record_keys(record)
            self._surface_keys[record.entity] = keys
            for key in keys:
                self._key_entities.setdefault(key, {})[record.entity] = None

    @staticmethod
    def _record_keys(record: EntityRecord) -> tuple[str, ...]:
        keys: list[str] = []
        for surface in {record.name, *record.aliases}:
            key = normalize_name(surface)
            if key and key not in keys:
                keys.append(key)
        return tuple(keys)

    # -- recording --------------------------------------------------------

    def record(
        self,
        keys: Iterable[tuple[str, str, str]] = (),
        entities: Iterable[str] = (),
    ) -> None:
        """Note touched fact keys / entity ids since the last publish.

        Record entity ids in upsert order — new entities take their alias
        and context positions from it (matching the store's own insertion
        order).  Recording is idempotent; the end state is read at publish.
        """
        with self._lock:
            for key in keys:
                self._pending_keys[tuple(key)] = None
            for entity in entities:
                self._pending_entities[entity] = None

    def record_facts(self, keys: Iterable[tuple[str, str, str]]) -> None:
        """Convenience: :meth:`record` for fact keys only."""
        self.record(keys=keys)

    def record_entities(self, entities: Iterable[str]) -> None:
        """Convenience: :meth:`record` for entity ids only."""
        self.record(entities=entities)

    @property
    def pending(self) -> int:
        """Recorded-but-unpublished fact keys + entity ids."""
        return len(self._pending_keys) + len(self._pending_entities)

    @property
    def chain_length(self) -> int:
        """Deltas currently on the chain (0 right after a compaction)."""
        return len(self._chain["deltas"])

    @property
    def tip_version(self) -> int:
        """The newest published generation's store version."""
        return chain_tip_version(self._chain)

    # -- publishing -------------------------------------------------------

    def publish(self) -> GenerationInfo | None:
        """Write one delta generation from the pending set; maybe compact.

        Returns the new generation's :class:`GenerationInfo`, or ``None``
        when nothing changed since the last publish.  On any failure the
        pending set is preserved and the chain untouched — retryable.
        """
        self._raise_compact_error()
        with self._lock:
            with tracing.span(
                "publisher.publish", bundle=str(self.bundle_dir)
            ) as span:
                info = self._publish_locked()
                if info is not None and span.recording:
                    span.set_attribute("seq", info.seq)
                    span.set_attribute("store_version", info.store_version)
                    span.set_attribute("chain_length", info.chain_length)
                return info

    def _publish_locked(self) -> GenerationInfo | None:
        store = self.store
        version = store.version
        parent = chain_tip_version(self._chain)
        if not self._pending_keys and not self._pending_entities:
            return None
        if version == parent:
            # Recorded keys but the store never actually moved.
            self._pending_keys.clear()
            self._pending_entities.clear()
            return None
        started = time.perf_counter()
        keys = list(self._pending_keys)
        changed_entities = list(self._pending_entities)

        # -- adjacency: recompute the touched rows in the merged id space.
        affected: dict[str, None] = {}
        for entity in changed_entities:
            if entity not in self._dictionary:
                affected[entity] = None  # new catalogued entities get rows
        for subject, _predicate, obj in keys:
            affected[subject] = None
            affected[obj] = None
        new_id_of: dict[str, int] = {}
        new_strings: list[str] = []

        def node_id(string: str) -> int:
            known = self._dictionary.get(string)
            if known is not None:
                return known
            allocated = new_id_of.get(string)
            if allocated is None:
                allocated = len(self._dictionary) + len(new_strings)
                new_id_of[string] = allocated
                new_strings.append(string)
            return allocated

        for node in affected:
            node_id(node)
        changed_nodes: list[int] = []
        changed_rows: list[np.ndarray] = []
        changed_degrees: list[int] = []
        entity_kind = ObjectKind.ENTITY
        for node in affected:
            row = [node_id(n) for n in sorted(store.neighbors(node))]
            changed_nodes.append(node_id(node))
            changed_rows.append(np.asarray(row, dtype=np.int32))
            degree = sum(
                1 for fact in store.scan(subject=node) if fact.obj_kind is entity_kind
            )
            degree += sum(
                1 for fact in store.scan(obj=node) if fact.obj_kind is entity_kind
            )
            changed_degrees.append(degree)

        # -- context: entities whose _compute inputs may have moved.
        ctx_affected: dict[str, None] = {}
        for subject, _predicate, obj in keys:
            if store.has_entity(subject):
                ctx_affected[subject] = None
            if store.has_entity(obj):
                ctx_affected[obj] = None
        for entity in changed_entities:
            if store.has_entity(entity):
                ctx_affected[entity] = None
                # A record change can alter neighbours' vectors (their
                # neighbour-name tokens); conservatively recompute all.
                for neighbor in store.neighbors(entity):
                    if store.has_entity(neighbor):
                        ctx_affected[neighbor] = None
        ctx_entities = list(ctx_affected)
        ctx_matrix = self._compute_context_rows(ctx_entities)

        # -- alias: recompute every key any changed record touches.
        alias_updates, alias_commit = self._alias_updates(changed_entities)

        # -- logical end state.
        facts: list[Fact] = []
        removed: list[tuple[str, str, str]] = []
        for key in keys:
            fact = store.get(*key)
            if fact is None:
                removed.append(key)
            else:
                facts.append(fact)
        entity_records = [
            store.entity(entity)
            for entity in changed_entities
            if store.has_entity(entity)
        ]

        # -- stage, rename, swap the chain (the crash-ordering contract).
        seq = int(self._chain.get("next_seq", len(self._chain["deltas"]) + 1))
        rel_dir = f"{DELTAS_DIR}/delta-{seq:06d}"
        final_dir = self.bundle_dir / rel_dir
        staging = self.bundle_dir / DELTAS_DIR / f".tmp-delta-{seq:06d}"
        if staging.exists():
            shutil.rmtree(staging)
        if final_dir.exists():
            shutil.rmtree(final_dir)  # orphan of a crashed chain swap
        save_delta(
            staging,
            seq=seq,
            store_version=version,
            parent_version=parent,
            new_strings=new_strings,
            changed_nodes=changed_nodes,
            changed_rows=changed_rows,
            changed_degrees=changed_degrees,
            ctx_entities=ctx_entities,
            ctx_matrix=ctx_matrix,
            alias_updates=alias_updates,
            predicate_counts=store.predicate_counts(),
            facts=facts,
            entities=entity_records,
            removed=removed,
            dim=self._ctx_dim,
            neighbor_limit=self._ctx_neighbor_limit,
        )
        _fault_point(SITE_PUBLISH_DELTA)
        os.replace(staging, final_dir)
        _fault_point(SITE_PUBLISH_CHAIN)
        chain = dict(self._chain)
        chain["deltas"] = list(chain["deltas"]) + [
            {
                "dir": rel_dir,
                "seq": seq,
                "store_version": version,
                "parent_version": parent,
            }
        ]
        chain["next_seq"] = seq + 1
        write_chain(self.bundle_dir, chain)

        # -- commit in-memory tip state (only after the durable swap).
        self._chain = chain
        for string in new_strings:
            self._dictionary.intern(string)
        alias_commit()
        self._pending_keys.clear()
        self._pending_entities.clear()
        if self.metrics is not None:
            self.metrics.incr("publisher.generations")
            self.metrics.gauge("publisher.chain_length", float(self.chain_length))
            self.metrics.observe(
                "publisher.publish_s", time.perf_counter() - started
            )
        _log.info(
            "generation.published",
            bundle=str(self.bundle_dir),
            seq=seq,
            store_version=version,
            parent_version=parent,
            chain_length=self.chain_length,
            facts=len(facts),
            removed=len(removed),
        )
        compacted = False
        if self.compact_every and len(chain["deltas"]) >= self.compact_every:
            # Compaction (a full CSR rebuild + base snapshot) runs on a
            # background thread so the publish path stays ~ms: the caller
            # gets its generation back immediately and the fold happens
            # under the publisher lock as soon as this publish releases
            # it.  ``compacted`` in the returned info therefore means
            # *scheduled*; join_compaction() observes completion.
            self._schedule_compaction_locked()
            compacted = True
        return GenerationInfo(
            seq=seq,
            store_version=version,
            parent_version=parent,
            directory=final_dir,
            chain_length=self.chain_length,
            compacted=compacted,
        )

    def _compute_context_rows(self, entities: list[str]) -> np.ndarray:
        from repro.annotation.context_encoder import (
            EntityContextIndex,
            HashingContextEncoder,
        )

        if not entities:
            return np.zeros((0, self._ctx_dim), dtype=np.float64)
        index = EntityContextIndex(
            self.store,
            encoder=HashingContextEncoder(self._ctx_dim),
            neighbor_limit=self._ctx_neighbor_limit,
        )
        return np.stack([index._compute(entity) for entity in entities])

    def _alias_updates(self, changed_entities: list[str]):
        """(updates payload, commit thunk) for the changed entity records.

        Replays :meth:`AliasTable.refresh`'s accumulation exactly — per
        key, contributing records in store insertion order, each record's
        surface set in its own iteration order — so the merged state's
        floats (prior sums, tie-breaks) are bitwise identical to a full
        refresh at the tip version.
        """
        updated: dict[str, list] = {}
        added: dict[str, list] = {}
        removed: list[str] = []
        if not changed_entities:
            return {"updated": updated, "added": added, "removed": removed}, lambda: None
        store = self.store
        positions = dict(self._entity_pos)
        for entity in changed_entities:
            if entity not in positions:
                positions[entity] = len(positions)
        affected: dict[str, None] = {}
        new_keys_of: dict[str, tuple[str, ...]] = {}
        for entity in changed_entities:
            if not store.has_entity(entity):
                continue
            new_keys = self._record_keys(store.entity(entity))
            new_keys_of[entity] = new_keys
            for key in self._surface_keys.get(entity, ()):
                affected[key] = None
            for key in new_keys:
                affected[key] = None
        members: dict[str, dict[str, None]] = {
            key: dict(self._key_entities.get(key, {})) for key in affected
        }
        for entity, new_keys in new_keys_of.items():
            old_keys = set(self._surface_keys.get(entity, ()))
            for key in old_keys - set(new_keys):
                members[key].pop(entity, None)
            for key in new_keys:
                members[key][entity] = None
        for key in affected:
            contributors = sorted(members[key], key=positions.__getitem__)
            if not contributors:
                if key in self._key_entities:
                    removed.append(key)
                continue
            entries: list[tuple[str, float]] = []
            for entity in contributors:
                record = store.entity(entity)
                for surface in {record.name, *record.aliases}:
                    if normalize_name(surface) == key:
                        weight = 1.0 if surface == record.name else 0.6
                        entries.append((entity, record.popularity * weight))
            total = sum(prior for _entity, prior in entries) or 1.0
            normalized = sorted(
                ((entity, prior / total, True) for entity, prior in entries),
                key=lambda item: (-item[1], item[0]),
            )
            if key in self._key_entities:
                updated[key] = normalized
            else:
                added[key] = normalized

        def commit() -> None:
            for entity, new_keys in new_keys_of.items():
                for key in set(self._surface_keys.get(entity, ())) - set(new_keys):
                    bucket = self._key_entities.get(key)
                    if bucket is not None:
                        bucket.pop(entity, None)
                self._surface_keys[entity] = new_keys
                for key in new_keys:
                    self._key_entities.setdefault(key, {})[entity] = None
            for key in removed:
                self._key_entities.pop(key, None)
            self._entity_pos = positions

        return {"updated": updated, "added": added, "removed": removed}, commit

    # -- compaction -------------------------------------------------------

    def _raise_compact_error(self) -> None:
        """Surface a background compaction failure on the calling thread.

        Takes the parked error atomically, so exactly one of several
        racing callers raises it (the rest proceed) and a freshly parked
        error can never be dropped by a concurrent read-then-clear.
        """
        with self._compact_lock:
            error = self._compact_error
            self._compact_error = None
        if error is not None:
            raise error

    def _schedule_compaction_locked(self) -> None:
        """Start (at most one) background compaction thread.

        Called with the publisher lock held: the thread blocks on the
        lock until the scheduling publish commits, then folds the entire
        chain as it stands *then* — so a still-pending thread also covers
        any generations published in between, and re-scheduling is a
        no-op while one is in flight.
        """

        def run() -> None:
            try:
                with self._lock:
                    if not self._chain["deltas"]:
                        return  # someone compacted inline in the meantime
                    with tracing.span(
                        "publisher.compact", bundle=str(self.bundle_dir)
                    ):
                        self._compact_locked()
            except BaseException as exc:  # parked for the next caller
                with self._compact_lock:
                    self._compact_error = exc

        with self._compact_lock:
            if self._compact_thread is not None and self._compact_thread.is_alive():
                return
            thread = threading.Thread(
                target=run, name=f"compact-{self.bundle_dir.name}", daemon=True
            )
            self._compact_thread = thread
            # Started while holding the lock so a concurrent join never
            # sees (and tries to join) a not-yet-started thread.
            thread.start()
        if self.metrics is not None:
            self.metrics.incr("publisher.compactions_scheduled")

    def _published_store(self) -> ChainSnapshotStore:
        """The published tip's logical store, replayed from the bundle's
        fact logs (no physical layer is loaded)."""
        chain = self._chain
        return ChainSnapshotStore(
            _chain_base_dir(self.bundle_dir, chain),
            parts=_chain_parts(self.bundle_dir, chain),
            name=self.store.name,
            pinned_version=chain_tip_version(chain),
        )

    def join_compaction(self, timeout: float | None = None) -> bool:
        """Wait for any in-flight background compaction to finish.

        Returns ``True`` once no compaction is running (including when
        none was scheduled); ``False`` if ``timeout`` elapsed first.
        Re-raises the compaction's exception, if it failed — the same
        error the next :meth:`publish`/:meth:`compact` would surface.
        """
        with self._compact_lock:
            thread = self._compact_thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
            with self._compact_lock:
                # Compare-and-clear: a publish may have scheduled a fresh
                # thread since we sampled — never clobber its reference.
                if self._compact_thread is thread:
                    self._compact_thread = None
        self._raise_compact_error()
        return True

    def compact(self) -> GenerationInfo:
        """Fold the chain into a fresh base (publishes pending changes too).

        Synchronous: drains any in-flight background compaction first,
        then publishes what is pending and folds the chain inline on the
        calling thread.
        """
        self.join_compaction()
        with self._lock:
            with tracing.span(
                "publisher.compact", bundle=str(self.bundle_dir)
            ):
                self._publish_locked()
                return self._compact_locked()

    def _compact_locked(self) -> GenerationInfo:
        """Fold the published chain into a fresh base at its tip version.

        The fold reads the chain back from the bundle, never the live
        store: the owner mutates its store without the publisher lock, so
        a fold of the live store could save a base whose version disagrees
        with its directory name.  Facts recorded after the tip stay
        pending for the next publish.
        """
        from repro.kg.graph_engine import GraphEngine

        store = self._published_store()
        version = store.version
        started = time.perf_counter()
        base_rel = f"{BASES_DIR}/base-{version:08d}"
        base_dir = self.bundle_dir / base_rel
        csr = build_csr(store)
        engine = GraphEngine(store, csr)
        save_snapshot(store, base_dir, engine=engine, embeddings=self.embeddings)
        _fault_point(SITE_COMPACT)
        chain = self._fresh_chain(base_rel, version)
        chain["next_seq"] = int(self._chain.get("next_seq", 1))
        chain["compactions"] = int(self._chain.get("compactions", 0)) + 1
        write_chain(self.bundle_dir, chain)
        self._chain = chain
        # A compaction is also a sync point for the in-memory tip state:
        # the fresh build's dictionary replaces the chain-grown one (its
        # id order is the fresh-build order from here on).
        self._dictionary = csr.dictionary
        self._reset_alias_bookkeeping(store)
        self._prune_stale_dirs(keep=base_rel)
        if self.metrics is not None:
            self.metrics.incr("publisher.compactions")
            self.metrics.gauge("publisher.chain_length", 0.0)
            self.metrics.observe(
                "publisher.compact_s", time.perf_counter() - started
            )
        _log.info(
            "generation.compacted",
            bundle=str(self.bundle_dir),
            store_version=version,
            base=base_rel,
        )
        return GenerationInfo(
            seq=int(chain["next_seq"]) - 1,
            store_version=version,
            parent_version=version,
            directory=base_dir,
            chain_length=0,
            compacted=True,
        )

    def _prune_stale_dirs(self, keep: str) -> None:
        """Best-effort GC of staging leftovers after a compaction.

        Only ``.tmp-*`` staging directories are removed.  Superseded delta
        and base directories stay on disk: a reader that loaded the
        previous chain may still be serving mmapped arrays out of them,
        and unlinking-under-mmap semantics differ across platforms.
        Operators prune old ``bases/base-*``/``deltas/delta-*`` dirs once
        every reader has re-adopted.
        """
        staging_root = self.bundle_dir / DELTAS_DIR
        if staging_root.exists():
            for child in staging_root.iterdir():
                if child.name.startswith(".tmp-"):
                    shutil.rmtree(child, ignore_errors=True)
