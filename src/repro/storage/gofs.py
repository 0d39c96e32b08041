"""GoFS: the distributed file store substitute (paper Section IV-A, [18]).

Layout of a store rooted at ``root/``::

    root/template.gsl            — the shared graph template
    root/manifest.json           — packing/binning/timestep metadata + bins
    root/rows_p*_b*.gsl          — one rows file per (partition, bin)
    root/slice_p*_b*_k*.gsl      — one slice per (partition, bin, pack)

Writing distributes a partitioned collection into slice files with the
paper's temporal packing (default 10) and subgraph binning (default 5).
Each host then reads through a :class:`GoFSPartitionView` — an
:class:`~repro.runtime.host.InstanceSource` that caches temporal packs,
so a pack's first read is a real, measurable load spike (Fig 6).  What a
view does in ``instance(t)`` is the pack's header reads: validation against
each file's size, schema checks (a bin's rows are read and checked once, at
opening).  The first row read of the pack reads its bytes, one read per
slice file; a pack no row is read from is never read.  What it does *per read* is
the projection: ``table.locate(name, rows)`` answers one timestep's rows in
place — the pack matrix's row and the rows' positions in it, resolved once
per row array through the view's direct-address row index — ``take``
copies them out, and ``column(name)`` gathers the whole template.  An
attribute nobody reads costs nothing, and one nobody ever set is not
stored: slices list it under ``defaults`` and it reads as its default.

With ``prefetch=True`` a view hides that spike: a single background thread
starts reading pack *k+1* while compute is still inside pack *k* (the
GoFFish analytics paper's overlap remedy), and the load accounting splits
into the *blocked* seconds that still stall ``begin_timestep`` and the
*hidden* seconds absorbed behind compute (see :meth:`drain_load`).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from ..graph.attributes import AttributeTable
from ..graph.instance import GraphInstance
from ..graph.template import GraphTemplate
from ..graph.collection import TimeSeriesGraphCollection
from ..partition.base import PartitionedGraph
from .serde import PackedArrays, load_template, save_template
from .slices import (
    SLICE_FORMAT,
    SliceKey,
    bin_rows,
    read_rows,
    read_slice,
    slice_filename,
    slice_nbytes,
    write_rows,
    write_slice,
)

__all__ = [
    "GoFS",
    "GoFSPartitionView",
    "DEFAULT_PACKING",
    "DEFAULT_BINNING",
    "PREFETCH_LEAD",
]

DEFAULT_PACKING = 10  #: instances per temporal pack (paper's value)
DEFAULT_BINNING = 5  #: subgraphs per spatial bin (paper's value)
PREFETCH_LEAD = 2  #: rows before a pack boundary that arm the prefetch

_MANIFEST = "manifest.json"
_TEMPLATE = "template.gsl"


class GoFS:
    """Static facade over a GoFS store directory."""

    @staticmethod
    def write_collection(
        root: str | Path,
        pg: PartitionedGraph,
        collection: TimeSeriesGraphCollection,
        *,
        packing: int = DEFAULT_PACKING,
        binning: int = DEFAULT_BINNING,
    ) -> dict:
        """Distribute a partitioned collection into slice files.

        Each pack's slices store the attributes some instance of the pack
        has set and only name the rest (``defaults``).  Returns the manifest
        dict (also written to ``manifest.json``).
        """
        if packing < 1 or binning < 1:
            raise ValueError("packing and binning must be >= 1")
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        save_template(root / _TEMPLATE, collection.template)

        # Spatial bins: chunks of `binning` subgraphs per partition.
        bins: list[list[list[int]]] = []
        for part in pg.partitions:
            sgids = sorted(sg.subgraph_id for sg in part.subgraphs)
            bins.append([sgids[i : i + binning] for i in range(0, len(sgids), binning)])

        rows = {
            (p, b): bin_rows([pg.subgraphs[s] for s in sgids])
            for p, part_bins in enumerate(bins)
            for b, sgids in enumerate(part_bins)
        }

        for (p, b), pair in rows.items():
            write_rows(root, p, b, pair)
        T = len(collection)
        num_packs = (T + packing - 1) // packing
        for k in range(num_packs):
            lo, hi = k * packing, min((k + 1) * packing, T)
            instances = [collection.instance(t) for t in range(lo, hi)]
            for (p, b), (verts, edges) in rows.items():
                write_slice(root, SliceKey(p, b, k), verts, edges, instances)

        manifest = {
            "format_version": 1,
            "slice_format": SLICE_FORMAT,
            **pg.fingerprint(T),  # num_timesteps, num_partitions, and what a run is held to
            "t0": collection.t0,
            "delta": collection.delta,
            "packing": packing,
            "binning": binning,
            "bins": bins,
        }
        (root / _MANIFEST).write_text(json.dumps(manifest))
        return manifest

    @staticmethod
    def read_manifest(root: str | Path) -> dict:
        """Load and validate a store's manifest."""
        manifest = json.loads((Path(root) / _MANIFEST).read_text())
        if manifest.get("format_version") != 1:
            raise ValueError("unsupported GoFS manifest version")
        if manifest.get("slice_format") != SLICE_FORMAT:
            raise ValueError(
                f"GoFS store {root} (manifest slice_format {manifest.get('slice_format')!r}) "
                f"is not slice format {SLICE_FORMAT}; rewrite with `GoFS.write_collection`"
            )
        if "vertex_subgraph_crc32" not in manifest:
            raise ValueError(
                f"GoFS store {root} records no dataset fingerprint, so a run cannot tell "
                "whose store it is; rewrite with `GoFS.write_collection`"
            )
        return manifest

    @staticmethod
    def load_template(root: str | Path) -> GraphTemplate:
        """Load the store's shared template."""
        return load_template(Path(root) / _TEMPLATE)

    @staticmethod
    def partition_view(
        root: str | Path,
        partition_id: int,
        *,
        cache_packs: int | None = None,
        cache_bytes: int | None = None,
        prefetch: bool = False,
    ) -> "GoFSPartitionView":
        """Open one partition's instance source."""
        return GoFSPartitionView(
            root, partition_id, cache_packs=cache_packs, cache_bytes=cache_bytes, prefetch=prefetch
        )

    @staticmethod
    def partition_views(
        root: str | Path,
        *,
        cache_packs: int | None = None,
        cache_bytes: int | None = None,
        prefetch: bool = False,
    ) -> list["GoFSPartitionView"]:
        """One view per partition, in partition order (engine ``sources``).

        The manifest and template are read once and shared (read-only) by
        every view; each view still pickles independently and re-reads them
        on unpickle, so process workers never share driver state.
        """
        manifest = GoFS.read_manifest(root)
        template = GoFS.load_template(root)
        return [
            GoFSPartitionView(
                root,
                p,
                cache_packs=cache_packs,
                cache_bytes=cache_bytes,
                prefetch=prefetch,
                manifest=manifest,
                template=template,
            )
            for p in range(manifest["num_partitions"])
        ]


def _check_columns(arrays: PackedArrays, tpl: GraphTemplate, pack_len: int, rows: tuple) -> None:
    """The slice holds exactly the store's schema: every attribute either
    stored with the schema's dtype and shape ``(pack_len, |bin rows|)`` or
    listed under ``defaults`` — never both, never neither, and nothing
    else.  From the header; nothing is decoded."""
    want: dict[str, tuple[np.dtype, list[int]]] = {}
    for prefix, schema, side in zip("ve", (tpl.vertex_schema, tpl.edge_schema), rows):
        for spec in schema:
            want[f"{prefix}__{spec.name}"] = (spec.dtype, [pack_len, side.size])
    stored = set(arrays)
    for name in sorted(stored & arrays.defaults):
        raise ValueError(f"column {name} is both stored and listed under defaults")
    for name in sorted((stored | arrays.defaults) - want.keys()):
        raise ValueError(f"column {name} is not in the schema")
    for name, (dtype, shape) in want.items():
        if name in arrays.defaults:
            continue
        if name not in stored:
            raise ValueError(f"column {name} is missing: neither stored nor listed under defaults")
        entry = arrays.entry(name)
        if np.dtype(entry["dtype"]) != dtype or entry["shape"] != shape:
            raise ValueError(
                f"column {name} is {entry['dtype']} {entry['shape']}, "
                f"schema wants {dtype.str} {shape}"
            )


class _Pack(list):
    """One pack's header-checked bin slices; ``nbytes`` is None until read."""

    def __init__(self, pack: int, slices: list[PackedArrays]) -> None:
        super().__init__(slices)
        self.pack = pack
        self.nbytes: int | None = None

    def read(self, wanted: frozenset[str]) -> float:
        """Read the slices' payloads and decode ``wanted``; returns the seconds."""
        start = time.perf_counter()
        for arrays in self:
            arrays.read_payload()
            for name in wanted:
                if name in arrays:
                    arrays[name]  # decode now: off the compute path when prefetching
        self.nbytes = sum(slice_nbytes(d) for d in self)
        return time.perf_counter() - start


class GoFSPartitionView:
    """Instance source reading one partition's slices, pack by pack.

    Only the rows belonging to this partition's subgraph bins hold values
    in the returned instances; foreign rows read schema defaults — hosts
    never read them.  Instances hold no columns: ``locate(name, rows)``
    answers from the pack in place, ``take`` copies what it locates, and
    ``column(name)`` builds the whole column on first access (each counted
    in :attr:`columns_projected` / :attr:`bytes_projected`), and an instance
    keeps its pack alive, so a read after the pack was evicted — even the one
    that reads it — is still right.  Pickles cheaply (path + partition id +
    settings), so process workers each open their own view.

    Parameters
    ----------
    cache_packs:
        Number of temporal packs kept resident (LRU).  1 — the default, and
        what Fig 6 models — evicts on every pack boundary; larger values
        trade memory for re-load avoidance when algorithms revisit old
        instances (e.g. windowed analyses).  When ``cache_bytes`` is given
        and ``cache_packs`` is not, the count cap is lifted and the byte
        budget alone governs eviction.  The pack compute is currently
        reading is never evicted, so with ``prefetch=True`` the cache
        transiently holds one pack above either budget while the
        prefetched pack waits for compute to cross the boundary
        (double-buffering; steady-state residency is two packs).
    cache_bytes:
        Resident-byte budget for the pack cache.  Packs are evicted oldest
        first until the cache fits; the most recently loaded pack and the
        pack currently being read are never evicted, even if they exceed
        the budget (with ``prefetch=True``, size the budget for at least
        two packs).  Resident bytes feed the GC pause model via
        :meth:`resident_bytes`.
    prefetch:
        Start loading pack *k+1* on a background thread while timestep
        compute is still inside pack *k*.  Triggered once an
        :meth:`instance` access comes within :data:`PREFETCH_LEAD` rows of
        the pack boundary (the penultimate row of a pack).  Results stay
        bit-identical — only the load accounting moves from blocked to
        hidden seconds.
    manifest, template:
        Pre-parsed store metadata shared by views opened together (see
        :meth:`GoFS.partition_views`).  Treated as immutable; not pickled.
    """

    def __init__(
        self,
        root: str | Path,
        partition_id: int,
        *,
        cache_packs: int | None = None,
        cache_bytes: int | None = None,
        prefetch: bool = False,
        manifest: dict | None = None,
        template: GraphTemplate | None = None,
    ) -> None:
        if cache_packs is not None and cache_packs < 1:
            raise ValueError("cache_packs must be >= 1")
        if cache_bytes is not None and cache_bytes < 1:
            raise ValueError("cache_bytes must be >= 1")
        if cache_packs is None and cache_bytes is None:
            cache_packs = 1
        self.root = Path(root)
        self.partition_id = int(partition_id)
        #: Count cap; ``None`` means uncapped (byte budget governs).
        self.cache_packs = cache_packs
        self.cache_bytes = cache_bytes
        self.prefetch_enabled = bool(prefetch)
        self._init_runtime(manifest, template)

    def _init_runtime(
        self, manifest: dict | None = None, template: GraphTemplate | None = None
    ) -> None:
        manifest = GoFS.read_manifest(self.root) if manifest is None else manifest
        if not 0 <= self.partition_id < manifest["num_partitions"]:
            raise ValueError(f"partition {self.partition_id} not in store")
        self.manifest = manifest
        self.template = GoFS.load_template(self.root) if template is None else template
        self._num_bins = len(manifest["bins"][self.partition_id])
        # Unpickling gate for slice reads: only schemas with object columns
        # ever need it; numeric-only stores stay strict.
        self._allow_objects = any(
            spec.is_object
            for schema in (self.template.vertex_schema, self.template.edge_schema)
            for spec in schema
        )
        #: pack id -> per-bin slices, in LRU order (oldest first).
        self._cache: dict[int, _Pack] = {}
        self._resident = 0  # bytes of the cached packs that have been read
        #: Pack the last :meth:`instance` access read — never evicted.
        self._active_pack: int | None = None
        #: (timestep, seconds) for every pack payload read — Fig 6 evidence.
        self.load_events: list[tuple[int, float]] = []
        #: Observability tracer, attached by the owning host when the run is
        #: traced (see :meth:`attach_tracer`).  Deliberately not pickled.
        self.tracer = None
        # Prefetch machinery.  The single-worker pool is created lazily and
        # never pickled; all cache mutation and accounting happens on the
        # owner thread — the worker only reads slice files.
        self._pool: ThreadPoolExecutor | None = None
        self._inflight: dict[int, Future] = {}
        #: Packs absorbed from a prefetch but not yet consumed — their hit
        #: event (waited_s=0) is emitted on first use.
        self._prefetched_ready: set[int] = set()
        #: Blocked and hidden (overlapped) load seconds since the last drain.
        self._pending_load = self._pending_hidden = 0.0
        #: Plain counters, recorded whether or not a tracer is attached.
        self.prefetch_started = 0
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        tpl = self.template
        #: Slice-entry prefix -> (index into a bin's rows pair, schema, |rows|).
        self._sides = {
            "v": (0, tpl.vertex_schema, tpl.num_vertices),
            "e": (1, tpl.edge_schema, tpl.num_edges),
        }
        #: Per-bin ``(vertex rows, edge rows)``, read and checked at opening;
        #: their index per side asked for (:meth:`_row_index`); and the row
        #: plans resolved through it (:meth:`_plan`): ``(prefix, id(rows)) ->
        #: (rows, plan)``, least recently used dropped past a cap that fits
        #: every subgraph's three row arrays.
        sizes, p = (tpl.num_vertices, tpl.num_edges), self.partition_id
        self._bin_rows = [read_rows(self.root, p, b, sizes) for b in range(self._num_bins)]
        self._index: dict[str, np.ndarray] = {}
        self._plans: dict[tuple[str, int], tuple[np.ndarray, list]] = {}
        self._plan_cap = 4 * sum(len(b) for b in manifest["bins"][self.partition_id]) + 8
        #: Reads answered from the packs (one per ``locate`` / ``take`` / first
        #: ``column`` of an instance attribute) and ``len(rows) × itemsize`` each,
        #: in place or copied (``gofs.columns_projected`` / ``.bytes_projected``).
        self.columns_projected = 0
        self.bytes_projected = 0
        #: Slice entries (``"e__latency"``) projected so far.  A payload read
        #: decodes these at read time, so a prefetch thread hides their
        #: unpickle.  Replaced, never mutated: the prefetch thread reads it.
        self.projected: frozenset[str] = frozenset()
        #: False while replaying a checkpoint restore: the I/O still happens
        #: but is not recorded as load evidence (the committed execution's
        #: accounting already covers it).  Bound into each instance built.
        self._recording = True

    def check_dataset(self, fingerprint: dict[str, int]) -> None:
        """Refuse a run over another dataset (:meth:`PartitionedGraph.fingerprint`):
        its rows would be looked up here and read as defaults, or not found."""
        for field, value in fingerprint.items():
            if self.manifest.get(field) != value:
                raise ValueError(
                    f"GoFS store {self.root} was written for {field}="
                    f"{self.manifest.get(field)!r} but the run has {field}={value!r}: it is "
                    "another dataset's store; delete it or match the run to it"
                )

    def attach_tracer(self, tracer) -> None:
        """Record slice loads on ``tracer`` (called by a traced ComputeHost)."""
        self.tracer = tracer

    def close(self) -> None:
        """Shut down the prefetch thread (idempotent; cache is kept)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._inflight.clear()

    # -- pickling: drop the cached packs and prefetch pool, reopen lazily --------------

    def __getstate__(self) -> dict:
        return {
            "root": self.root,
            "partition_id": self.partition_id,
            "cache_packs": self.cache_packs,
            "cache_bytes": self.cache_bytes,
            "prefetch": self.prefetch_enabled,
        }

    def __setstate__(self, state: dict) -> None:
        self.root = state["root"]
        self.partition_id = state["partition_id"]
        self.cache_packs = state.get("cache_packs", 1)
        self.cache_bytes = state.get("cache_bytes")
        self.prefetch_enabled = state.get("prefetch", False)
        self._init_runtime()

    # -- pack cache --------------------------------------------------------------------

    def _read_pack(self, pack: int, payload: bool = False) -> tuple[_Pack, float]:
        """Read and check every bin slice's header of one pack — and with
        ``payload`` (a prefetch), read the pack too.  Safe off-thread: reads
        files and this view's immutable settings only."""
        start = time.perf_counter()
        packing = self.manifest["packing"]
        pack_len = min(packing, self.manifest["num_timesteps"] - pack * packing)
        data = _Pack(pack, [])
        for b in range(self._num_bins):
            key = SliceKey(self.partition_id, b, pack)
            arrays = read_slice(self.root, key, allow_objects=self._allow_objects)
            try:
                _check_columns(arrays, self.template, pack_len, self._bin_rows[b])
            except ValueError as exc:
                raise ValueError(
                    f"GoFS slice {self.root / slice_filename(key)} ({key}) "
                    f"does not match the store's schema: {exc}"
                ) from None
            data.append(arrays)
        if payload:
            data.read(self.projected)
        return data, time.perf_counter() - start

    def _row_index(self, prefix: str) -> np.ndarray:
        """One side's direct-address index: template row -> position among this
        partition's bin rows laid end to end, -1 where no bin holds the row.
        Built on the side's first plan, 4 B per template row; a lookup is one
        gather where a binary search paid 47 ns per unsorted needle."""
        index = self._index.get(prefix)
        if index is None:
            which, _schema, n = self._sides[prefix]
            index = self._index[prefix] = np.full(n, -1, dtype=np.int32)
            lo = 0
            for pair in self._bin_rows:
                have = pair[which]
                index[have] = np.arange(lo, lo + have.size, dtype=np.int32)
                lo += have.size
        return index

    def _plan(self, prefix: str, rows: np.ndarray | None) -> list[tuple]:
        """Where template ``rows`` (``None``: all of them) live in this
        partition's slices: ``(bin, where, pos)`` triples meaning
        ``out[where] = slice_row[pos]``, with ``None`` for "all, in order".

        Resolved once per row array and kept while the array is held —
        arrays passed here (a subgraph's ``edge_index``, ``vertices``, …)
        are treated as immutable.  Rows in no bin get no triple."""
        which, _schema, n = self._sides[prefix]
        if rows is None:
            return [(b, pair[which], None) for b, pair in enumerate(self._bin_rows)]
        key = (prefix, id(rows))
        hit = self._plans.get(key)
        if hit is not None and hit[0] is rows:  # the held array pins the id
            self._plans[key] = self._plans.pop(key)  # most recently used last
            return hit[1]
        if rows.size and not 0 <= rows.min() <= rows.max() < n:
            raise IndexError(f"rows outside [0, {n})")
        # Checked above, before the lookup: a table would wrap a negative row.
        at = self._row_index(prefix)[rows].astype(np.intp)
        plan: list[tuple] = []
        hi = 0
        for b, pair in enumerate(self._bin_rows):
            lo, hi = hi, hi + pair[which].size
            if hi == lo:
                continue
            found = (at >= lo) & (at < hi)
            if found.all():
                plan = [(b, None, at - lo)]
                break
            where = found.nonzero()[0]
            if where.size:
                plan.append((b, where, at[where] - lo))
        if len(self._plans) >= self._plan_cap:
            del self._plans[next(iter(self._plans))]
        self._plans[key] = (rows, plan)
        return plan

    def _locate(
        self, pack_data: _Pack, timestep: int, prefix: str, recording: bool,
        name: str, rows: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """An instance table's locate hook (bound by :meth:`instance`): one
        timestep's ``(values, index)`` of an attribute at template ``rows``.  Rows
        in one bin storing the column (a subgraph's always are) are answered in
        place, by the pack's read-only row and the plan's cached positions; else
        assembled in row order, ``index=None``, foreign or unstored rows default."""
        if pack_data.nbytes is None:
            self._read_payload(pack_data, timestep, recording)
        row = timestep - pack_data.pack * self.manifest["packing"]
        entry = f"{prefix}__{name}"
        _which, schema, n = self._sides[prefix]
        spec, size = schema[name], n if rows is None else len(rows)
        plan = self._plan(prefix, rows)
        if len(plan) == 1 and plan[0][1] is None and entry in pack_data[plan[0][0]]:
            values, index = pack_data[plan[0][0]][entry][row], plan[0][2]
        else:
            values, index = spec.allocate(size), None
            for b, where, pos in plan:
                if entry in pack_data[b]:  # else listed under defaults
                    stored = pack_data[b][entry][row]
                    values[where] = stored if pos is None else stored[pos]
        if recording:
            if entry not in self.projected:
                self.projected = self.projected | {entry}
            nbytes = size * spec.dtype.itemsize
            self.columns_projected += 1
            self.bytes_projected += nbytes
            if self.tracer is not None:
                self.tracer.count("gofs.columns_projected")
                self.tracer.count("gofs.bytes_projected", nbytes)
        return values, index

    def _read_payload(self, pack: _Pack, timestep: int, recording: bool) -> None:
        """Read a pack at its first row read, at ``timestep``, blocking the reader."""
        seconds = pack.read(self.projected)
        if self._cache.get(pack.pack) is pack:  # an evicted pack holds nothing resident
            self._insert_pack(pack.pack, self._cache.pop(pack.pack))
        if recording:
            self._pending_load += seconds
            self.load_events.append((timestep, seconds))
            self._trace_load(timestep, pack.pack, seconds, hidden_s=0.0, prefetched=False)

    def _insert_pack(self, pack: int, data: _Pack) -> None:
        self._cache[pack] = data
        self._resident += data.nbytes or 0
        while self._over_budget():
            # Oldest pack that is neither the one just inserted nor the one
            # compute is currently reading: an absorbed prefetch must never
            # evict the in-use pack — the very next intra-pack access would
            # re-read it synchronously, evicting the prefetched pack in turn
            # and doubling I/O instead of hiding it.
            victim = next(
                (k for k in self._cache if k != pack and k != self._active_pack),
                None,
            )
            if victim is None:
                break  # transiently over budget; evicted on the next insert
            self._resident -= self._cache.pop(victim).nbytes or 0
            self._prefetched_ready.discard(victim)
            if self.tracer is not None and self._recording:
                self.tracer.count("gofs.packs_evicted")

    def _over_budget(self) -> bool:
        if self.cache_packs is not None and len(self._cache) > self.cache_packs:
            return True
        return self.cache_bytes is not None and self._resident > self.cache_bytes

    def _trace_load(
        self, timestep: int, pack: int, seconds: float, *, hidden_s: float, prefetched: bool
    ) -> None:
        if self.tracer is None:
            return
        self.tracer.event(
            "slice_load",
            partition=self.partition_id,
            timestep=timestep,
            pack=pack,
            bins=self._num_bins,
            seconds=seconds,
            hidden_s=hidden_s,
            prefetched=prefetched,
        )
        self.tracer.count("gofs.packs_loaded")

    def _absorb_finished(self) -> None:
        """Fold completed prefetches into the cache (owner thread only)."""
        for pack in [k for k, fut in self._inflight.items() if fut.done()]:
            data, seconds = self._inflight.pop(pack).result()
            if pack in self._cache:
                continue
            self._insert_pack(pack, data)
            if self._recording:
                # Fully hidden: the pack arrived before anyone blocked on it.
                # Load evidence lands on the pack's boundary timestep.
                boundary = pack * self.manifest["packing"]
                self._pending_hidden += seconds
                self.load_events.append((boundary, seconds))
                self._prefetched_ready.add(pack)
                self._trace_load(boundary, pack, seconds, hidden_s=seconds, prefetched=True)

    def _get_pack(self, pack: int, timestep: int) -> _Pack:
        # Mark before absorbing: a prefetched pack landing now must not
        # evict the pack this access is about to read (and may evict the
        # previous pack once compute has moved on to this one).
        self._active_pack = pack
        self._absorb_finished()
        if pack in self._cache:
            self._cache[pack] = self._cache.pop(pack)  # refresh LRU position
            if pack in self._prefetched_ready:
                self._prefetched_ready.discard(pack)
                if self._recording:
                    self.prefetch_hits += 1
                    if self.tracer is not None:
                        self.tracer.event(
                            "prefetch_hit",
                            partition=self.partition_id,
                            timestep=timestep,
                            pack=pack,
                            waited_s=0.0,
                        )
                        self.tracer.count("gofs.prefetch_hits")
            return self._cache[pack]
        fut = self._inflight.pop(pack, None)
        if fut is not None:
            # In flight but not done: block on the remainder.  Only the wait
            # is a stall; the head start stays hidden.
            wait_start = time.perf_counter()
            data, seconds = fut.result()
            waited = time.perf_counter() - wait_start
            self._insert_pack(pack, data)
            if self._recording:
                hidden = max(0.0, seconds - waited)
                self._pending_hidden += hidden
                self.load_events.append((timestep, seconds))
                self.prefetch_hits += 1
                self._trace_load(timestep, pack, seconds, hidden_s=hidden, prefetched=True)
                if self.tracer is not None:
                    self.tracer.event(
                        "prefetch_hit",
                        partition=self.partition_id,
                        timestep=timestep,
                        pack=pack,
                        waited_s=waited,
                    )
                    self.tracer.count("gofs.prefetch_hits")
            return data
        data, seconds = self._read_pack(pack)
        self._insert_pack(pack, data)
        if self._recording and self.prefetch_enabled:
            self.prefetch_misses += 1
            if self.tracer is not None:
                self.tracer.event(
                    "prefetch_miss",
                    partition=self.partition_id,
                    timestep=timestep,
                    pack=pack,
                    seconds=seconds,
                )
                self.tracer.count("gofs.prefetch_misses")
        return data

    # -- prefetch hooks (optional InstanceSource extensions) ---------------------------

    def prefetch(self, timestep: int) -> bool:
        """Start loading ``timestep``'s pack in the background.

        Returns True if a load was scheduled; False when prefetch is
        disabled, the timestep is out of range, or the pack is already
        cached or in flight.  Never blocks.
        """
        if not self.prefetch_enabled:
            return False
        if not 0 <= timestep < self.manifest["num_timesteps"]:
            return False
        self._absorb_finished()
        pack = timestep // self.manifest["packing"]
        if pack in self._cache or pack in self._inflight:
            return False
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"gofs-prefetch-p{self.partition_id}"
            )
        self._inflight[pack] = self._pool.submit(self._read_pack, pack, True)
        if self._recording:
            self.prefetch_started += 1
            if self.tracer is not None:
                self.tracer.event(
                    "prefetch_start",
                    partition=self.partition_id,
                    timestep=timestep,
                    pack=pack,
                )
                self.tracer.count("gofs.prefetch_started")
        return True

    def drain_load(self) -> tuple[float, float]:
        """Return and reset the ``(blocked, hidden)`` load seconds since the last
        drain (ComputeHost's, after each call): first-use reads and prefetches."""
        drained = (self._pending_load, self._pending_hidden)
        self._pending_load = self._pending_hidden = 0.0
        return drained

    # -- recovery hooks ----------------------------------------------------------------

    def reload_instance(self, timestep: int) -> GraphInstance:
        """Instance load for checkpoint-restore replay.

        The I/O genuinely happens when the pack is no longer cached, but it
        is not recorded as load evidence: the committed execution already
        accounted for it, and recovery time is metered separately.
        """
        self._recording = False
        try:
            return self.instance(timestep)
        finally:
            self._recording = True

    # -- InstanceSource protocol -------------------------------------------------------

    def instance(self, timestep: int) -> GraphInstance:
        """Read and check (or cache-hit) ``timestep``'s pack headers; return a lazy instance.

        Everything a header shows — a missing, truncated or mis-typed slice —
        fails here; the instance reads the pack, if nothing has, and its
        values when asked for.
        """
        T = self.manifest["num_timesteps"]
        if not 0 <= timestep < T:
            raise IndexError(f"timestep {timestep} out of range [0, {T})")
        packing = self.manifest["packing"]
        pack, row = divmod(timestep, packing)
        pack_data = self._get_pack(pack, timestep)
        if self.prefetch_enabled and row >= packing - PREFETCH_LEAD:
            self.prefetch((pack + 1) * packing)  # range-checked inside
        tpl = self.template
        return GraphInstance(
            tpl,
            self.manifest["t0"] + timestep * self.manifest["delta"],
            AttributeTable(
                tpl.vertex_schema,
                tpl.num_vertices,
                locate=partial(self._locate, pack_data, timestep, "v", self._recording),
            ),
            AttributeTable(
                tpl.edge_schema,
                tpl.num_edges,
                locate=partial(self._locate, pack_data, timestep, "e", self._recording),
            ),
        )

    def resident_bytes(self) -> int:
        """Bytes of the cached packs that have been read (GC pause model input).

        Maintained incrementally: grows on a read, shrinks on eviction."""
        return self._resident
