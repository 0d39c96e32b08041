"""GoFS: the distributed file store substitute (paper Section IV-A, [18]).

Layout of a store rooted at ``root/``::

    root/template.gsl            — the shared graph template
    root/assignment.gsl          — the partition of every template vertex
    root/manifest.json           — packing/binning/timestep metadata, bins and
                                   the dataset the writer named (format 2)
    root/rows_p*_b*.gsl          — one rows file per (partition, bin)
    root/slice_p*_b*_k*.gsl      — one slice per (partition, bin, pack)

Writing distributes a partitioned collection into slice files with the
paper's temporal packing (default 10) and subgraph binning (default 5).
Each host then reads through a :class:`GoFSPartitionView` — an
:class:`~repro.runtime.host.InstanceSource` that holds one temporal pack,
the one its last ``instance(t)`` served, so a pack's first read is a real,
measurable load spike (Fig 6).  What a view does in ``instance(t)`` is the
pack's header reads: validation against each file's size, schema checks (a
bin's rows are read and checked once, at opening).  The first row read of
the pack reads its bytes, one read per slice file; a pack no row is read
from is never read.  What it does *per read* is the projection:
``table.locate(name, rows)`` answers one timestep's rows in place — the
pack matrix's row and the rows' positions in it, resolved once per row
array through the view's direct-address row index — ``take`` copies them
out, and ``column(name)`` gathers the whole template.  An attribute nobody
reads costs nothing, and one nobody ever set is not stored: slices list it
under ``defaults`` and it reads as its default.

The store is the dataset: :meth:`GoFS.open` returns the partitioned graph
(``decompose`` of the stored assignment), the collection and the views, and
generates and partitions nothing.
"""

from __future__ import annotations

import json
import os
import time
from functools import partial
from pathlib import Path

import numpy as np

from ..graph.attributes import AttributeTable, Ragged, check_ragged
from ..graph.instance import GraphInstance
from ..graph.template import GraphTemplate
from ..graph.collection import TimeSeriesGraphCollection
from ..partition.base import PartitionedGraph
from ..partition.subgraphs import decompose
from .serde import PackedArrays, load_template, read_arrays, save_template, write_arrays
from .slices import (
    RAGGED_VALUES,
    SLICE_FORMAT,
    SliceKey,
    bin_rows,
    read_rows,
    read_slice,
    slice_nbytes,
    write_rows,
    write_slice,
)

__all__ = [
    "GoFS",
    "GoFSPartitionView",
    "DEFAULT_PACKING",
    "DEFAULT_BINNING",
]

DEFAULT_PACKING = 10  #: instances per temporal pack (paper's value)
DEFAULT_BINNING = 5  #: subgraphs per spatial bin (paper's value)

#: The manifest's ``format_version``: 2 = the store records its partition
#: assignment and its dataset (1 did not, so it cannot be opened).
MANIFEST_FORMAT = 2

_MANIFEST = "manifest.json"
_TEMPLATE = "template.gsl"
_ASSIGNMENT = "assignment.gsl"


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
        dataset: dict | None = None,
    ) -> dict:
        """Distribute a partitioned collection into slice files.

        Each pack's slices store the attributes some instance of the pack
        has set and only name the rest (``defaults``).  The partition
        assignment is stored too, and ``dataset`` (what the caller generated,
        as JSON values) goes into the manifest verbatim.  An existing
        manifest is removed first and the new one replaces it last, so a
        write that dies leaves a store no one can open.  Returns the manifest
        dict (also written to ``manifest.json``).
        """
        if packing < 1 or binning < 1:
            raise ValueError("packing and binning must be >= 1")
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        (root / _MANIFEST).unlink(missing_ok=True)
        save_template(root / _TEMPLATE, collection.template)
        with open(root / _ASSIGNMENT, "wb") as fp:
            write_arrays(fp, {"assignment": np.asarray(pg.vertex_partition, dtype=np.int64)})

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
            "format_version": MANIFEST_FORMAT,
            "slice_format": SLICE_FORMAT,
            **pg.fingerprint(T),  # num_timesteps, num_partitions, and what a run is held to
            "t0": collection.t0,
            "delta": collection.delta,
            "packing": packing,
            "binning": binning,
            "bins": bins,
            "dataset": dataset or {},
        }
        tmp = root / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest))
        os.replace(tmp, root / _MANIFEST)
        return manifest

    @staticmethod
    def read_manifest(root: str | Path) -> dict:
        """Load and validate a store's manifest; a missing, garbled or
        outdated one is a ``ValueError`` naming it."""
        path = Path(root) / _MANIFEST
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"GoFS manifest {path} cannot be read: {exc}") from None
        if manifest.get("slice_format") != SLICE_FORMAT:
            raise ValueError(
                f"GoFS store {root} (manifest slice_format {manifest.get('slice_format')!r}) "
                f"is not slice format {SLICE_FORMAT}; rewrite with `GoFS.write_collection`"
            )
        if manifest.get("format_version") != MANIFEST_FORMAT:
            raise ValueError(
                f"GoFS manifest {path} is format {manifest.get('format_version')!r}, not "
                f"{MANIFEST_FORMAT}: it records no partition assignment; rewrite the store "
                "with `GoFS.write_collection`"
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
    def open(
        root: str | Path,
    ) -> tuple[PartitionedGraph, TimeSeriesGraphCollection, list["GoFSPartitionView"]]:
        """The store as a dataset: ``(pg, collection, views)``.

        ``pg`` is ``decompose`` of the stored assignment, held to the
        manifest's fingerprint; ``collection`` has the store's template,
        length, ``t0`` and ``delta``, its instances read by one view over
        every bin; ``views`` are :meth:`partition_views`.  A missing or
        garbled assignment, or one that decomposes to another partitioning,
        is a ``ValueError`` naming the file.
        """
        root = Path(root)
        manifest = GoFS.read_manifest(root)
        template = GoFS.load_template(root)
        path, k = root / _ASSIGNMENT, manifest["num_partitions"]
        assignment = read_arrays(path).get("assignment")
        try:
            if assignment is None or assignment.dtype != np.int64:
                raise ValueError("it holds no int64 array 'assignment'")
            pg = decompose(template, assignment, k)
        except ValueError as exc:
            raise ValueError(f"GoFS assignment {path}: {exc}") from None
        for field, value in pg.fingerprint(manifest["num_timesteps"]).items():
            if manifest.get(field) != value:
                raise ValueError(
                    f"GoFS assignment {path} decomposes to {field}={value!r} but the manifest "
                    f"records {field}={manifest.get(field)!r}; rewrite the store"
                )
        views = [GoFSPartitionView(root, p, manifest=manifest, template=template) for p in range(k)]
        store = GoFSPartitionView(root, None, manifest=manifest, template=template)
        collection = TimeSeriesGraphCollection(
            template, store, t0=manifest["t0"], delta=manifest["delta"]
        )
        return pg, collection, views

    @staticmethod
    def partition_views(root: str | Path) -> list["GoFSPartitionView"]:
        """One view per partition, in partition order (engine ``sources``).

        The manifest and template are read once and shared (read-only) by
        every view; each view still pickles independently and re-reads them
        on unpickle, so process workers never share driver state.
        """
        manifest = GoFS.read_manifest(root)
        template = GoFS.load_template(root)
        return [
            GoFSPartitionView(root, p, manifest=manifest, template=template)
            for p in range(manifest["num_partitions"])
        ]


def _check_columns(arrays: PackedArrays, tpl: GraphTemplate, pack_len: int, rows: tuple) -> None:
    """The slice holds exactly the store's schema: every attribute either
    stored with the schema's dtype and shape ``(pack_len, |bin rows|)`` — a
    ragged one as 1-D int64 keys plus 1-D int64 values — or listed under
    ``defaults``: never both, never neither, and nothing else.  From the
    header; nothing is decoded."""
    want: dict[str, tuple[str, np.dtype, list[int] | None]] = {}
    for prefix, schema, side in zip("ve", (tpl.vertex_schema, tpl.edge_schema), rows):
        for spec in schema:
            name = f"{prefix}__{spec.name}"
            want[name] = (name, spec.dtype, None if spec.ragged else [pack_len, side.size])
            if spec.ragged:
                want[name + RAGGED_VALUES] = (name, spec.dtype, None)
    stored = set(arrays)
    for name in sorted(stored & arrays.defaults):
        raise ValueError(f"column {name} is both stored and listed under defaults")
    for name in sorted((stored | arrays.defaults) - want.keys()):
        raise ValueError(f"column {name} is not in the schema")
    for name, (column, dtype, shape) in want.items():
        if column in arrays.defaults:
            continue
        if name not in stored:
            raise ValueError(f"column {name} is missing: neither stored nor listed under defaults")
        entry = arrays.entry(name)
        shape_ok = len(entry["shape"]) == 1 if shape is None else entry["shape"] == shape
        if np.dtype(entry["dtype"]) != dtype or not shape_ok:
            raise ValueError(
                f"column {name} is {entry['dtype']} {entry['shape']}, "
                f"schema wants {dtype.str} {shape or '1-D'}"
            )


class _Pack(list):
    """One pack's header-checked bin slices; ``nbytes`` is None until read."""

    def __init__(self, pack: int, pack_len: int) -> None:
        super().__init__()
        self.pack, self.pack_len = pack, pack_len
        self.nbytes: int | None = None

    def read(self, wanted: frozenset[str], ragged: list[tuple[str, int]], bin_rows: list[tuple]) -> float:
        """Read the slices' payloads, check their ``ragged`` columns' keys
        (outside input a kernel indexes by: below ``pack_len × |bin rows|`` of
        the entry's side) and decode ``wanted``; returns the seconds."""
        start = time.perf_counter()
        for arrays, rows in zip(self, bin_rows):
            arrays.read_payload()
            for name, which in ragged:
                if name in arrays:
                    check_ragged(
                        arrays[name], arrays[name + RAGGED_VALUES], self.pack_len * rows[which].size,
                        f"{arrays.name}: column {name}'s keys",
                    )
            for name in wanted:
                if name in arrays:
                    arrays[name]  # decode now: a pack read is load, not compute
        self.nbytes = sum(slice_nbytes(d) for d in self)
        return time.perf_counter() - start


class GoFSPartitionView:
    """Instance source reading one partition's slices, pack by pack.

    Only the rows belonging to this partition's subgraph bins hold values
    in the returned instances; foreign rows read schema defaults — hosts
    never read them.  Instances hold no columns: ``locate(name, rows)``
    answers from the pack in place, ``take`` copies what it locates, and
    ``column(name)`` builds the whole column on first access (each counted
    in :attr:`columns_projected` / :attr:`bytes_projected`).  The view holds
    one pack, the one its last :meth:`instance` served: an instance of another
    pack drops it (Fig 6's load on every pack boundary).  An instance keeps
    its own pack alive, so a read after the view dropped it — even the one
    that reads it — is still right.  Pickles cheaply (path + partition id),
    so process workers each open their own view.  ``partition_id=None``
    reads every partition's bins: the instances of :meth:`GoFS.open`'s
    collection.

    Parameters
    ----------
    manifest, template:
        Pre-parsed store metadata shared by views opened together (see
        :meth:`GoFS.partition_views`).  Treated as immutable; not pickled.
    """

    def __init__(
        self,
        root: str | Path,
        partition_id: int | None,
        *,
        manifest: dict | None = None,
        template: GraphTemplate | None = None,
    ) -> None:
        self.root = Path(root)
        self.partition_id = p = None if partition_id is None else int(partition_id)
        manifest = GoFS.read_manifest(self.root) if manifest is None else manifest
        if p is not None and not 0 <= p < manifest["num_partitions"]:
            raise ValueError(f"partition {p} not in store")
        self.manifest = manifest
        self.template = GoFS.load_template(self.root) if template is None else template
        #: The ``(partition, bin)`` pairs this view reads, in order.
        self._bins = [
            (q, b) for q in (range(manifest["num_partitions"]) if p is None else (p,))
            for b in range(len(manifest["bins"][q]))
        ]
        self._num_bins = len(self._bins)
        #: Slice entries of the ragged attributes, checked on every pack read.
        sides = zip("ve", (self.template.vertex_schema, self.template.edge_schema))
        self._ragged = [
            (f"{p}__{spec.name}", which) for which, (p, schema) in enumerate(sides)
            for spec in schema if spec.ragged
        ]
        #: The pack the last :meth:`instance` served (its headers; its bytes
        #: once a row was read).
        self._pack: _Pack | None = None
        #: (timestep, seconds) for every pack payload read — Fig 6 evidence.
        self.load_events: list[tuple[int, float]] = []
        #: Observability tracer, attached by the owning host when the run is
        #: traced (see :meth:`attach_tracer`).  Deliberately not pickled.
        self.tracer = None
        #: Load seconds since the last :meth:`drain_load`.
        self._pending_load = 0.0
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
        sizes = (tpl.num_vertices, tpl.num_edges)
        self._bin_rows = [read_rows(self.root, q, b, sizes) for q, b in self._bins]
        self._index: dict[str, np.ndarray] = {}
        self._plans: dict[tuple[str, int], tuple[np.ndarray, list]] = {}
        self._plan_cap = 4 * sum(len(manifest["bins"][q][b]) for q, b in self._bins) + 8
        #: Reads answered from the packs (one per ``locate`` / ``take`` / first
        #: ``column`` of an instance attribute) and ``len(rows) × itemsize`` each,
        #: in place or copied (``gofs.columns_projected`` / ``.bytes_projected``).
        self.columns_projected = 0
        self.bytes_projected = 0
        #: Slice entries (``"e__latency"``) projected so far; a payload read
        #: decodes them as it reads.
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

    def __reduce__(self):
        # A view pickles as its path: whoever unpickles it reopens the store.
        return GoFSPartitionView, (self.root, self.partition_id)

    # -- the held pack -----------------------------------------------------------------

    def _read_pack(self, pack: int) -> _Pack:
        """Read and check every bin slice's header of one pack."""
        packing = self.manifest["packing"]
        pack_len = min(packing, self.manifest["num_timesteps"] - pack * packing)
        data = _Pack(pack, pack_len)
        for (q, b), rows in zip(self._bins, self._bin_rows):
            arrays = read_slice(self.root, SliceKey(q, b, pack))
            try:
                _check_columns(arrays, self.template, pack_len, rows)
            except ValueError as exc:
                raise ValueError(f"{arrays.name} does not match the store's schema: {exc}") from None
            data.append(arrays)
        return data

    def _row_index(self, prefix: str) -> np.ndarray:
        """One side's direct-address index: template row -> position among this
        view's bin rows laid end to end (a row two bins hold: the last), -1
        where no bin holds the row.
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
        view's slices: ``(bin, where, pos)`` triples meaning
        ``out[where] = slice_row[pos]``, with ``None`` for "all, in order".

        Resolved once per row array and kept while the array is held —
        arrays passed here (a subgraph's ``edge_index``, ``vertices``, …)
        are treated as immutable.  Rows in no bin get no triple, and a row
        two bins hold (a cut edge, over every partition) one."""
        which, _schema, n = self._sides[prefix]
        if rows is None:  # each bin's rows, less those the index sends to a later bin
            plan, at, hi = [], self._row_index(prefix), 0
            for b, pair in enumerate(self._bin_rows):
                have = pair[which]
                lo, hi = hi, hi + have.size
                mine = at[have] == np.arange(lo, hi)
                plan.append((b, have, None) if mine.all() else (b, have[mine], mine.nonzero()[0]))
            return plan
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
        assembled in row order, ``index=None``, foreign or unstored rows default.
        A ragged attribute's values are :class:`Ragged`: in place, the bin's
        rows at the timestep (:meth:`_cells`)."""
        if pack_data.nbytes is None:
            self._read_payload(pack_data, timestep, recording)
        row = timestep - pack_data.pack * self.manifest["packing"]
        entry = f"{prefix}__{name}"
        which, schema, n = self._sides[prefix]
        spec, size = schema[name], n if rows is None else len(rows)
        plan = self._plan(prefix, rows)
        if len(plan) == 1 and plan[0][1] is None and entry in pack_data[plan[0][0]]:
            b, _where, index = plan[0]
            if spec.ragged:
                values = self._cells(pack_data, b, entry, which, row)
            else:
                values = pack_data[b][entry][row]
        else:
            values, index, pieces = spec.allocate(size), None, []
            for b, where, pos in plan:
                if entry not in pack_data[b]:
                    continue  # listed under defaults
                if spec.ragged:
                    cells = self._cells(pack_data, b, entry, which, row)
                    pieces.append((where, cells if pos is None else cells.take(pos)))
                else:
                    stored = pack_data[b][entry][row]
                    values[where] = stored if pos is None else stored[pos]
            if pieces:  # each piece's rows at its `where`, the rest empty
                values = Ragged.group(
                    np.concatenate([where[c.owners] for where, c in pieces]),
                    np.concatenate([c.values for _, c in pieces]),
                    size,
                )
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

    def _cells(self, pack: _Pack, b: int, entry: str, which: int, row: int) -> Ragged:
        """Bin ``b``'s rows of ragged ``entry`` at pack row ``row``: the keys
        ``row × |bin rows|`` up to the next timestep's, zero-based."""
        size, stored = self._bin_rows[b][which].size, pack[b]
        cells = Ragged(pack.pack_len * size, stored[entry], stored[entry + RAGGED_VALUES])
        return cells.rows(row * size, (row + 1) * size)

    def _read_payload(self, pack: _Pack, timestep: int, recording: bool) -> None:
        """Read a pack at its first row read, at ``timestep``, blocking the reader."""
        seconds = pack.read(self.projected, self._ragged, self._bin_rows)
        if not recording:
            return
        self._pending_load += seconds
        self.load_events.append((timestep, seconds))
        if self.tracer is not None:
            self.tracer.event(
                "slice_load",
                partition=self.partition_id,
                timestep=timestep,
                pack=pack.pack,
                bins=self._num_bins,
                seconds=seconds,
            )
            self.tracer.count("gofs.packs_loaded")

    def drain_load(self) -> float:
        """Return and reset the load seconds since the last drain (ComputeHost's,
        after each call): the pack reads its instances' first row reads made."""
        drained, self._pending_load = self._pending_load, 0.0
        return drained

    # -- recovery hooks ----------------------------------------------------------------

    def reload_instance(self, timestep: int) -> GraphInstance:
        """Instance load for checkpoint-restore replay.

        The I/O genuinely happens when the view no longer holds the pack, but it
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
        """Read and check ``timestep``'s pack headers, unless the view holds the
        pack already; return a lazy instance.

        Everything a header shows — a missing, truncated or mis-typed slice —
        fails here; the instance reads the pack, if nothing has, and its
        values when asked for.
        """
        T = self.manifest["num_timesteps"]
        if not 0 <= timestep < T:
            raise IndexError(f"timestep {timestep} out of range [0, {T})")
        pack = timestep // self.manifest["packing"]
        pack_data = self._pack
        if pack_data is None or pack_data.pack != pack:
            pack_data = self._pack = self._read_pack(pack)
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

    def __len__(self) -> int:
        return self.manifest["num_timesteps"]

    #: A view is the sequence of its timesteps' instances (a collection's ``instances``).
    __getitem__ = instance

    def resident_bytes(self) -> int:
        """Bytes of the held pack once it has been read (GC pause model input)."""
        pack = self._pack
        return 0 if pack is None else pack.nbytes or 0
