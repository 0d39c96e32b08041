"""Binary (de)serialization of templates, schemas, and array containers.

Everything a GoFS store holds — template, bin rows, slices — is one GSL2
container (below).  A template stores its topology arrays raw and its
attribute schemas as small JSON blobs held in ``uint8`` arrays, so loading
one is a file read plus zero-copy views, with no zip walking and no
unpickling.  Round-trip
fidelity is asserted by the test suite via ``GraphTemplate.equals``.

The GSL2 framed container (:func:`write_arrays` /
:func:`unpack_arrays`): a 4-byte magic, a little-endian uint32 header
length, a JSON header describing each array (name, kind, dtype, shape,
offset, nbytes) and naming under ``defaults`` the columns left out because
nothing ever set them, then one contiguous payload holding the raw array
bytes at 64-byte-aligned offsets.  :func:`write_arrays` streams: each
array's buffer goes to the file once, straight from the array.  Every entry
is numeric (``kind: "raw"``; a ragged attribute is two such arrays, see
:mod:`repro.storage.slices`) and deserializes as an ``np.frombuffer`` view
over the file bytes — near-memcpy, no per-array parsing, and no read ever
unpickles.  The header's ``compression`` is always null; a reader refuses
any other value.

Reading is split in three.  *The header* (:func:`unpack_arrays`; of a file,
:func:`open_arrays`): magic, header parse, bounds and size validation of
every entry.  *A file's payload*, in one read on first use
(:meth:`PackedArrays.read_payload`).  *Per array, on first access*: the
``frombuffer`` view, so a reader that never asks for a column never pays
for decoding it.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..graph.attributes import AttributeSchema, AttributeSpec
from ..graph.template import GraphTemplate

__all__ = [
    "save_template",
    "load_template",
    "schema_to_bytes",
    "schema_from_bytes",
    "write_arrays",
    "unpack_arrays",
    "open_arrays",
    "read_arrays",
    "PackedArrays",
    "write_blob",
    "read_blob",
]

GSL2_MAGIC = b"GSL2"
_GSL2_ALIGN = 64


def write_arrays(
    fp: BinaryIO,
    arrays: Mapping[str, np.ndarray],
    *,
    defaults: Iterable[str] = (),
) -> None:
    """Stream named arrays to ``fp`` as one GSL2 buffer — the only writer.

    Header first, then each numeric array's own buffer, written once at its
    64-byte-aligned payload offset; an array of Python objects is a
    ``ValueError``.  ``defaults`` names columns deliberately left out
    (readers serve their schema default).
    """
    entries: list[dict] = []
    blobs: list[np.ndarray] = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.hasobject:
            raise ValueError(f"array {name!r} holds Python objects; GSL2 stores numeric arrays")
        offset += (-offset) % _GSL2_ALIGN
        entries.append({"name": name, "kind": "raw", "dtype": arr.dtype.str,
                        "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes})
        blobs.append(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
        offset += arr.nbytes
    header = {"compression": None, "arrays": entries, "defaults": sorted(defaults)}
    header = json.dumps(header).encode("utf-8")
    fp.write(GSL2_MAGIC + len(header).to_bytes(4, "little") + header)
    written = 0
    for entry, blob in zip(entries, blobs):
        fp.write(b"\x00" * (entry["offset"] - written))
        fp.write(blob)
        written = entry["offset"] + entry["nbytes"]


class PackedArrays(Mapping):
    """Read-only ``name -> array`` view of one GSL2 buffer.

    The header is parsed and validated up front (:func:`unpack_arrays`,
    :func:`open_arrays`); each array is decoded from the payload on its
    first ``[name]`` and kept, as a read-only, zero-copy ``np.frombuffer``
    view (a reader handed one cannot write into a cached pack).  :meth:`entry` answers
    dtype/shape/size questions from the header without decoding anything;
    :attr:`defaults` names the columns the writer left out because they
    hold nothing but their default.
    """

    __slots__ = ("_entries", "_payload", "_decoded", "_file", "defaults")

    def __init__(
        self, entries: dict[str, dict], payload: memoryview, defaults: frozenset[str] = frozenset()
    ) -> None:
        self._entries = entries
        self._payload = payload
        self._file = None  # an unread payload's (path, offset, nbytes, name): open_arrays
        self.defaults = defaults
        self._decoded: dict[str, np.ndarray] = {}

    def read_payload(self) -> None:
        """Read an unread payload in one read: exactly the bytes the header
        was checked against, else a ``ValueError``; errors name the file."""
        if self._payload is None:
            path, offset, nbytes, name = self._file
            try:
                with open(path, "rb") as fp:
                    fp.seek(offset)
                    buf = fp.read()
            except OSError as exc:
                raise OSError(exc.errno, f"{name} cannot be read: {exc.strerror or exc}") from None
            if len(buf) != nbytes:
                raise ValueError(f"{name} changed under the run: {len(buf)} bytes, not {nbytes}")
            self._payload = memoryview(buf)

    @property
    def name(self) -> str | None:
        """What errors call the file this was opened from (:func:`open_arrays`)."""
        return self._file and self._file[3]

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._decoded.get(name)
        if arr is None:
            entry = self._entries[name]  # KeyError for unknown names
            self.read_payload()
            chunk = self._payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
            arr = np.frombuffer(chunk, dtype=np.dtype(entry["dtype"])).reshape(entry["shape"])
            self._decoded[name] = arr
        return arr

    def __contains__(self, name: object) -> bool:
        return name in self._entries  # (Mapping's default would decode)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, name: str) -> dict:
        """Header record of ``name``: kind, dtype, shape, offset, nbytes."""
        return self._entries[name]


def unpack_arrays(buf: bytes, *, size: int | None = None) -> PackedArrays:
    """Open a :func:`write_arrays` buffer as a lazily decoded mapping.

    Eager, so a bad buffer fails here and not at first use: the magic, the
    header, every entry's ``offset + nbytes`` lying inside the payload (of
    the ``size``-byte buffer ``buf`` begins, if given), every entry's kind
    being ``raw`` and its ``nbytes == itemsize * prod(shape)``.
    """
    if buf[:4] != GSL2_MAGIC:
        raise ValueError("not a GSL2 buffer (bad magic)")
    hlen = int.from_bytes(buf[4:8], "little")
    if len(buf) < 8 + hlen:
        raise ValueError(f"GSL2 header truncated: {len(buf) - 8} of {hlen} bytes")
    header = json.loads(buf[8 : 8 + hlen].decode("utf-8"))
    if header["compression"] is not None:
        raise ValueError(
            f"GSL2 payload is {header['compression']}-compressed; "
            "rewrite with `GoFS.write_collection`"
        )
    payload_len = (len(buf) if size is None else size) - 8 - hlen
    entries: dict[str, dict] = {}
    for entry in header["arrays"]:
        name, offset, nbytes = entry["name"], entry["offset"], entry["nbytes"]
        if offset < 0 or nbytes < 0 or offset + nbytes > payload_len:
            raise ValueError(
                f"array {name!r} spans payload bytes [{offset}, {offset + nbytes}) "
                f"but the payload holds {payload_len}"
            )
        if entry["kind"] != "raw":
            raise ValueError(f"array {name!r} has unknown kind {entry['kind']!r}")
        want = np.dtype(entry["dtype"]).itemsize * math.prod(entry["shape"])
        if nbytes != want:
            raise ValueError(
                f"array {name!r} records {nbytes} bytes but "
                f"{entry['dtype']} x {entry['shape']} needs {want}"
            )
        entries[name] = entry
    defaults = header["defaults"]
    if not isinstance(defaults, list) or not all(isinstance(n, str) for n in defaults):
        raise ValueError(f"GSL2 header's defaults is not a list of names: {defaults!r}")
    return PackedArrays(entries, memoryview(buf)[8 + hlen :], frozenset(defaults))


def open_arrays(path: str | Path, *, name: str | None = None) -> PackedArrays:
    """:func:`unpack_arrays` of a file's header alone, checked against the
    file's size; its payload is read on first use.  An ``OSError`` keeps its
    type; it and a malformed header name the file as ``name``."""
    name = name or str(path)
    try:
        with open(path, "rb") as fp:
            size = os.fstat(fp.fileno()).st_size
            head = fp.read(8)
            head += fp.read(min(size, int.from_bytes(head[4:8], "little")))
    except OSError as exc:
        raise OSError(exc.errno, f"{name} cannot be read: {exc.strerror or exc}") from None
    try:
        arrays = unpack_arrays(head, size=size)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{name} is malformed: {exc}") from exc
    arrays._payload, arrays._file = None, (path, len(head), size - len(head), name)
    return arrays


def read_arrays(path: str | Path) -> PackedArrays:
    """:func:`open_arrays` and its payload, now.  A file that is missing,
    unreadable or malformed is a ``ValueError`` naming it."""
    try:
        arrays = open_arrays(path)
        arrays.read_payload()
    except OSError as exc:
        raise ValueError(exc.strerror) from None
    return arrays


def write_blob(path: str | Path, obj) -> tuple[int, str]:
    """Pickle ``obj`` to ``path``; return ``(nbytes, sha256 hex digest)``.

    The checkpoint plane's primitive: one state blob per file, hashed at
    write time so a later read can prove integrity before unpickling.
    """
    import hashlib

    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return len(data), hashlib.sha256(data).hexdigest()


def read_blob(path: str | Path, expected_sha256: str | None = None):
    """Unpickle a :func:`write_blob` file, optionally verifying its hash."""
    data = Path(path).read_bytes()
    if expected_sha256 is not None:
        import hashlib

        digest = hashlib.sha256(data).hexdigest()
        if digest != expected_sha256:
            raise ValueError(
                f"checkpoint blob {path} is corrupt: sha256 {digest} != recorded {expected_sha256}"
            )
    return pickle.loads(data)


def schema_to_bytes(schema: AttributeSchema) -> bytes:
    """Serialize a schema as a JSON list of (name, dtype string or
    ``"ragged"``, default) triples; a default is a number, a bool or null."""
    triples = [
        (s.name, "ragged" if s.ragged else s.dtype.str,
         None if s.default is None else np.asarray(s.default).item())
        for s in schema
    ]
    return json.dumps(triples).encode("utf-8")


def schema_from_bytes(blob: bytes) -> AttributeSchema:
    """Inverse of :func:`schema_to_bytes`."""
    triples = json.loads(blob.decode("utf-8"))
    return AttributeSchema(AttributeSpec(name, dtype, default) for name, dtype, default in triples)


def save_template(path: str | Path, template: GraphTemplate) -> None:
    """Write a template to ``path`` (GSL2 container)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fp:
        write_arrays(fp, {
            "format_version": np.int64(1),
            "name": np.frombuffer(template.name.encode("utf-8"), dtype=np.uint8),
            "num_vertices": np.int64(template.num_vertices),
            "directed": np.int64(template.directed),
            "edge_src": template.edge_src,
            "edge_dst": template.edge_dst,
            "vertex_ids": template.vertex_ids,
            "edge_ids": template.edge_ids,
            "vertex_schema": np.frombuffer(schema_to_bytes(template.vertex_schema), np.uint8),
            "edge_schema": np.frombuffer(schema_to_bytes(template.edge_schema), np.uint8),
        })


def load_template(path: str | Path) -> GraphTemplate:
    """Read a template written by :func:`save_template` (arrays: read-only
    views of the file); a bad file or version is a ``ValueError`` naming it."""
    data = read_arrays(path)
    version = data.get("format_version")
    if version is None or int(version) != 1:
        raise ValueError(f"template {path} has unsupported format version {version}")
    return GraphTemplate(
        int(data["num_vertices"]),
        data["edge_src"],
        data["edge_dst"],
        directed=bool(data["directed"]),
        vertex_ids=data["vertex_ids"],
        edge_ids=data["edge_ids"],
        vertex_schema=schema_from_bytes(data["vertex_schema"].tobytes()),
        edge_schema=schema_from_bytes(data["edge_schema"].tobytes()),
        name=data["name"].tobytes().decode("utf-8"),
    )
