"""GoFS storage substrate: slice files with temporal packing + subgraph binning.

See :mod:`repro.storage.gofs` for the store layout and
:mod:`repro.storage.slices` for the on-disk unit.  Substitutes the paper's
GoFS distributed file system (DESIGN.md, substitutions).
"""

from .gofs import (
    DEFAULT_BINNING,
    DEFAULT_PACKING,
    GoFS,
    GoFSPartitionView,
)
from .serde import load_template, save_template, schema_from_bytes, schema_to_bytes
from .slices import SliceKey, bin_rows, read_slice, slice_filename, slice_nbytes, write_slice

__all__ = [
    "DEFAULT_BINNING",
    "DEFAULT_PACKING",
    "GoFS",
    "GoFSPartitionView",
    "load_template",
    "save_template",
    "schema_from_bytes",
    "schema_to_bytes",
    "SliceKey",
    "bin_rows",
    "read_slice",
    "slice_filename",
    "slice_nbytes",
    "write_slice",
]
