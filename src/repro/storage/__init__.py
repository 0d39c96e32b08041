"""GoFS storage substrate: slice files with temporal packing + subgraph binning.

See :mod:`repro.storage.gofs` for the store layout and
:mod:`repro.storage.slices` for the on-disk unit.  Substitutes the paper's
GoFS distributed file system (DESIGN.md, substitutions).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".gofs": ("DEFAULT_BINNING", "DEFAULT_PACKING", "GoFS", "GoFSPartitionView"),
    ".serde": ("load_template", "save_template", "schema_from_bytes", "schema_to_bytes"),
    ".slices": (
        "SliceKey", "bin_rows", "read_slice", "slice_filename", "slice_nbytes", "write_slice",
    ),
})
