"""Simplex-lattice hypergraphs H_{k,q} and their edgewise subdivisions:
Sperner-admissible labelings, exhaustive verification of the 2-colors-per-
hyperedge property, an exact brute-force oracle, file formats, and a CLI.
"""

from ._version import __version__

__all__ = [
    "__version__",
    "Hyperedge",
    "InconsistentPair",
    "Labeling",
    "LabelUndefined",
    "LabelingFormatError",
    "OracleResult",
    "Params",
    "READING_POSITION",
    "READING_SELECTED",
    "READINGS",
    "UnsupportedDimension",
    "VerificationReport",
    "admissible_colors",
    "argmin_index",
    "check_all_pi",
    "check_colors",
    "check_sperner",
    "compare_pi_readings",
    "coordinate",
    "deficiency",
    "edge_colors",
    "enumerate_facets",
    "enumerate_hyperedges",
    "enumerate_vertices",
    "full_report",
    "hyperedge",
    "identity_permutation",
    "is_consistent",
    "is_lattice_point",
    "is_permutation",
    "label",
    "label_all",
    "label_pi",
    "min_max_colors",
    "oracle_result_to_dict",
    "pi_hyperedge",
    "read_labeling",
    "render_svg",
    "report_to_dict",
    "rule_descriptor",
    "selected_index_pi",
    "vertex_rank",
    "vertex_unrank",
    "write_labeling",
    "write_oracle_result",
    "write_report",
]


def __getattr__(name: str):
    """Load the modules behind the public names on the first access to any
    of them (PEP 562), so that importing one module, as the CLI does, loads
    no other."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import io, labeling, lattice, oracle, readers, reference, verify

    for module in (io, labeling, lattice, oracle, readers, reference, verify):
        names = vars(module)
        globals().update((key, names[key]) for key in __all__ if key in names)
    return globals()[name]
