"""Exact workbench for a distance-based edge invariant on cactus graphs.

The package computes the edge revised Szeged index in exact quarter-integer
arithmetic, builds the extremal families, evaluates their closed forms,
exhaustively enumerates cacti by vertex and cycle count, and mechanically
audits the inequality and equality claims that tie all of this together.

``import szegedtools`` runs none of its submodules. Each one is registered
in ``sys.modules`` as a lazy module (``importlib.util.LazyLoader``) that
runs on its first attribute read, and each public name is read from its
submodule on first use (PEP 562). So a program runs only the submodules
whose names it reads, and code that looks the submodules up in
``sys.modules`` finds every one of them.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# The claims ``szegedtools.verify`` checks. Kept here, so that the command
# line can offer them without importing ``verify``.
CLAIM_IDS = (
    "lemma2.1",
    "lemma2.2-2.3",
    "lemma3.1",
    "lemma4.1",
    "lemma4.2",
    "lemma4.3",
    "thm3.2",
    "thm4.4",
)

# The public names of each submodule.
_EXPORTS = {
    "bounds": (
        "BoundCase",
        "FamilyRef",
        "bundle_closed_form",
        "crossover",
        "cycle_diff_bound",
        "inner_cut_edge_bound",
        "inner_cycle_bound",
        "minimum_bound",
        "mix_closed_form",
        "mix_step",
        "pendant_diff_bound",
        "second_minimum_bound",
    ),
    "canon": (
        "CERT_CAP",
        "are_isomorphic",
        "automorphism_count",
        "canonical_form",
        "certificate",
        "labeled_copy_count",
    ),
    "enumeration": (
        "ABSOLUTE_CAP",
        "DEFAULT_CAP",
        "ExtremalReport",
        "ExtremalWitness",
        "cactus_classes",
        "count_cacti",
        "enumerate_cacti",
        "is_feasible",
        "random_cactus",
        "search_extremal",
    ),
    "errors": (
        "CapError",
        "DisconnectedError",
        "FormatError",
        "InfeasibleError",
        "InvalidGraphError",
        "SzegedError",
    ),
    "families": (
        "BundleSpec",
        "as_bundle",
        "bundle",
        "cycle",
        "is_quadrangle_bundle",
        "is_tailed_quadrangle_bundle",
        "path",
        "quadrangle_bundle",
        "star",
        "tailed_quadrangle_bundle",
        "triangle_bundle",
    ),
    "formats": (
        "emit_edge_list",
        "emit_graph6",
        "parse_edge_list",
        "parse_graph6",
    ),
    "graphs": (
        "BlockDecomposition",
        "CactusProfile",
        "Graph",
        "block_decomposition",
        "cactus_profile",
        "cut_edges",
        "graph_from_edges",
        "is_cactus",
        "is_connected",
    ),
    "indices": (
        "EdgePartition",
        "QuarterInt",
        "VertexPartition",
        "diff_square_sum",
        "edge_partition",
        "edge_partitions",
        "edge_revised_szeged",
        "szeged",
        "vertex_partition",
        "wiener",
    ),
    "verify": (
        "Universe",
        "VerificationReport",
        "audit_bundle_floor",
        "audit_cycle_gaps",
        "audit_inner_cut_edge_floor",
        "audit_inner_cycle_floor",
        "audit_off_quadrangle_floor",
        "audit_pendant_edges",
        "feasible_pairs",
        "verify_claim",
        "verify_minimum_exhaustive",
        "verify_minimum_formula",
        "verify_second_minimum",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["CLAIM_IDS", *_SUBMODULE])


def _lazy_submodule(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({module: _lazy_submodule(module) for module in _EXPORTS})


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    # Kept, so that later reads are plain attribute lookups.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
