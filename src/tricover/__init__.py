"""tricover: covering codegree thresholds in 3-uniform hypergraphs.

The package builds the extremal covering-free constructions, verifies every
claim made about them (codegrees, link structure, uncoverability), and
independently confirms the thresholds at small n with an exhaustive search
oracle.
"""

from .blowup import BlowupResult, BlowupSpec, add_edge_list, add_matching_between, blowup
from .constructions import (
    FAMILIES,
    ClaimReport,
    UnsupportedResidueError,
    base_graph,
    check_construction,
    construct,
    construct_h,
    construct_h4,
    construct_t,
    h4_part_sizes,
    link_graph_for,
    lower_bound_certificate,
    verify_claim,
)
from .fileio import (
    FormatError,
    dumps_json,
    from_json_dict,
    load,
    parse_any,
    parse_edge_list,
    save,
    to_json_dict,
    write_edge_list,
)
from .hypergraphs import (
    Graph,
    LinkGraph,
    PairDegreeProfile,
    TriGraph,
    codegree,
    codegree_neighbourhoods,
    complete_trigraph,
    is_triangle_free,
    link_graph,
    min_codegree,
    pair_degree_table,
)
from .koenig import EdgeColoring, bipartite_edge_coloring, coloring_is_valid, complete_bipartite_matchings
from .oracle import CertifyReport, SearchResult, certify_upper_behavior, exact_c2
from .patterns import (
    CoverReport,
    Pattern,
    builtin_pattern,
    clique_profile,
    covered_at,
    covered_by_count,
    covering_obstruction,
    covering_report,
    is_covered,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupResult",
    "BlowupSpec",
    "CertifyReport",
    "ClaimReport",
    "CoverReport",
    "EdgeColoring",
    "FAMILIES",
    "FormatError",
    "Graph",
    "LinkGraph",
    "PairDegreeProfile",
    "Pattern",
    "SearchResult",
    "TriGraph",
    "UnsupportedResidueError",
    "add_edge_list",
    "add_matching_between",
    "base_graph",
    "bipartite_edge_coloring",
    "blowup",
    "builtin_pattern",
    "certify_upper_behavior",
    "check_construction",
    "clique_profile",
    "codegree",
    "codegree_neighbourhoods",
    "coloring_is_valid",
    "complete_bipartite_matchings",
    "complete_trigraph",
    "construct",
    "construct_h",
    "construct_h4",
    "construct_t",
    "covered_at",
    "covered_by_count",
    "covering_obstruction",
    "covering_report",
    "dumps_json",
    "exact_c2",
    "from_json_dict",
    "h4_part_sizes",
    "is_covered",
    "is_triangle_free",
    "link_graph",
    "link_graph_for",
    "load",
    "lower_bound_certificate",
    "min_codegree",
    "pair_degree_table",
    "parse_any",
    "parse_edge_list",
    "save",
    "to_json_dict",
    "verify_claim",
    "write_edge_list",
]
