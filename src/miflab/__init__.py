"""Exact computations on maximal intersecting families of k-sets."""

from .family import DEFAULT_MAX_UNIVERSE, Family
from .transversal import (INFINITE_TAU, TransversalReport, brute_force_transversals,
                          tau, transversal_family)
from .constructions import BgFamily, bg_family, complete_family, projective_plane, triangle
from .mif import (CollapseTrace, MifCertificate, chromatic_class, collapse, is_mif,
                  is_one_critical, merge)
from .isp import IspValidation, SetPairSystem, bollobas_sum, extract_isp, validate_isp
from .bounds import (BoundsTable, bollobas_pair_bound, el_lower, eval_bounds,
                     improved_upper, tuza_conjecture_value, tuza_nk_upper,
                     tuza_nkt_upper)

__all__ = [
    "DEFAULT_MAX_UNIVERSE", "Family", "INFINITE_TAU", "TransversalReport",
    "brute_force_transversals", "tau", "transversal_family", "BgFamily",
    "bg_family", "complete_family", "projective_plane", "triangle",
    "CollapseTrace", "MifCertificate", "chromatic_class", "collapse",
    "is_mif", "is_one_critical", "merge", "IspValidation", "SetPairSystem",
    "bollobas_sum", "extract_isp", "validate_isp", "BoundsTable",
    "bollobas_pair_bound", "el_lower", "eval_bounds", "improved_upper",
    "tuza_conjecture_value", "tuza_nk_upper", "tuza_nkt_upper",
]

__version__ = "0.1.0"
