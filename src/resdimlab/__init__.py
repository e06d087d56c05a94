"""resdimlab: effective resistances, discrete p-energies, and dimension
estimators on square-based self-similar hierarchies."""

from .hierarchy import (Schedule, PartitionHierarchy, build_hierarchy, adjacency,
                        delta_level, validate_framework, nstar_estimate)
from .resnet import (LevelGraph, eff_resistance, trace, resistance_weights,
                     min_energy_flow, localized_resistance, cross_weight_decay,
                     pinv_resistance)
from .cornergraph import CornerGraph, corner_graph
from .penergy import (build_separation, p_energy, sup_energy, critical_p,
                      p_spectral_dims)
from .measure import hier_measure, doubling_check, psi_measure, olds_volume, fekete_limit
from .heat import build_form, form_from_graph, heat_kernel, ol_ds_heat, ds_pointwise
from .mixedcarpet import (chain_check, evres_fit, delta_pair,
                          qs_diagnostic, gap_report, ScaleCache)

__version__ = "0.1.0"
