"""resdimlab: effective resistances, discrete p-energies, and dimension
estimators on square-based self-similar hierarchies."""

from .hierarchy import (Schedule, PartitionHierarchy, build_hierarchy, adjacency,
                        delta_level, validate_framework, nstar_estimate)
from .resnet import LevelGraph, eff_resistance, trace
from .cornergraph import CornerGraph, corner_graph
from .penergy import build_separation, p_energy, SupSweep, critical_p
from .measure import hier_measure, doubling_check, psi_measure, olds_volume, fekete_limit
from .heat import build_form, ol_ds_heat
from .mixedcarpet import chain_check, evres_fit, qs_diagnostic, gap_report, ScaleCache

__version__ = "0.1.0"
