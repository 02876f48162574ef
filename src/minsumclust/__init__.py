"""Min-sum k-clustering with outliers.

A primal-dual pseudo-approximation solver with a dual-feasibility
certificate, an exact brute-force oracle for small instances, and runtime
verifiers for the solver's provable guarantees.  The phases of the solver
stay importable from their own modules.
"""

from .generators import GeneratorSpec, generate
from .geometry import DistanceMode, Instance, InstanceError, cluster_cost
from .oracle import AuditReport, OracleError, audit, brute_force_opt, verify_dual_feasible
from .search import Branch, ClusteringResult, DualCertificate, min_sum_clustering

__all__ = [
    "AuditReport",
    "Branch",
    "ClusteringResult",
    "DistanceMode",
    "DualCertificate",
    "GeneratorSpec",
    "Instance",
    "InstanceError",
    "OracleError",
    "audit",
    "brute_force_opt",
    "cluster_cost",
    "generate",
    "min_sum_clustering",
    "verify_dual_feasible",
]

__version__ = "0.1.0"
