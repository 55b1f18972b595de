"""Certified embeddings for unions of Euclidean-embeddable metric spaces.

The package embeds a finite metric space partitioned into two sides, each
of which embeds into Euclidean space with known distortion, into a single
Euclidean space with a certified distortion bound.  It also ships the
matching spectral lower-bound construction, a point-set gluing/extension
routine, generators for test instances, and a JSON-speaking CLI.
"""

from .audit import AuditEntry
from .cover import CoverResult, build_cover, f_lip_bound, verify_cover
from .errors import (AsymmetryError, AuditViolation, CertificateViolation,
                     CollapsedPairError, ConvergenceError, CoverageError,
                     EmptySideError, InconsistentDuplicate,
                     InputDistortionError, InputError, LengthMismatchError,
                     MetricUnionError, MetricValidationError,
                     NegativeDistanceError, NonzeroDiagonal, NotEuclidean,
                     NotSymmetricError, OutOfMemory, RangeViolation,
                     RetryBudgetExceeded, SingularPencil, SolverStall,
                     TriangleViolation, ZeroOffDiagonal)
from .glue import (ExternalExtension, GlueInstance, external_extend,
                   glue_instance, glued_metric)
from .instances import (Instance, distort_sides, sample_glue_instance,
                        shortest_path_closure, union_instance)
from .jsonio import (canonical_dumps, load_json, parse_cloud, parse_glue,
                     parse_partition, parse_space, to_jsonable)
from .kirszbraun import PartialMap, extend_one_point, extend_sequential
from .linalg import (PointCloud, SymEigen, direct_sum, mds_best_effort,
                     mds_isometric_embed, pairwise_distances, sym_eigen)
from .lower_bound import (BipartiteSplit, audit_image, build_123_metric,
                          certified_lower_bound, choose_n_for_epsilon,
                          measure_delta, ratio_check, sample_split)
from .metric import (DistortionReport, FiniteMetricSpace, UnionPartition,
                     build_partition, distortion_of, validate_metric)
from .seeds import stream
from .union_embed import (EmbedParams, UnionEmbedding, embed_union,
                          headline_bound, select_alpha)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryError", "AuditEntry", "AuditViolation", "BipartiteSplit",
    "CertificateViolation", "CollapsedPairError", "ConvergenceError",
    "CoverResult", "CoverageError", "DistortionReport", "EmbedParams",
    "EmptySideError", "ExternalExtension", "FiniteMetricSpace",
    "GlueInstance", "InconsistentDuplicate", "InputDistortionError",
    "InputError", "Instance", "LengthMismatchError", "MetricUnionError",
    "MetricValidationError", "NegativeDistanceError", "NonzeroDiagonal",
    "NotEuclidean", "NotSymmetricError", "OutOfMemory", "PartialMap",
    "PointCloud", "RangeViolation", "RetryBudgetExceeded",
    "SingularPencil", "SolverStall", "SymEigen", "TriangleViolation",
    "UnionEmbedding", "UnionPartition", "ZeroOffDiagonal", "audit_image",
    "build_123_metric", "build_cover", "build_partition", "canonical_dumps",
    "certified_lower_bound", "choose_n_for_epsilon", "direct_sum",
    "distort_sides", "distortion_of", "embed_union",
    "extend_one_point", "extend_sequential", "external_extend", "f_lip_bound",
    "glue_instance", "glued_metric", "headline_bound", "load_json",
    "measure_delta", "mds_best_effort", "mds_isometric_embed",
    "pairwise_distances", "parse_cloud", "parse_glue", "parse_partition",
    "parse_space", "ratio_check", "sample_glue_instance", "sample_split",
    "select_alpha", "shortest_path_closure", "stream", "sym_eigen",
    "to_jsonable", "union_instance", "validate_metric", "verify_cover",
]
