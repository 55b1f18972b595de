"""Exception types shared across the package.

Validation errors double as violation records: each carries the witness
indices (and the offending value where that makes sense) so callers can
report exactly which constraint broke without re-deriving it.
"""


class MetricUnionError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# metric validation

class MetricValidationError(MetricUnionError):
    """A distance matrix failed one of the metric axioms.

    ``validate_metric`` sets ``violations``, every recorded violation
    (truncated for pathological inputs), and ``total``, the true count.
    """

    def __init__(self, message):
        super().__init__(message)
        self.violations = []
        self.total = 0


class AsymmetryError(MetricValidationError):
    def __init__(self, i, j, gap):
        self.i, self.j, self.gap = i, j, gap
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}] (gap {gap:.3e})")


class NegativeDistanceError(MetricValidationError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"dist[{i}][{j}] = {value!r} < 0")


class NonzeroDiagonal(MetricValidationError):
    def __init__(self, i, value):
        self.i, self.value = i, value
        super().__init__(f"dist[{i}][{i}] = {value!r} != 0")


class ZeroOffDiagonal(MetricValidationError):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] = 0 for distinct points")


class TriangleViolation(MetricValidationError):
    """d(i,j) > d(i,k) + d(k,j) beyond tolerance; ``slack`` is the excess."""

    def __init__(self, i, j, k, slack=0.0):
        self.i, self.j, self.k, self.slack = i, j, k, slack
        super().__init__(
            f"triangle violated: d({i},{j}) > d({i},{k}) + d({k},{j}) "
            f"by {slack:.3e}")


# ---------------------------------------------------------------------------
# partitions and point clouds

class CoverageError(MetricUnionError):
    """Some point of the space belongs to neither side of the partition."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"points not covered by either side: {self.missing}")


class EmptySideError(MetricUnionError):
    def __init__(self, side):
        self.side = side
        super().__init__(f"side {side!r} of the partition is empty")


class CollapsedPairError(MetricUnionError):
    """Two distinct points were mapped to the same image."""

    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"distinct points {i}, {j} have identical images")


# ---------------------------------------------------------------------------
# linear algebra

class NotSymmetricError(MetricUnionError):
    def __init__(self, gap):
        self.gap = gap
        super().__init__(f"matrix is not symmetric (max |M - M.T| = {gap:.3e})")


class ConvergenceError(MetricUnionError):
    """Eigendecomposition failed to converge or failed its residual check."""


class NotEuclidean(MetricUnionError):
    """The metric admits no exact Euclidean realization."""

    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"Gram matrix has negative eigenvalue {self.min_eigenvalue:.6e}")


class LengthMismatchError(MetricUnionError):
    def __init__(self, message="operands have mismatched lengths"):
        super().__init__(message)


# ---------------------------------------------------------------------------
# covers and certificates

class CertificateViolation(MetricUnionError):
    """A certified inequality failed on recheck.  Signals an implementation
    bug, never a valid run outcome."""

    def __init__(self, name, witness, measured, bound):
        self.name, self.witness = name, witness
        self.measured, self.bound = float(measured), float(bound)
        super().__init__(
            f"certificate {name!r} violated at {witness}: "
            f"measured {measured!r} vs bound {bound!r}")


# ---------------------------------------------------------------------------
# Lipschitz extension

class SolverStall(MetricUnionError):
    """The one-point extension solver could not reach the required
    objective within tolerance."""

    def __init__(self, objective, target, message=None):
        self.objective, self.target = float(objective), float(target)
        super().__init__(
            message or f"extension stalled: objective {objective!r} "
                       f"exceeds target {target!r}")


class InconsistentDuplicate(MetricUnionError):
    """Duplicate source points carry different targets."""

    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(
            f"sources {i} and {j} coincide but their targets differ")


# ---------------------------------------------------------------------------
# union embedding

class InputDistortionError(MetricUnionError):
    """A side embedding violates its claimed bi-Lipschitz bounds."""

    def __init__(self, side, measured, bound, witness=None):
        self.side, self.witness = side, witness
        self.measured, self.bound = float(measured), float(bound)
        super().__init__(
            f"side {side!r} embedding out of contract: measured {measured!r} "
            f"vs allowed {bound!r} (witness {witness})")


class AuditViolation(MetricUnionError):
    """A named audit inequality failed; carries the witness pair."""

    def __init__(self, name, witness, measured, bound, entries=None):
        self.name, self.witness = name, witness
        self.measured, self.bound = float(measured), float(bound)
        self.entries = entries
        super().__init__(
            f"audit {name!r} failed at witness {witness}: "
            f"measured {measured!r} vs bound {bound!r}")


# ---------------------------------------------------------------------------
# lower-bound instances

class RetryBudgetExceeded(MetricUnionError):
    def __init__(self, attempts, reason):
        self.attempts, self.reason = attempts, reason
        super().__init__(f"gave up after {attempts} attempts: {reason}")


class SingularPencil(MetricUnionError):
    """A subgraph Laplacian is singular on the complement of constants
    (the subgraph is disconnected), so the spectral sandwich is empty."""

    def __init__(self, which):
        self.which = which
        super().__init__(f"Laplacian {which!r} is singular on ones-complement")


class RangeViolation(MetricUnionError):
    """A measured energy ratio left its certified interval."""

    def __init__(self, which, measured, lo, hi):
        self.which = which
        self.measured, self.lo, self.hi = float(measured), float(lo), float(hi)
        super().__init__(
            f"ratio {which!r} = {measured!r} outside [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# resources

class OutOfMemory(MetricUnionError):
    """A run needed more memory than the process could get.  The CLI
    raises it in place of ``MemoryError``; ``detail`` is that error's
    message (numpy's names the array it could not allocate)."""

    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"out of memory: {detail}" if detail
                         else "out of memory")


# ---------------------------------------------------------------------------
# input handling

class InputError(MetricUnionError):
    """Malformed user input (bad JSON shape, missing fields, bad values)."""
