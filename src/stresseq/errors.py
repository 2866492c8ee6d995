"""Exception types shared across the package."""


class StressEqError(Exception):
    """Base class for all package errors."""


# --- mesh ---------------------------------------------------------------


class NonConforming(StressEqError):
    """Mesh has a hanging node or a side shared by more than two triangles."""


class InvertedElement(StressEqError):
    """A triangle has non-positive signed area."""


class EmptyDirichlet(StressEqError):
    """The displacement boundary has no sides (zero measure)."""


class IsolatedNeumannVertex(StressEqError):
    """A traction-boundary vertex has no edge to a vertex that could absorb
    its partition-of-unity weight."""


# --- spaces -------------------------------------------------------------


class UnsupportedDegree(StressEqError):
    """Requested polynomial degree is outside the supported range."""


# --- elasticity ---------------------------------------------------------


class SingularSystem(StressEqError):
    """The saddle-point system could not be solved to the required residual."""


# --- equilibration ------------------------------------------------------


class IncompatiblePatch(StressEqError):
    """A local patch problem has constraints that are infeasible beyond
    tolerance (its right-hand side is not orthogonal to the constraint
    null space)."""


# --- harness ------------------------------------------------------------


class ConfigError(StressEqError):
    """Configuration file is missing, malformed, or inconsistent."""


class ProblemError(StressEqError):
    """A run failed while setting up or solving a problem."""


class IoError(StressEqError):
    """Reading or writing an artifact failed."""


# --- estimator ----------------------------------------------------------


class InvalidConstants(ConfigError):
    """Bound constants violate their admissible range; a configuration
    error, since the constants come from the config."""
