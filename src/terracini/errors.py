"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
the CLI can map them onto stable exit codes without string matching.
"""


class TerraciniError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(TerraciniError):
    """Two operands live over different field specs."""


class ConstructionError(TerraciniError):
    """A handle constructor was given inconsistent or unsupported data."""


class ConfigError(TerraciniError):
    """A run configuration failed validation.  CLI exit code 2."""


class SamplingExhausted(TerraciniError):
    """Resampling hit the retry cap without producing a usable witness."""


class DegenerateWitness(TerraciniError):
    """A witness sits on a non-generic locus where a chart jet is undefined."""


class NoTangentHyperplane(TerraciniError):
    """The tangent spaces at the given witnesses already fill the ambient space."""


class CenterFillsAmbient(TerraciniError):
    """A tangential projection center spans the whole ambient space."""


class BudgetExhausted(TerraciniError):
    """An enumeration exceeded its configured point budget.  CLI exit code 3."""
