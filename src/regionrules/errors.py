"""Exception types shared across the package. A class's ``exit_code`` is the
command line's exit status for it: 1 usage, 2 data, 3 infeasible, 4 empty."""


class RegionRulesError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 2


class ConfigError(RegionRulesError):
    """A configuration value violates a precondition (usage error)."""
    exit_code = 1


class ParseError(RegionRulesError):
    """A cell could not be parsed under the declared column kind."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class SchemaError(RegionRulesError):
    """Header/schema mismatch: duplicate, missing, or unknown column."""


class DomainError(RegionRulesError):
    """A value lies outside its documented domain."""


class DegenerateLabelsError(RegionRulesError):
    """Label vector contains a single class; ROC threshold undefined."""


class ShapeError(RegionRulesError):
    """Array lengths or dimensions do not line up."""


class EmptyMatrixError(RegionRulesError):
    """An importance matrix ended up with zero usable rows."""
    exit_code = 4


class NoFeatureError(RegionRulesError):
    """No feature clears the frequency requirement at any threshold."""
    exit_code = 4


class EmptyResultError(RegionRulesError):
    """An operation that must pick from candidates received none."""
    exit_code = 4


class DegenerateFeatureError(RegionRulesError):
    """A feature has too few distinct values to be binned."""


class NoTargetError(RegionRulesError):
    """The target subgroup is empty where it must not be."""


class ZeroSupportError(RegionRulesError):
    """Confidence requested for a rule set no row satisfies."""


class InfeasibleConfigError(RegionRulesError):
    """The configuration cannot be satisfied by the given data."""
    exit_code = 3


class RangeError(RegionRulesError):
    """An index points outside the table."""


class TooLargeError(RegionRulesError):
    """Instance exceeds the tractability guard of the exhaustive oracle."""
    exit_code = 3


class SpecError(RegionRulesError):
    """A synthetic-data spec is internally inconsistent."""
