"""Exception types shared across the package.

Two families matter to callers: input problems (bad files, bad shapes,
bad parameters) and numeric problems (degenerate steps, non-finite
values, conditioning failures). The CLI maps the first family to exit
code 1 and the second to exit code 2.

Every scalar parameter (hyperparameters, seeds, kernel and solver
settings, the synthetic-data and split parameters) is checked by one
rule, _check_number: a real number that is not a bool, finite as a
float, at or above its bound (above it where the bound is strict) and
below its upper bound where it has one. Counts (k, n, max_iters) and
seeds must also be integers, and d and the polynomial degree whole
numbers. Anything else, None, a string or an integer too large for a
float included, raises the site's own input error (DomainError for
hyperparameters, kernels, the solver and training, DataError for
synthetic data and splits) naming the parameter and the value.
"""
import math
import numbers


class DimensionError(ValueError):
    """Array shapes are inconsistent with the declared geometry."""


class DataError(ValueError):
    """Dataset content is unusable: empty, unparseable, or mislabeled."""


class SchemaError(ValueError):
    """A model file or config does not match the expected schema."""


class DomainError(ValueError):
    """Inputs violate a mathematical domain requirement (e.g. negative
    features passed to an additive histogram kernel)."""


class DegenerateStepError(RuntimeError):
    """A retraction hit a rank-deficient argument; the step cannot be
    completed and the caller should shrink it."""


class NumericError(RuntimeError):
    """A non-finite objective value or gradient appeared at an iterate."""


class ConditioningError(RuntimeError):
    """Jitter escalation exhausted without reaching positive definiteness."""


class PositiveDefiniteError(RuntimeError):
    """A matrix required to be symmetric positive definite is not."""


# Families used by the CLI exit-code mapping.
INPUT_ERRORS = (DimensionError, DataError, SchemaError, DomainError)
NUMERIC_ERRORS = (
    DegenerateStepError,
    NumericError,
    ConditioningError,
    PositiveDefiniteError,
)


def _check_number(value, name, low, *, strict=False, high=None, integer=False,
                  whole=False, error=DomainError):
    """value if it passes the module's scalar rule: a real number (an
    Integral if integer, a whole number if whole) that is not a bool,
    finite as a float, >= low (> low if strict) and < high if high is
    given. Anything else raises error naming name and value."""
    f, got = math.nan, None
    if isinstance(value, numbers.Integral if integer else numbers.Real) and not isinstance(value, bool):
        try:
            f = float(value)
        except OverflowError:  # its repr may exceed Python's int-to-str limit
            got = "a number too large for a float"
    if not (math.isfinite(f) and (f > low if strict else f >= low)
            and (high is None or f < high) and (f.is_integer() or not whole)):
        kind = "an integer" if integer or whole else "a finite number"
        bound = f"{'>' if strict else '>='} {low}" + ("" if high is None else f" and < {high}")
        raise error(f"{name} must be {kind} {bound}, got {got or repr(value)}")
    return value
