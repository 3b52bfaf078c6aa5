"""Exception hierarchy.

Two families matter to the CLI exit-code contract: mathematical refusals
(the computation is declined for a sound reason) and input errors (the
request itself was malformed).
"""


class HeightlabError(Exception):
    """Base class for all library errors."""


class MathRefusal(HeightlabError):
    """The computation cannot be certified and is refused (CLI exit 1)."""


class InputError(HeightlabError):
    """Malformed scenario, expression, or usage (CLI exit 2)."""


class ReduciblePolynomial(MathRefusal):
    """Defining polynomial factors over the rationals."""


class NotGalois(MathRefusal):
    """The defining polynomial does not split in its own root field."""


class PrecisionExhausted(MathRefusal):
    """Numeric roots could not be certified at the configured precision."""


class FactorizationExhausted(MathRefusal):
    """An integer has a composite cofactor beyond the factoring budget."""


class IndexDivisor(MathRefusal):
    """Prime divides the index of the power-basis order; splitting refused."""


class ZeroElement(MathRefusal):
    """Operation undefined at the zero element of the field."""


class NotConjugate(MathRefusal):
    """Automorphism does not map the first subfield onto the second."""


class ConditionViolated(MathRefusal):
    """Field pair fails the pairwise Galois condition (fatal mode only)."""


class WitnessFailure(HeightlabError):
    """Internal consistency check failed; indicates a bug, not an outcome."""


class SchemaError(InputError):
    """Scenario document violates the schema."""


class ParseError(InputError):
    """Element expression does not match the grammar."""


class EvalError(InputError):
    """Expression parsed but cannot be evaluated (e.g. division by zero)."""
