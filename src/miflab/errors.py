"""Exception types shared across the package, and the input checks that
more than one layer applies: an integer parameter, a universe size against
its cap, and a JSON document.

Exit-code mapping used by the CLI:
  * math-negative verdicts (1): NotMifError, CoveredPairError, InvalidIspError
  * usage / malformed input (2): every other MiflabError subclass
  * budget exhaustion (3): BudgetExceededError
VerificationError signals an internal re-verification failure and is never
caught; it means a solver bug, not bad input.
"""

import json


class MiflabError(Exception):
    pass


class FormatError(MiflabError):
    """Malformed family / ISP / checkpoint input."""


class UniverseOverflowError(MiflabError):
    """Construction or input needs more points than the configured cap."""


class ParameterOutOfRangeError(MiflabError):
    pass


class UnsupportedOrderError(MiflabError):
    """Projective plane order outside the supported set."""


class EmptyFamilyError(MiflabError):
    pass


class EmptyBlockError(MiflabError):
    pass


class OracleTooLargeError(MiflabError):
    """Brute-force oracle invoked beyond its point-count guard."""


class NotUniformError(MiflabError):
    pass


class NotIntersectingError(MiflabError):
    pass


class NotMifError(MiflabError):
    pass


class SamePointError(MiflabError):
    pass


class CoveredPairError(MiflabError):
    """Some block contains both points of the pair being merged."""


class InvalidIspError(MiflabError):
    pass


class UnsupportedKError(MiflabError):
    """Exhaustive MIF search refused beyond desk scale."""


class UnsupportedParamsError(MiflabError):
    """ISP search parameters outside the desk-scale whitelist."""


class BudgetExceededError(MiflabError):
    def __init__(self, message, nodes=None, checkpoint_path=None):
        super().__init__(message)
        self.nodes = nodes
        self.checkpoint_path = checkpoint_path


class VerificationError(MiflabError):
    """An internal cross-check that is mathematically guaranteed failed."""


def _check_int(name: str, value, least: int | None = None) -> None:
    """Refuse a value that is no int (a bool is refused too) or is below least."""
    if type(value) is not int:
        raise ParameterOutOfRangeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParameterOutOfRangeError(f"{name} must be at least {least}, got {value}")


def _check_universe(universe: int, max_universe: int | None, what: str | None = None) -> None:
    """Refuse a universe above max_universe (None means no cap); what names
    the construction that needs it."""
    if max_universe is not None and universe > max_universe:
        raise UniverseOverflowError(
            f"{what} needs {universe} points, cap is {max_universe}" if what
            else f"universe {universe} exceeds the configured cap {max_universe}")


def _load_json(text: str):
    """json.loads, with a parse error reported as FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
