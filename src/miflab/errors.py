"""Exception types shared across the package, the input checks that more
than one layer applies (an integer parameter, an optional count, a
universe size against its cap, a JSON document), the package's JSON
output bytes, and the base of its result records.

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
    """Search parameters outside the desk-scale whitelist, or whose
    candidate lists could exceed MAX_LIST_ENTRIES (search.py)."""


class BudgetExceededError(MiflabError):
    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class VerificationError(MiflabError):
    """An internal cross-check that is mathematically guaranteed failed."""


def _check_int(name: str, value, least: int | None = None) -> None:
    """Refuse a value that is no int (a bool is refused too) or is below least."""
    if type(value) is not int:
        raise ParameterOutOfRangeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParameterOutOfRangeError(f"{name} must be at least {least}, got {value}")


def _check_count(name: str, value) -> None:
    """Refuse an optional count that is not None and is no int >= 0."""
    if value is not None:
        _check_int(name, value, 0)


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


def _dump_json(obj) -> str:
    """The package's JSON bytes: compact, keys in insertion order."""
    return json.dumps(obj, separators=(",", ":"))


class _JsonOut:
    """to_json for a class with to_json_obj: the compact bytes of that
    object."""

    __slots__ = ()

    def to_json(self) -> str:
        return _dump_json(self.to_json_obj())


class _Record:
    """Base of the package's immutable result records.

    The fields are the names the class annotates, in order; a class
    attribute of the same name is that field's default.  Like a frozen
    dataclass, a record is built from its fields by position or keyword,
    compares equal to a record of the same class with equal fields, hashes
    and prints as the tuple of its fields (``Name(field=value, ...)``), and
    refuses assignment and deletion."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call, in order, the defaults filled in;
        TypeError unless the call gives every field without a default and
        no field twice."""
        fields = cls._fields
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or kwargs.keys() - fields[len(args):]
                or len(values) != len(fields)):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}, "
                            "each given once by position or keyword")
        return [values[field] for field in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{field}={getattr(self, field)!r}" for field in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
