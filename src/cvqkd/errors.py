"""Exception types, and the number-check, record and deferred-import helpers of the package.

Everything derives from ``CVQKDError`` so callers (notably the CLI) can
distinguish numeric/domain failures from programming errors. No state
can be unphysical: a two-mode state is built from its modulation and
channel, so an argument that would make one is a ``DomainError``.

The input contract of the public API: a numeric or string argument
outside an operation's domain (a NaN, a bool, None or a str where a
number is due) raises ``DomainError``, or ``PrecisionError`` where it lies
beyond what floats resolve. An argument of the wrong object type, such
as None for a protocol, a channel or a covariance matrix, is a
programming error outside the contract. ``tests/test_contract.py`` is its
test, one table: each value every argument takes, and the error class
and message, or the return, it gives.

Numbers enter once: ``_real`` checks each real argument, which is then
used and stored as a Python float, and ``_integer`` each count, used and
stored as an int. An int beyond the float range raises ``PrecisionError``.
"""

import importlib
import numbers
from collections import namedtuple


class CVQKDError(ValueError):
    """Base class for all domain-level failures."""


class DomainError(CVQKDError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionError(CVQKDError):
    """An argument lies beyond the range where floats represent the result faithfully."""


class UnphysicalInferenceError(CVQKDError):
    """Full-mode inference 2v - 1 would produce a nonpositive variance."""


class TagMismatchError(CVQKDError):
    """Conditional-variance tags do not match the protocol's measurements."""


class InsufficientDataError(CVQKDError):
    """Too few samples to form the requested estimate."""


def _real(value, what: str) -> float:
    """The float of a real number; DomainError for a bool or a non-real, PrecisionError past floats."""
    if value.__class__ is float:  # the abstract-class check alone costs about 0.4 us a call
        return value
    if not isinstance(value, numbers.Real) or value.__class__ is bool:
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int
        raise PrecisionError(f"{what} is an integer beyond the float range") from None


def _integer(value, what: str, kind: str = "an integer") -> int:
    """The int of an integer; DomainError ("<what> must be <kind>") for a bool or a non-integer."""
    if not isinstance(value, (int, numbers.Integral)) or value.__class__ is bool:  # int first
        raise DomainError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _immutable(record, *args):
    raise AttributeError(f"{record.__class__.__name__} is immutable")


def _record(name: str, fields: str):
    """A ``namedtuple`` base for a frozen record class, whose ``__new__`` runs its checks.

    ``_make``, and so ``_replace``, ``copy`` and ``pickle`` rebuild a record by
    calling its class, never with ``tuple.__new__`` or from a saved ``__dict__``:
    each re-runs the checks and recomputes what ``__new__`` derives and stores
    with ``object.__setattr__``, since assignment raises.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__reduce__ = lambda record: (record.__class__, tuple(record))
    base.__setattr__ = base.__delattr__ = _immutable
    return base


class _Deferred:
    """Stands in for a module and imports it on the first attribute read.

    The package imports numpy this way, so ``import cvqkd``, ``import
    cvqkd.cli``, ``cvqkd table``, ``keyrate``, ``distance`` and
    ``verify-ur`` never run numpy's import; the first array operation
    runs it. Each attribute it reads is then kept on the stand-in, so
    later reads cost what a module's do.
    ``importlib.import_module`` makes a thread that reads while another one
    imports wait for the import to finish. ``importlib.util.LazyLoader``
    does not on Python 3.10 and 3.11: its module is readable while it
    executes, and threads making their first array call at once read
    "module 'numpy' has no attribute 'diag'".
    """

    def __init__(self, name: str):
        self._module_name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._module_name), attr)
        setattr(self, attr, value)
        return value
