"""Shared numeric conventions, error types and validation reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Default tolerance of :func:`negligible` and :func:`close`.
DEFAULT_TOL = 1e-9


def negligible(residual: float, scale: float, tol: float = DEFAULT_TOL) -> bool:
    """The tolerance rule of every verdict: ``residual <= tol * max(1, scale)``, as a ``bool``.

    ``scale`` is the size of what the residual is made of; ``tol = 0`` means exact and NaN is
    never negligible.  Exempt, as they decide no verdict: the dust clamp of ``snap_components``,
    the eigenvalue-gap reseed of ``enumerate_characters``, the 9-decimal sort key and
    the exact ``2**53`` guards; the integer rank of the trace verdict; and the independent
    oracle ``matched_vectg_oracle``, which must not share the rule it checks.
    """
    return bool(residual <= tol * max(1.0, scale))


class StructuralError(ValueError):
    """Malformed data: bad shapes, out-of-range indices, inconsistent references."""


class UnsupportedError(ValueError):
    """The input is well-formed but outside the supported fragment."""


class PreconditionError(ValueError):
    """An operation was called on data that violates its stated precondition."""


class NumericError(RuntimeError):
    """A numeric procedure failed to converge or became degenerate."""


class UsageError(ValueError):
    """Unknown builtin name or bad command-line usage."""


def close(x, y, tol: float = DEFAULT_TOL):
    """:func:`negligible` elementwise: ``|x - y| <= tol * max(1, |x|, |y|)``."""
    return np.abs(x - y) <= tol * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))


def require_float_exact(bound: int, what: str) -> None:
    """Refuse an exact integer check whose float64 products could reach ``2**53``.

    ``bound`` is an upper bound on every sum of non-negative integer products
    the check forms; below ``2**53`` each partial sum is an integer float64
    represents exactly, so BLAS results equal the integer ones.
    """
    if bound >= 2**53:
        raise StructuralError(f"{what} too large for exact validation (bound {bound} >= 2^53)")


#: Most bytes one step may allocate for a group or its ring; 16x what ``zn:128`` needs.
BYTE_BUDGET = 2**28


def require_budget(nbytes: int, what: str, *args) -> None:
    """Refuse, from shapes alone, a step that would allocate more than :data:`BYTE_BUDGET`.

    ``what % args`` names the step in the error; it is formatted only then, as the check runs
    on every group table.
    """
    if nbytes > BYTE_BUDGET:
        raise UnsupportedError(f"{what % args} needs {nbytes:,} bytes, over the budget of {BYTE_BUDGET:,}")


def readonly_setstate(self, state: dict) -> None:
    """The ``__setstate__`` of a frozen record: restore ``state`` with its arrays read-only.

    Pickle keeps an array's data but not its flags, so an unpickled array is
    writable; each writable array value of ``state`` is kept as a read-only
    view, which leaves the array itself (a ``copy.copy`` shares it) as it was.
    """
    restored = self.__dict__
    for key, value in state.items():
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value = value.view()
            value.flags.writeable = False
        restored[key] = value


def complex_pair(z: complex) -> list[float]:
    """``[re, im]``, the JSON form of a complex number."""
    return [float(z.real), float(z.imag)]


class Violation(NamedTuple):
    """One failed axiom instance: which law, at which indices, and both sides."""

    axiom: str
    index: tuple
    lhs: object
    rhs: object


def collect_violations(mask, axiom: str, lhs, rhs, out: list, prefix: tuple = ()) -> None:
    """Append one :class:`Violation` per true entry of ``mask``, in row-major order.

    The index is ``prefix`` followed by the entry's position; both sides are
    read with ``.item()``, so integer arrays report Python ``int`` and complex
    arrays Python ``complex``.
    """
    for idx in zip(*np.nonzero(mask)):
        out.append(Violation(axiom, prefix + tuple(int(i) for i in idx), lhs[idx].item(), rhs[idx].item()))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive axiom check; lists every violation found."""

    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.valid

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                [v.axiom, list(v.index), v.lhs, v.rhs] for v in self.violations
            ],
        }
