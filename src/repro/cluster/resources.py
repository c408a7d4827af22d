"""Resource vectors shared by Kubernetes scheduling and Work Queue placement.

A :class:`ResourceVector` carries the three dimensions the paper's systems
reason about — CPU cores, memory (MB), and disk (MB). Both the
kube-scheduler ("does this pod fit on this node?") and the Work Queue
master ("does this task fit in this worker's remaining capacity?") use the
same component-wise *fits* partial order.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NoReturn

_new = tuple.__new__


def _unordered(self: "ResourceVector", other: object) -> NoReturn:
    raise TypeError("resource vectors are partially ordered: use fits_in()")


class ResourceVector(
    namedtuple("ResourceVector", ("cores", "memory_mb", "disk_mb"), defaults=(0.0, 0.0, 0.0))
):
    """An immutable (cores, memory_mb, disk_mb) triple.

    Arithmetic is component-wise; comparisons use the *fits* partial order
    (``a.fits_in(b)`` iff every component of ``a`` is ≤ the corresponding
    component of ``b``). Python's rich comparisons are deliberately not
    overloaded with the partial order, since ``not (a <= b)`` does not
    imply ``b <= a`` for vectors: ``<``, ``<=``, ``>`` and ``>=`` raise
    :class:`TypeError`.

    The vector is a tuple, so construction, hashing and equality run in
    C; it also iterates, indexes and compares equal like the plain tuple
    of its components.
    """

    __slots__ = ()

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __mul__(self, other: object) -> object:
        # A tuple would repeat itself; a vector only scales, via scale().
        return NotImplemented

    __rmul__ = __mul__

    # ---------------------------------------------------------- constructors
    @staticmethod
    def zero() -> "ResourceVector":
        return _new(ResourceVector, (0.0, 0.0, 0.0))

    @staticmethod
    def of_cores(cores: float) -> "ResourceVector":
        """A vector with only the CPU dimension set (common in tests)."""
        return ResourceVector(cores=cores)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        c, m, d = self
        oc, om, od = other
        return _new(ResourceVector, (c + oc, m + om, d + od))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        c, m, d = self
        oc, om, od = other
        return _new(ResourceVector, (c - oc, m - om, d - od))

    def scale(self, factor: float) -> "ResourceVector":
        c, m, d = self
        return _new(ResourceVector, (c * factor, m * factor, d * factor))

    def clamp_floor(self, floor: float = 0.0) -> "ResourceVector":
        """Component-wise max with ``floor`` (used after subtraction)."""
        c, m, d = self
        return _new(ResourceVector, (max(c, floor), max(m, floor), max(d, floor)))

    def max_with(self, other: "ResourceVector") -> "ResourceVector":
        c, m, d = self
        oc, om, od = other
        return _new(ResourceVector, (max(c, oc), max(m, om), max(d, od)))

    def min_with(self, other: "ResourceVector") -> "ResourceVector":
        c, m, d = self
        oc, om, od = other
        return _new(ResourceVector, (min(c, oc), min(m, om), min(d, od)))

    # ------------------------------------------------------------ predicates
    def fits_in(self, capacity: "ResourceVector", epsilon: float = 1e-9) -> bool:
        """True iff this request fits within ``capacity`` component-wise.

        A small epsilon absorbs float drift from repeated add/subtract of
        allocations (e.g. 3 × 1/3-core tasks on a 1-core worker).
        """
        return (
            self.cores <= capacity.cores + epsilon
            and self.memory_mb <= capacity.memory_mb + epsilon
            and self.disk_mb <= capacity.disk_mb + epsilon
        )

    def is_zero(self, epsilon: float = 1e-9) -> bool:
        return (
            abs(self.cores) <= epsilon
            and abs(self.memory_mb) <= epsilon
            and abs(self.disk_mb) <= epsilon
        )

    def is_nonnegative(self, epsilon: float = 1e-9) -> bool:
        return (
            self.cores >= -epsilon
            and self.memory_mb >= -epsilon
            and self.disk_mb >= -epsilon
        )

    def any_positive(self, epsilon: float = 1e-9) -> bool:
        """True iff at least one component is strictly positive."""
        return self.cores > epsilon or self.memory_mb > epsilon or self.disk_mb > epsilon

    # --------------------------------------------------------------- derived
    def dominant_fraction_of(self, capacity: "ResourceVector") -> float:
        """Largest per-dimension fraction of ``capacity`` this vector uses.

        This is the *dominant share*: how many copies of this request fit
        in ``capacity`` is ``floor(1 / dominant_fraction)``. Dimensions with
        zero capacity and zero request are ignored; a positive request
        against zero capacity yields ``inf``.
        """
        fractions = []
        for need, cap in zip(self, capacity):
            if need <= 0:
                continue
            if cap <= 0:
                return float("inf")
            fractions.append(need / cap)
        return max(fractions) if fractions else 0.0

    def copies_fitting_in(self, capacity: "ResourceVector") -> int:
        """How many whole copies of this request fit in ``capacity``."""
        frac = self.dominant_fraction_of(capacity)
        if frac == 0.0:
            return 0 if capacity.is_zero() else 10**9  # a zero request "fits" unboundedly
        if frac == float("inf"):
            return 0
        return int(1.0 / frac + 1e-9)

    def __str__(self) -> str:
        return f"(cores={self.cores:g}, mem={self.memory_mb:g}MB, disk={self.disk_mb:g}MB)"
