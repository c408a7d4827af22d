"""Resource vectors shared by Kubernetes scheduling and Work Queue placement.

A :class:`ResourceVector` carries the three dimensions the paper's systems
reason about — CPU cores, memory (MB), and disk (MB). Both the
kube-scheduler ("does this pod fit on this node?") and the Work Queue
master ("does this task fit in this worker's remaining capacity?") use the
same component-wise *fits* partial order, with one fit tolerance, and
the autoscalers size new capacity with one first-fit-decreasing packer.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, List, NoReturn, Optional, Tuple

_new = tuple.__new__

#: The fit tolerance: absorbs float drift from repeated add/subtract of
#: allocations (e.g. 3 × 1/3-core tasks on a 1-core worker). Every fit
#: test, vectorized or over component floats, adds this one constant.
FIT_EPSILON = 1e-9


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
    def fits_in(self, capacity: "ResourceVector") -> bool:
        """True iff this request fits within ``capacity`` component-wise,
        up to :data:`FIT_EPSILON`."""
        return (
            self.cores <= capacity.cores + FIT_EPSILON
            and self.memory_mb <= capacity.memory_mb + FIT_EPSILON
            and self.disk_mb <= capacity.disk_mb + FIT_EPSILON
        )

    def is_zero(self) -> bool:
        return (
            abs(self.cores) <= FIT_EPSILON
            and abs(self.memory_mb) <= FIT_EPSILON
            and abs(self.disk_mb) <= FIT_EPSILON
        )

    def is_nonnegative(self) -> bool:
        return (
            self.cores >= -FIT_EPSILON
            and self.memory_mb >= -FIT_EPSILON
            and self.disk_mb >= -FIT_EPSILON
        )

    def any_positive(self) -> bool:
        """True iff at least one component is strictly positive."""
        return (
            self.cores > FIT_EPSILON
            or self.memory_mb > FIT_EPSILON
            or self.disk_mb > FIT_EPSILON
        )

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


def first_fit_decreasing(
    runs: Iterable[Tuple[ResourceVector, int]], capacity: ResourceVector
) -> int:
    """How many bins of ``capacity`` first-fit-decreasing packing of
    ``runs`` opens. Algorithm 1's WorkersRequired (paper §IV-B, line 25)
    and the cluster autoscaler's new-node estimate both size by it.

    ``runs`` are ``(request, count)`` pairs: ``count`` adjacent requests
    of equal resources. They are sorted stably by cores, which orders
    their requests exactly as a stable sort of the requests would. A
    request larger than ``capacity`` takes a full bin of its own, which
    only requests that fit in zero capacity share.

    Bins are kept as component floats, and the scan start is carried
    over between equal requests. Both preserve the packing bit for bit:
    the comparisons and sums below are exactly the float operations
    ``fits_in(capacity - used)`` and ``used + request`` perform, and once
    a request lands in bin *i* the bins before *i* are unchanged, so they
    would reject an equal next request again; its scan may resume at *i*.
    """
    cap_c, cap_m, cap_d = capacity.cores, capacity.memory_mb, capacity.disk_mb
    bins_c: List[float] = []
    bins_m: List[float] = []
    bins_d: List[float] = []
    prev: Optional[ResourceVector] = None
    start = 0
    for res, count in sorted(runs, key=lambda run: run[0].cores, reverse=True):
        if res != prev:
            prev = res
            start = 0
        if not res.fits_in(capacity):
            bins_c.extend([cap_c] * count)
            bins_m.extend([cap_m] * count)
            bins_d.extend([cap_d] * count)
            continue
        res_c, res_m, res_d = res.cores, res.memory_mb, res.disk_mb
        for _ in range(count):
            for i in range(start, len(bins_c)):
                if (
                    res_c <= (cap_c - bins_c[i]) + FIT_EPSILON
                    and res_m <= (cap_m - bins_m[i]) + FIT_EPSILON
                    and res_d <= (cap_d - bins_d[i]) + FIT_EPSILON
                ):
                    bins_c[i] = bins_c[i] + res_c
                    bins_m[i] = bins_m[i] + res_m
                    bins_d[i] = bins_d[i] + res_d
                    start = i
                    break
            else:
                bins_c.append(res_c)
                bins_m.append(res_m)
                bins_d.append(res_d)
                start = len(bins_c) - 1
    return len(bins_c)
