"""Property: the tuple-backed value types equal the literal dataclasses.

:class:`~repro.cluster.resources.ResourceVector`, the seven per-event
records and :class:`~repro.wq.task.FileSpec` are tuples;
:mod:`tests.reference.values_literal` keeps them as the frozen
dataclasses they replaced. For vectors drawn from ±0.0,
subnormals, ±inf, NaN, 1/3, 0.9 and large magnitudes, every vector
operation must return the literal's value bit for bit: floats are
compared by ``struct.pack("d")``, so ``-0.0`` and ``0.0`` differ. Only a
NaN's sign is not compared: with two NaN operands CPython's specialized
and generic float paths may pick either operand's sign, for the literal
as much as for the tuple-backed code. Hash, ``repr``, ``str`` and iteration must match
too, and so must each record's fields, defaults, hash and ``repr``. Both
kinds of value refuse assignment.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import api, pod
from repro.cluster.resources import ResourceVector
from repro.hta import estimator
from repro.wq import dispatch, journal, task
from tests.reference import values_literal as literal

SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    math.inf, -math.inf, math.nan, -math.nan,
    1 / 3, 0.9, -0.9, 1.0, 2.0, 1e-9, -1e-9, 1e300, -1e300, 1.7976931348623157e308,
    0, 1, 3,
]
components = st.one_of(st.sampled_from(SPECIALS), st.floats())
vectors = st.tuples(components, components, components)


def _bits(x):
    if isinstance(x, float):
        return ("float", "nan" if math.isnan(x) else struct.pack("d", x))
    return (type(x).__name__, repr(x))


def _vec_bits(v):
    return type(v).__name__, tuple(_bits(getattr(v, f)) for f in ("cores", "memory_mb", "disk_mb"))


def _outcome(fn):
    """What ``fn()`` returns, or the type of what it raises, comparably."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return ("raises", type(exc))
    if isinstance(value, (ResourceVector, literal.ResourceVector)):
        return ("vector", _vec_bits(value), repr(value), str(value))
    return ("value", _bits(value))


def _has_nan(v) -> bool:
    return any(isinstance(x, float) and math.isnan(x) for x in (v.cores, v.memory_mb, v.disk_mb))


@settings(max_examples=400, deadline=None)
@given(a=vectors, b=vectors, x=components)
@example(a=(-0.0, 0.0, math.nan), b=(0.0, -0.0, 1.0), x=-0.0)
@example(a=(0.0, -0.0, 1.0), b=(-0.0, 0.0, math.nan), x=0.0)
def test_vector_operations_match_literal_bit_for_bit(a, b, x):
    fa, fb = ResourceVector(*a), ResourceVector(*b)
    la, lb = literal.ResourceVector(*a), literal.ResourceVector(*b)
    ops = {
        "add": lambda u, v: u + v,
        "sub": lambda u, v: u - v,
        "scale": lambda u, v: u.scale(x),
        "clamp_floor": lambda u, v: u.clamp_floor(),
        "clamp_floor(x)": lambda u, v: u.clamp_floor(x),
        "max_with": lambda u, v: u.max_with(v),
        "min_with": lambda u, v: u.min_with(v),
        "fits_in": lambda u, v: u.fits_in(v),
        "is_zero": lambda u, v: u.is_zero(),
        "is_nonnegative": lambda u, v: u.is_nonnegative(),
        "any_positive": lambda u, v: u.any_positive(),
        "dominant_fraction_of": lambda u, v: u.dominant_fraction_of(v),
        "copies_fitting_in": lambda u, v: u.copies_fitting_in(v),
    }
    for name, op in ops.items():
        assert _outcome(lambda: op(fa, fb)) == _outcome(lambda: op(la, lb)), name
        if name in ("add", "sub", "max_with", "min_with"):
            fast, lit = op(fa, fb), op(la, lb)
            if not _has_nan(fast):
                assert hash(fast) == hash(lit), name
    # Same component objects, so even NaN components hash alike.
    assert hash(fa) == hash(la)
    assert repr(fa) == repr(la)
    assert str(fa) == str(la)
    assert [_bits(c) for c in fa] == [_bits(c) for c in la]
    assert fa == fa and (fa == fb) == (la == lb)


def test_vector_constructors_and_defaults_match_literal():
    for fast, lit in (
        (ResourceVector(), literal.ResourceVector()),
        (ResourceVector(cores=2), literal.ResourceVector(cores=2)),
        (ResourceVector(1.5, disk_mb=7.0), literal.ResourceVector(1.5, disk_mb=7.0)),
        (ResourceVector.zero(), literal.ResourceVector.zero()),
        (ResourceVector.of_cores(0.25), literal.ResourceVector.of_cores(0.25)),
    ):
        assert _vec_bits(fast) == _vec_bits(lit)
        assert repr(fast) == repr(lit) and hash(fast) == hash(lit)


def test_vector_is_immutable_and_unordered():
    v = ResourceVector(1.0, 2.0, 3.0)
    for name in ("cores", "memory_mb", "disk_mb", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0.0)
    w = ResourceVector(2.0, 3.0, 4.0)
    for compare in (
        lambda: v < w, lambda: v <= w, lambda: v > w, lambda: v >= w,
        lambda: v < (2.0, 3.0, 4.0), lambda: (0.0, 0.0, 0.0) < v, lambda: sorted([w, v]),
    ):
        with pytest.raises(TypeError):
            compare()
    # A tuple would repeat itself; the vector refuses, like the dataclass.
    for repeat in (lambda: v * 2, lambda: 2 * v):
        with pytest.raises(TypeError):
            repeat()


#: (tuple-backed type, literal dataclass, hashable sample field values).
RV = ResourceVector(1.0, 512.0, 0.0)
RECORDS = [
    (journal.JournalRecord, literal.JournalRecord,
     ["complete", 12.5, None, 2, None, RV, 3.0, "w-1", "ready"]),
    (task.TaskResult, literal.TaskResult,
     [7, "align", "w-3", 0.0, 1.0, 2.5, 40.0, 37.5, RV, 1]),
    (dispatch.MasterStats, literal.MasterStats, [60.0, 10, 4, 2, 3, 1, 2, 0]),
    (api.WatchEvent, literal.WatchEvent, [api.WatchEventType.MODIFIED, "pod-a", 3.0, 9]),
    (pod.PodEvent, literal.PodEvent, [4.0, pod.REASON_PULLING, "pulling wq-worker"]),
    (estimator.SimulatedTask, literal.SimulatedTask, [RV, 30.0]),
    (estimator.PendingWorker, literal.PendingWorker, [RV, 90.0]),
    (task.FileSpec, literal.FileSpec, ["align.reference", 1400.0, True]),
]


def _literal_defaults(cls):
    return {
        f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
    }


@pytest.mark.parametrize("fast, lit, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_shape_matches_literal(fast, lit, values):
    assert fast.__name__ == lit.__name__
    assert fast.__doc__ == lit.__doc__
    assert list(fast._fields) == [f.name for f in dataclasses.fields(lit)]
    assert fast._field_defaults == _literal_defaults(lit)
    record = fast(*values)
    assert repr(record) == repr(lit(*values))
    assert hash(record) == hash(lit(*values))
    for name in (*fast._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    # Only the required fields: every default must land as the literal's.
    required = len(fast._fields) - len(fast._field_defaults)
    assert repr(fast(*values[:required])) == repr(lit(*values[:required]))


field_values = st.one_of(
    components, st.integers(), st.text(max_size=4), st.none(), st.just(RV),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_record_hash_and_repr_match_literal(data):
    for fast, lit, values in RECORDS:
        drawn = [data.draw(field_values) for _ in values]
        if fast in (estimator.SimulatedTask, task.FileSpec):
            drawn[1] = data.draw(st.floats(min_value=0.0) | st.sampled_from([-0.0, math.nan]))
        assert repr(fast(*drawn)) == repr(lit(*drawn))
        assert hash(fast(*drawn)) == hash(lit(*drawn))


def test_record_properties_match_literal():
    values = RECORDS[1][2]
    fast, lit = task.TaskResult(*values), literal.TaskResult(*values)
    assert (fast.turnaround, fast.overhead_seconds) == (lit.turnaround, lit.overhead_seconds)
    values = RECORDS[2][2]
    assert dispatch.MasterStats(*values).backlog == literal.MasterStats(*values).backlog


@pytest.mark.parametrize("cls", [estimator.SimulatedTask, literal.SimulatedTask])
def test_simulated_task_rejects_negative_remaining(cls):
    with pytest.raises(ValueError):
        cls(RV, -1.0)
    with pytest.raises(ValueError):
        cls(resources=RV, remaining_s=-1e-300)
    assert cls(RV, -0.0).remaining_s == 0.0


@pytest.mark.parametrize("cls", [task.FileSpec, literal.FileSpec])
def test_file_spec_rejects_negative_size(cls):
    for size in (-1.0, -1e-300, -math.inf):
        with pytest.raises(ValueError, match="'db': negative size"):
            cls("db", size)
    with pytest.raises(ValueError):
        cls(name="db", size_mb=-1.0, cacheable=True)
    assert cls("db", -0.0).size_mb == 0.0
    assert cls("db", math.nan).cacheable is False


def test_file_spec_equals_the_tuple_of_its_fields():
    """The accepted semantic change: unlike the dataclass, a tuple-backed
    FileSpec equals (and hashes like) the plain tuple of its fields."""
    spec = task.FileSpec("q", 7.0)
    assert spec == ("q", 7.0, False) and hash(spec) == hash(("q", 7.0, False))
    assert literal.FileSpec("q", 7.0) != ("q", 7.0, False)
    assert pickle.loads(pickle.dumps(spec)) == spec
