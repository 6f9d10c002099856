"""Pluggable column storage backends.

A :class:`~repro.storage.relation.Relation`'s authoritative storage is a
*column store*: one contiguous array per schema column.  Two interchangeable
backends implement the same store protocol:

* :class:`NumpyColumnStore` — typed ``numpy`` arrays (``int64`` for pure-int
  columns, ``float64`` for pure-float columns, ``object`` for everything
  else: strings, dates, ``None``-bearing or mixed-type columns).  Typed
  columns are what the vectorized operator kernels in
  ``repro.engine.operators`` run whole-column mask/gather/reduce passes
  over.
* :class:`PythonColumnStore` — plain tuples of Python values.  Functionally
  identical, no third-party dependency; selected automatically when numpy
  is not importable so the engine (and tier-1 tests) keep working without
  it.

The backend is chosen once at import time — numpy if available, the Python
fallback otherwise — and can be forced with the ``REPRO_BACKEND``
environment variable (``numpy`` or ``python``) or, for tests, swapped at
runtime via :func:`set_active_backend` / :func:`forced_backend`.

Two invariants every store upholds, because the engine's correctness oracle
compares plain Python tuples:

* ``to_rows``/``iter_rows``/``column_native`` always yield *native* Python
  values (``int``, ``float``, ``str``, ...), never numpy scalars —
  ``np.int64`` is not an ``int`` subclass, and letting it leak into row
  tuples would silently change aggregate and statistics semantics.
* Columns mixing ``int`` and ``float`` stay ``object`` dtype: coercing to
  ``float64`` would turn ``5`` into ``5.0``, changing SUM results from
  ``int`` to ``float`` and breaking bag equality against the row oracle.

Stores are treated as immutable: every operation returns a new store (array
views may be shared — no store ever writes to an array it handed out).
"""

from __future__ import annotations

import contextlib
import operator as _operator
import os
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
)

Row = Tuple[Any, ...]

try:  # pragma: no cover - exercised indirectly via both CI legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: The numpy module, or ``None`` when unavailable (import-time fallback).
numpy = _numpy

_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


class ColumnStore(Protocol):
    """The store protocol both backends implement (structural typing).

    A store holds one array per schema column for a fixed row count and is
    immutable: every operation returns a new store.  ``column`` may hand out
    backend-native arrays (numpy dtypes on the vectorized path);
    ``column_native``/``to_rows``/``iter_rows`` always yield plain Python
    values — see the module invariants.
    """

    kind: str

    @classmethod
    def from_rows(cls, rows: Sequence[Row], arity: int) -> "ColumnStore": ...

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[Any]], arity: int
    ) -> "ColumnStore": ...

    def __len__(self) -> int: ...

    @property
    def arity(self) -> int: ...

    def column(self, position: int) -> Sequence[Any]: ...

    def column_native(self, position: int) -> Tuple[Any, ...]: ...

    def to_rows(self) -> List[Row]: ...

    def iter_rows(self) -> Iterator[Row]: ...

    def take(self, positions: Sequence[int]) -> "ColumnStore": ...

    def gather(self, indices: Sequence[int]) -> "ColumnStore": ...

    def mask(self, keep: Sequence[bool]) -> "ColumnStore": ...

    def concat(self, other: Any) -> "ColumnStore": ...

    def hstack(self, other: Any) -> "ColumnStore": ...


class PythonColumnStore:
    """Column store backed by plain Python tuples (the no-dependency path)."""

    kind = "python"

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: Sequence[Sequence[Any]], length: Optional[int] = None) -> None:
        self._columns: Tuple[Tuple[Any, ...], ...] = tuple(
            column if isinstance(column, tuple) else tuple(column) for column in columns
        )
        if length is None:
            length = len(self._columns[0]) if self._columns else 0
        self._length = length

    # --------------------------------------------------------- constructors

    @classmethod
    def from_rows(cls, rows: Sequence[Row], arity: int) -> "PythonColumnStore":
        if not rows:
            return cls(tuple(() for _ in range(arity)), 0)
        return cls(tuple(zip(*rows)), len(rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]], arity: int) -> "PythonColumnStore":
        return cls(columns)

    # --------------------------------------------------------------- access

    def __len__(self) -> int:
        return self._length

    @property
    def arity(self) -> int:
        return len(self._columns)

    def column(self, position: int) -> Tuple[Any, ...]:
        return self._columns[position]

    def column_native(self, position: int) -> Tuple[Any, ...]:
        return self._columns[position]

    def to_rows(self) -> List[Row]:
        if not self._columns:
            return [()] * self._length
        return list(zip(*self._columns))

    def iter_rows(self) -> Iterator[Row]:
        if not self._columns:
            return iter([()] * self._length)
        return zip(*self._columns)

    # ----------------------------------------------------------- operations

    def take(self, positions: Sequence[int]) -> "PythonColumnStore":
        """Column subset (projection); shares the column tuples."""
        return PythonColumnStore(
            tuple(self._columns[p] for p in positions), self._length
        )

    def gather(self, indices: Sequence[int]) -> "PythonColumnStore":
        """Row subset by index list."""
        return PythonColumnStore(
            tuple(tuple(column[i] for i in indices) for column in self._columns),
            len(indices),
        )

    def mask(self, keep: Sequence[bool]) -> "PythonColumnStore":
        """Row subset by boolean mask."""
        count = sum(1 for flag in keep if flag)
        return PythonColumnStore(
            tuple(
                tuple(v for v, flag in zip(column, keep) if flag)
                for column in self._columns
            ),
            count,
        )

    def concat(self, other: "PythonColumnStore") -> "PythonColumnStore":
        """Vertical concatenation (bag union)."""
        return PythonColumnStore(
            tuple(a + b for a, b in zip(self._columns, other._columns)),
            self._length + other._length,
        )

    def hstack(self, other: "PythonColumnStore") -> "PythonColumnStore":
        """Horizontal concatenation (join output assembly)."""
        return PythonColumnStore(self._columns + other._columns, self._length)

    @classmethod
    def concat_many(cls, stores: Sequence["PythonColumnStore"]) -> "PythonColumnStore":
        """Vertical concatenation of several stores (their bag union)."""
        if not stores:
            raise ValueError("concat_many needs at least one store")
        if len(stores) == 1:
            return stores[0]
        columns = tuple(
            tuple(v for store in stores for v in store._columns[p])
            for p in range(stores[0].arity)
        )
        return cls(columns, sum(len(store) for store in stores))


def _typed_array(values: Sequence[Any]) -> Any:
    """Infer the tightest array for ``values`` (see module invariants).

    Pure-``int`` columns land in ``int64`` (falling back to ``object`` when a
    value overflows 64 bits), pure-``float`` columns in ``float64``; any
    other mix — strings, ``None``, ``bool``, dates, int/float blends — keeps
    native objects so no value is coerced.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return _numpy.array(values, dtype=_numpy.int64)
        except OverflowError:
            pass
    elif kinds == {float}:
        return _numpy.array(values, dtype=_numpy.float64)
    array = _numpy.empty(len(values), dtype=object)
    array[:] = values
    return array


class NumpyColumnStore:
    """Column store backed by numpy arrays (the vectorized path)."""

    kind = "numpy"

    __slots__ = ("_arrays", "_length")

    def __init__(self, arrays: Sequence[Any], length: Optional[int] = None) -> None:
        self._arrays: Tuple[Any, ...] = tuple(arrays)
        if length is None:
            length = len(self._arrays[0]) if self._arrays else 0
        self._length = length

    # --------------------------------------------------------- constructors

    @classmethod
    def from_rows(cls, rows: Sequence[Row], arity: int) -> "NumpyColumnStore":
        if not rows:
            return cls(
                tuple(_numpy.empty(0, dtype=object) for _ in range(arity)), 0
            )
        columns = zip(*rows)
        return cls(tuple(_typed_array(list(column)) for column in columns), len(rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]], arity: int) -> "NumpyColumnStore":
        length = len(columns[0]) if columns else 0
        return cls(tuple(_typed_array(list(column)) for column in columns), length)

    # --------------------------------------------------------------- access

    def __len__(self) -> int:
        return self._length

    @property
    def arity(self) -> int:
        return len(self._arrays)

    def column(self, position: int) -> Any:
        """The raw backing array (numpy dtype — engine-internal use only)."""
        return self._arrays[position]

    def column_native(self, position: int) -> Tuple[Any, ...]:
        """One column as native Python values (``tolist`` unboxes scalars)."""
        return tuple(self._arrays[position].tolist())

    def to_rows(self) -> List[Row]:
        if not self._arrays:
            return [()] * self._length
        return list(zip(*(array.tolist() for array in self._arrays)))

    def iter_rows(self) -> Iterator[Row]:
        if not self._arrays:
            return iter([()] * self._length)
        return zip(*(array.tolist() for array in self._arrays))

    # ----------------------------------------------------------- operations

    def take(self, positions: Sequence[int]) -> "NumpyColumnStore":
        """Column subset (projection); shares the backing arrays."""
        return NumpyColumnStore(
            tuple(self._arrays[p] for p in positions), self._length
        )

    def gather(self, indices: Any) -> "NumpyColumnStore":
        """Row subset by fancy-index array."""
        return NumpyColumnStore(
            tuple(array[indices] for array in self._arrays), int(len(indices))
        )

    def mask(self, keep: Any) -> "NumpyColumnStore":
        """Row subset by boolean mask (ndarray or any bool sequence)."""
        keep = _numpy.asarray(keep, dtype=bool)
        arrays = tuple(array[keep] for array in self._arrays)
        length = len(arrays[0]) if arrays else int(_numpy.count_nonzero(keep))
        return NumpyColumnStore(arrays, length)

    def concat(self, other: "NumpyColumnStore") -> "NumpyColumnStore":
        """Vertical concatenation preserving per-column value semantics.

        Same-dtype typed columns concatenate directly; anything else is
        rebuilt from native values and re-inferred, so an ``int64`` column
        meeting a ``float64`` one degrades to ``object`` instead of silently
        coercing the ints.
        """
        arrays = []
        for a, b in zip(self._arrays, other._arrays):
            if a.dtype == b.dtype and a.dtype != object:
                arrays.append(_numpy.concatenate((a, b)))
            else:
                arrays.append(_typed_array(a.tolist() + b.tolist()))
        return NumpyColumnStore(tuple(arrays), self._length + other._length)

    def hstack(self, other: "NumpyColumnStore") -> "NumpyColumnStore":
        """Horizontal concatenation (join output assembly)."""
        return NumpyColumnStore(self._arrays + other._arrays, self._length)

    @classmethod
    def concat_many(cls, stores: Sequence["NumpyColumnStore"]) -> "NumpyColumnStore":
        """Vertical concatenation of several stores (their bag union).

        Columns whose dtypes agree across every store concatenate directly;
        mixed dtypes (one store inferred ``int64`` where another saw floats)
        are rebuilt from native values and re-inferred, exactly as a
        single-store build over the merged rows would have typed them.
        """
        if not stores:
            raise ValueError("concat_many needs at least one store")
        if len(stores) == 1:
            return stores[0]
        length = sum(len(store) for store in stores)
        arrays = []
        for p in range(stores[0].arity):
            columns = [store._arrays[p] for store in stores]
            dtypes = {column.dtype for column in columns}
            if len(dtypes) == 1 and columns[0].dtype != object:
                arrays.append(_numpy.concatenate(columns))
            else:
                merged: List[Any] = []
                for column in columns:
                    merged.extend(column.tolist())
                arrays.append(_typed_array(merged))
        return cls(tuple(arrays), length)

    # --------------------------------------------- predicate vector protocol

    def full_mask(self, value: bool) -> Any:
        """A constant boolean mask over every row."""
        return _numpy.full(self._length, bool(value))

    def compare_literal(
        self, position: int, op: str, value: Any, reverse: bool = False
    ) -> Any:
        """Column-vs-literal comparison mask (``None`` cells never match)."""
        array = self._arrays[position]
        op_fn = _OPS[op]
        if array.dtype == object:
            if reverse:
                cells = (v is not None and op_fn(value, v) for v in array)
            else:
                cells = (v is not None and op_fn(v, value) for v in array)
            return _numpy.fromiter(cells, dtype=bool, count=self._length)
        result = op_fn(value, array) if reverse else op_fn(array, value)
        if not isinstance(result, _numpy.ndarray):
            # Cross-type ==/!= comparisons collapse to a scalar; broadcast.
            return _numpy.full(self._length, bool(result))
        return result

    def compare_columns(
        self, left_position: int, op: str, right_position: int
    ) -> Any:
        """Column-vs-column comparison mask (``None`` cells never match)."""
        a = self._arrays[left_position]
        b = self._arrays[right_position]
        op_fn = _OPS[op]
        if a.dtype == object or b.dtype == object:
            cells = (
                x is not None and y is not None and op_fn(x, y)
                for x, y in zip(a.tolist(), b.tolist())
            )
            return _numpy.fromiter(cells, dtype=bool, count=self._length)
        result = op_fn(a, b)
        if not isinstance(result, _numpy.ndarray):
            return _numpy.full(self._length, bool(result))
        return result

    def rowwise_mask(self, fn: Callable[[Row], bool]) -> Any:
        """Mask from an arbitrary compiled row predicate (escape hatch)."""
        return _numpy.fromiter(
            (fn(row) for row in self.iter_rows()), dtype=bool, count=self._length
        )


# -------------------------------------------------------------- backend choice

_BACKENDS: Dict[str, Type[Any]] = {"python": PythonColumnStore}
if _numpy is not None:
    _BACKENDS["numpy"] = NumpyColumnStore


def _initial_backend() -> Type[Any]:
    forced = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if forced:
        if forced not in ("python", "numpy"):
            raise ValueError(
                f"REPRO_BACKEND={forced!r} not recognized (use 'numpy' or 'python')"
            )
        if forced == "numpy" and _numpy is None:
            raise RuntimeError("REPRO_BACKEND=numpy requested but numpy is not importable")
        return _BACKENDS[forced]
    return _BACKENDS.get("numpy", PythonColumnStore)


_ACTIVE = _initial_backend()


def active_backend() -> Type[Any]:
    """The store class relations build columns with (numpy when available)."""
    return _ACTIVE


def numpy_enabled() -> bool:
    """Whether the vectorized kernels may run (active backend is numpy)."""
    return _ACTIVE.kind == "numpy"


def set_active_backend(name: str) -> None:
    """Switch the backend at runtime (tests and the benchmark harness)."""
    if name not in _BACKENDS:
        available = ", ".join(sorted(_BACKENDS))
        raise ValueError(f"unknown backend {name!r} (available: {available})")
    global _ACTIVE
    _ACTIVE = _BACKENDS[name]


def available_backends() -> Tuple[str, ...]:
    """Backend names importable in this environment."""
    return tuple(sorted(_BACKENDS))


@contextlib.contextmanager
def forced_backend(name: str) -> Iterator[Type[Any]]:
    """Context manager pinning the active backend (restores on exit)."""
    previous = _ACTIVE.kind
    set_active_backend(name)
    try:
        yield _BACKENDS[name]
    finally:
        set_active_backend(previous)
