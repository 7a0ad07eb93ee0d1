"""Scalar data types supported by the engine.

The engine stores four scalar types.  Dates are represented internally as
integer day offsets from 1970-01-01, which keeps histogram and comparison
logic uniform across types while still allowing ISO date literals in SQL.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any


class DataType(enum.Enum):
    """Enumeration of scalar column types."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"

    @property
    def width(self) -> int:
        """Average on-disk width of a value in bytes.

        Widths follow PostgreSQL conventions: 4-byte integers, 8-byte
        floats and dates (date + alignment), and an assumed 16-byte
        average for variable-length text.
        """
        return _WIDTHS[self._value_]

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type are stored as numbers."""
        return self in (DataType.INT, DataType.FLOAT, DataType.DATE)


# Keyed by the member's value: a str caches its hash, whereas hashing
# the member itself goes through the Python-level ``Enum.__hash__``.
_WIDTHS = {"int": 4, "float": 8, "text": 16, "date": 8}

_EPOCH = datetime.date(1970, 1, 1)


def date_to_ordinal(value: datetime.date) -> int:
    """Convert a date to its internal integer representation."""
    return (value - _EPOCH).days


def ordinal_to_date(days: int) -> datetime.date:
    """Convert an internal integer date back to a ``datetime.date``."""
    return _EPOCH + datetime.timedelta(days=int(days))


def parse_date(text: str) -> int:
    """Parse an ISO ``YYYY-MM-DD`` literal into the internal form."""
    return date_to_ordinal(datetime.date.fromisoformat(text))


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce a Python value to the engine representation of ``dtype``.

    Raises:
        TypeError: if the value cannot represent the requested type.
    """
    if value is None:
        raise TypeError("NULL values are not supported by this engine")
    if dtype is DataType.INT:
        if isinstance(value, bool):
            raise TypeError("booleans are not valid INT values")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeError(f"cannot coerce {value!r} to INT")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            raise TypeError("booleans are not valid FLOAT values")
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeError(f"cannot coerce {value!r} to FLOAT")
    if dtype is DataType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeError(f"cannot coerce {value!r} to TEXT")
    if dtype is DataType.DATE:
        if isinstance(value, datetime.date):
            return date_to_ordinal(value)
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            return parse_date(value)
        raise TypeError(f"cannot coerce {value!r} to DATE")
    raise TypeError(f"unknown data type {dtype!r}")


def comparable(left: DataType, right: DataType) -> bool:
    """Whether two column types can appear on both sides of a comparison."""
    if left is right:
        return True
    numeric = (DataType.INT, DataType.FLOAT)
    return left in numeric and right in numeric
