"""DBA advice: pin/ban/prefer directives over index candidates.

Production tuners keep the DBA in the loop (Schnaitter's semi-automatic
tuning does exactly this): an operator can *pin* an index COLT must keep
materialized, *ban* an index it must never build, or *prefer* one with a
soft weight that biases -- but does not force -- the knapsack.  The
directives become a :class:`~repro.core.knapsack.SelectionConstraints`
once resolved against a concrete catalog.

Advice file format (one directive per line, ``#`` comments)::

    # production advice
    pin lineitem_1.l_shipdate
    ban orders_1.o_orderdate
    prefer part_1.p_size 1.5
    pin lineitem_1.l_shipdate+l_orderkey   # composite: columns joined by +
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple, Union

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef


#: Directive verbs accepted in advice files.
VERBS = ("pin", "ban", "prefer")


class AdviceError(ValueError):
    """Raised for malformed or contradictory advice."""


@dataclasses.dataclass(frozen=True)
class AdviceDirective:
    """One parsed directive.

    Attributes:
        verb: ``"pin"``, ``"ban"`` or ``"prefer"``.
        table: Target table name.
        columns: Target key columns, in index order.
        weight: Value multiplier (prefer only; 1.0 otherwise).
    """

    verb: str
    table: str
    columns: Tuple[str, ...]
    weight: float = 1.0

    @property
    def target(self) -> str:
        """The ``table.col1+col2`` spelling of the directive's index."""
        return f"{self.table}.{'+'.join(self.columns)}"

    def to_line(self) -> str:
        """Render back to the advice-file line format."""
        if self.verb == "prefer":
            return f"prefer {self.target} {self.weight:g}"
        return f"{self.verb} {self.target}"


def parse_directive(line: str) -> AdviceDirective:
    """Parse one advice line (comments/whitespace already stripped)."""
    parts = line.split()
    if not parts or parts[0] not in VERBS:
        raise AdviceError(
            f"advice line must start with one of {VERBS}: {line!r}"
        )
    verb = parts[0]
    expected = 3 if verb == "prefer" else 2
    if len(parts) != expected:
        raise AdviceError(f"malformed {verb} directive: {line!r}")
    table, sep, column_text = parts[1].partition(".")
    if not sep or not table or not column_text:
        raise AdviceError(
            f"directive target must be TABLE.COLUMN[+COLUMN...]: {line!r}"
        )
    columns = tuple(c for c in column_text.split("+") if c)
    if not columns:
        raise AdviceError(f"directive names no columns: {line!r}")
    weight = 1.0
    if verb == "prefer":
        try:
            weight = float(parts[2])
        except ValueError as exc:
            raise AdviceError(f"bad preference weight in {line!r}") from exc
        if weight <= 0.0:
            raise AdviceError(f"preference weight must be positive: {line!r}")
    return AdviceDirective(verb=verb, table=table, columns=columns, weight=weight)


class AdviceBook:
    """The resolved set of directives a tuner enforces at every close.

    Duplicate directives for the same index collapse (last one wins per
    verb); a pin and a ban for the same index is a contradiction and
    raises immediately -- better to fail at load time than to hand the
    knapsack an unsatisfiable constraint.
    """

    def __init__(self, directives: Iterable[AdviceDirective] = ()) -> None:
        self._pins: Dict[Tuple[str, Tuple[str, ...]], AdviceDirective] = {}
        self._bans: Dict[Tuple[str, Tuple[str, ...]], AdviceDirective] = {}
        self._prefers: Dict[Tuple[str, Tuple[str, ...]], AdviceDirective] = {}
        for directive in directives:
            self.add(directive)

    def add(self, directive: AdviceDirective) -> None:
        """Record one directive, rejecting pin/ban contradictions."""
        key = (directive.table, directive.columns)
        if directive.verb == "pin":
            if key in self._bans:
                raise AdviceError(f"{directive.target} is both pinned and banned")
            self._pins[key] = directive
        elif directive.verb == "ban":
            if key in self._pins:
                raise AdviceError(f"{directive.target} is both pinned and banned")
            self._bans[key] = directive
        else:
            self._prefers[key] = directive

    def __len__(self) -> int:
        return len(self._pins) + len(self._bans) + len(self._prefers)

    @property
    def directives(self) -> List[AdviceDirective]:
        """Every directive, pins then bans then prefers, name-sorted."""
        out: List[AdviceDirective] = []
        for book in (self._pins, self._bans, self._prefers):
            out.extend(book[key] for key in sorted(book))
        return out

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "AdviceBook":
        """Parse a whole advice file's text."""
        book = cls()
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                book.add(parse_directive(line))
        return book

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "AdviceBook":
        """Load and parse an advice file."""
        return cls.parse(pathlib.Path(path).read_text())

    def to_text(self) -> str:
        """Render the book back to the advice-file format."""
        return "\n".join(d.to_line() for d in self.directives) + "\n"

    # ------------------------------------------------------------------
    def resolve(
        self, catalog: Catalog
    ) -> Tuple[List[IndexDef], List[IndexDef], List[Tuple[IndexDef, float]]]:
        """Resolve directives to index definitions against a catalog.

        Returns:
            (pinned, banned, preferred) with preferred carrying
            ``(index, weight)`` pairs.

        Raises:
            AdviceError: when a directive names an unknown table or
                column -- stale advice silently ignored would be worse
                than a loud failure.
        """
        pinned = [self._resolve_one(catalog, d) for d in self._pins.values()]
        banned = [self._resolve_one(catalog, d) for d in self._bans.values()]
        preferred = [
            (self._resolve_one(catalog, d), d.weight)
            for d in self._prefers.values()
        ]
        return pinned, banned, preferred

    @staticmethod
    def _resolve_one(catalog: Catalog, directive: AdviceDirective) -> IndexDef:
        if not catalog.has_table(directive.table):
            raise AdviceError(
                f"advice names unknown table {directive.table!r}"
            )
        table = catalog.table(directive.table)
        for column in directive.columns:
            if not table.has_column(column):
                raise AdviceError(
                    f"advice names unknown column "
                    f"{directive.table}.{column}"
                )
        return catalog.composite_index_for(directive.table, directive.columns)

    # ------------------------------------------------------------------
    def to_snapshot(self) -> List[str]:
        """JSON-compatible serialization (one line per directive)."""
        return [d.to_line() for d in self.directives]

    @classmethod
    def from_snapshot(cls, lines: Iterable[str]) -> "AdviceBook":
        """Rebuild a book from :meth:`to_snapshot` output."""
        book = cls()
        for line in lines:
            book.add(parse_directive(line))
        return book
