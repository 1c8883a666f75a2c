"""CSV input/output for relations.

The benchmark data sets in the paper are plain CSV files; this module
loads them into :class:`~repro.relational.relation.Relation` objects,
normalizing the usual null spellings to the library's null marker.

Malformed input is governed by an ``on_bad_row`` policy: ``"raise"``
(default) rejects ragged rows with a
:class:`~repro.relational.schema.SchemaError` naming the offending
line; ``"skip"`` quarantines them; ``"pad"`` pads short rows with nulls
(and truncates long ones) so every row fits the schema.  Quarantined
and repaired row counts surface through telemetry (a ``csv_quarantine``
event and the ``io.quarantined_rows`` counter).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Set, Union

from ..resilience import faults
from ..telemetry import current_tracer
from .null import NULL, NullSemantics
from .relation import Relation
from .schema import RelationSchema, SchemaError

#: Field spellings treated as missing values when loading CSV data.
DEFAULT_NULL_MARKERS: Set[str] = {"", "null", "NULL", "?", "NA", "N/A", "na", "-"}

#: Valid bad-row policies.
ON_BAD_ROW_POLICIES = ("raise", "skip", "pad")


def _check_policy(on_bad_row: str) -> None:
    if on_bad_row not in ON_BAD_ROW_POLICIES:
        raise ValueError(
            f"on_bad_row must be one of {ON_BAD_ROW_POLICIES}, got {on_bad_row!r}"
        )


def read_csv(
    path: Union[str, Path],
    *,
    has_header: bool = True,
    delimiter: str = ",",
    null_markers: Optional[Iterable[str]] = None,
    semantics: Union[str, NullSemantics] = NullSemantics.EQ,
    max_rows: Optional[int] = None,
    on_bad_row: str = "raise",
    encoding: str = "utf-8",
) -> Relation:
    """Load a CSV file into a relation.

    Args:
        path: the CSV file.
        has_header: first line holds column names; otherwise an
            anonymous ``col0..colN`` schema is created.
        delimiter: field separator.
        null_markers: field values mapped to the null marker
            (defaults to :data:`DEFAULT_NULL_MARKERS`).
        semantics: null semantics for the DIIS encoding.
        max_rows: optional row cap (fragment loading).
        on_bad_row: ``"raise"``/``"skip"``/``"pad"`` policy for ragged
            rows and (in this function) undecodable bytes.
        encoding: text encoding of the file.
    """
    _check_policy(on_bad_row)
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        if on_bad_row == "raise":
            line = data.count(b"\n", 0, exc.start) + 1
            raise SchemaError(
                f"CSV line {line}: undecodable {encoding} byte at offset "
                f"{exc.start} (byte {data[exc.start]:#04x})"
            ) from exc
        # Tolerant policies keep going with replacement characters; the
        # incident is surfaced the same way quarantined rows are.
        text = data.decode(encoding, errors="replace")
        current_tracer().event(
            "csv_quarantine",
            kind="decode",
            policy=on_bad_row,
            encoding=encoding,
            byte_offset=exc.start,
        )
    return read_csv_text(
        text,
        has_header=has_header,
        delimiter=delimiter,
        null_markers=null_markers,
        semantics=semantics,
        max_rows=max_rows,
        on_bad_row=on_bad_row,
    )


def _records(reader) -> Iterator[List[str]]:
    """The reader's records; a ``csv.Error`` (a field over
    ``csv.field_size_limit()``, say) becomes a SchemaError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"CSV line {reader.line_num}: {exc}") from exc


def read_csv_text(
    text: str,
    *,
    has_header: bool = True,
    delimiter: str = ",",
    null_markers: Optional[Iterable[str]] = None,
    semantics: Union[str, NullSemantics] = NullSemantics.EQ,
    max_rows: Optional[int] = None,
    on_bad_row: str = "raise",
) -> Relation:
    """Parse CSV content from a string (see :func:`read_csv`)."""
    _check_policy(on_bad_row)
    markers = set(null_markers) if null_markers is not None else DEFAULT_NULL_MARKERS
    # newline="" hands line endings to the csv module, as it requires:
    # CR, LF and CRLF files all load, and quoted newlines stay in fields.
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    rows: List[List[object]] = []
    schema: Optional[RelationSchema] = None
    width: Optional[int] = None
    quarantined = 0
    padded = 0
    chaos = faults.armed()
    for index, record in enumerate(_records(reader)):
        line = reader.line_num  # physical line (records may span lines)
        if index == 0 and has_header:
            schema = RelationSchema(record)
            width = len(record)
            continue
        if not record:
            continue  # blank line — never data, under any policy
        if max_rows is not None and len(rows) >= max_rows:
            break
        if chaos:
            record = faults.corrupt_csv_row(record)
        if width is None:
            width = len(record)
        if len(record) != width:
            if on_bad_row == "raise":
                raise SchemaError(
                    f"CSV line {line}: expected {width} fields, "
                    f"got {len(record)}"
                )
            if on_bad_row == "skip":
                quarantined += 1
                continue
            padded += 1
            mapped = [
                NULL if field in markers else field for field in record[:width]
            ]
            rows.append(mapped + [NULL] * (width - len(mapped)))
            continue
        rows.append([NULL if field in markers else field for field in record])
    if quarantined or padded:
        tracer = current_tracer()
        tracer.event(
            "csv_quarantine",
            kind="ragged_row",
            policy=on_bad_row,
            quarantined=quarantined,
            padded=padded,
        )
        tracer.counter("io.quarantined_rows").inc(quarantined + padded)
    if schema is None and rows:
        schema = RelationSchema.of_width(len(rows[0]))
    if schema is None:
        raise ValueError("CSV input is empty and has no header")
    return Relation.from_rows(rows, schema, semantics)


def write_csv(
    relation: Relation,
    path: Union[str, Path],
    *,
    delimiter: str = ",",
    null_marker: str = "",
) -> None:
    """Write a relation back to CSV (nulls become ``null_marker``)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(relation.schema.names)
        for row in relation.iter_rows():
            writer.writerow(
                [null_marker if value is NULL else value for value in row]
            )


def to_csv_text(
    relation: Relation, *, delimiter: str = ",", null_marker: str = ""
) -> str:
    """Render a relation as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow(relation.schema.names)
    for row in relation.iter_rows():
        writer.writerow([null_marker if value is NULL else value for value in row])
    return buffer.getvalue()
