"""Unit tests for CSV I/O."""

from __future__ import annotations

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.io import (
    ON_BAD_ROW_POLICIES,
    read_csv,
    read_csv_text,
    to_csv_text,
    write_csv,
)
from repro.relational.null import NULL, NullSemantics
from repro.relational.relation import Relation
from repro.relational.schema import SchemaError

CSV = """name,zip,city
ann,z1,c1
bob,,c1
cat,z2,?
"""


class TestReadCsvText:
    def test_basic(self):
        rel = read_csv_text(CSV)
        assert rel.schema.names == ["name", "zip", "city"]
        assert rel.n_rows == 3
        assert rel.value(0, 0) == "ann"

    def test_default_null_markers(self):
        rel = read_csv_text(CSV)
        assert rel.value(1, 1) is NULL
        assert rel.value(2, 2) is NULL

    def test_custom_null_markers(self):
        rel = read_csv_text(CSV, null_markers={"?"})
        assert rel.value(1, 1) == ""  # empty no longer null
        assert rel.value(2, 2) is NULL

    def test_no_header(self):
        rel = read_csv_text("a,b\nc,d\n", has_header=False)
        assert rel.schema.names == ["col0", "col1"]
        assert rel.n_rows == 2

    def test_max_rows(self):
        rel = read_csv_text(CSV, max_rows=2)
        assert rel.n_rows == 2

    def test_semantics_forwarded(self):
        rel = read_csv_text(CSV, semantics="neq")
        assert rel.semantics is NullSemantics.NEQ

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            read_csv_text("", has_header=False)

    def test_delimiter(self):
        rel = read_csv_text("a;b\n1;2\n", delimiter=";")
        assert rel.schema.names == ["a", "b"]
        assert rel.value(0, 1) == "2"


class TestMalformedInput:
    def test_ragged_rows_rejected(self):
        from repro.relational.schema import SchemaError

        with pytest.raises(SchemaError):
            read_csv_text("a,b\n1,2\n3\n")

    def test_header_only(self):
        rel = read_csv_text("a,b\n")
        assert rel.n_rows == 0
        assert rel.schema.names == ["a", "b"]

    def test_quoted_fields_with_commas(self):
        rel = read_csv_text('a,b\n"x,y",z\n')
        assert rel.value(0, 0) == "x,y"


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        rel = read_csv_text(CSV)
        path = tmp_path / "out.csv"
        write_csv(rel, path)
        back = read_csv(path)
        assert list(back.iter_rows()) == list(rel.iter_rows())
        assert back.schema == rel.schema

    def test_to_csv_text_nulls(self):
        rel = read_csv_text(CSV)
        text = to_csv_text(rel, null_marker="NULL")
        assert "bob,NULL,c1" in text.replace("\r", "")

    def test_text_roundtrip(self):
        rel = read_csv_text(CSV)
        again = read_csv_text(to_csv_text(rel))
        assert list(again.iter_rows()) == list(rel.iter_rows())


class TestBadRowPolicies:
    RAGGED = "a,b,c\n1,2,3\n4,5\n6,7,8,9\n10,11,12\n"

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            read_csv_text(self.RAGGED, on_bad_row="ignore")

    def test_raise_names_offending_line(self):
        from repro.relational.schema import SchemaError

        with pytest.raises(SchemaError) as excinfo:
            read_csv_text(self.RAGGED)
        message = str(excinfo.value)
        assert "CSV line 3" in message
        assert "expected 3 fields, got 2" in message

    def test_raise_is_a_value_error(self):
        with pytest.raises(ValueError):
            read_csv_text(self.RAGGED)

    def test_skip_quarantines_ragged_rows(self):
        rel = read_csv_text(self.RAGGED, on_bad_row="skip")
        assert rel.n_rows == 2
        assert rel.value(0, 0) == "1"
        assert rel.value(1, 0) == "10"

    def test_pad_fills_short_and_truncates_long(self):
        rel = read_csv_text(self.RAGGED, on_bad_row="pad")
        assert rel.n_rows == 4
        assert rel.value(1, 2) is NULL  # "4,5" padded with a null
        assert rel.value(2, 2) == "8"  # "6,7,8,9" truncated to width

    def test_quarantine_telemetry(self):
        from repro.telemetry import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            read_csv_text(self.RAGGED, on_bad_row="skip")
        events = tracer.find_events("csv_quarantine")
        assert len(events) == 1
        assert events[0].attrs["kind"] == "ragged_row"
        assert events[0].attrs["policy"] == "skip"
        assert events[0].attrs["quarantined"] == 2
        assert events[0].attrs["padded"] == 0
        assert tracer.metrics.counter("io.quarantined_rows").value == 2

    def test_clean_input_emits_no_quarantine_event(self):
        from repro.telemetry import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            read_csv_text(CSV, on_bad_row="skip")
        assert not tracer.find_events("csv_quarantine")

    def test_undecodable_bytes_raise_with_line(self, tmp_path):
        from repro.relational.schema import SchemaError

        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(SchemaError) as excinfo:
            read_csv(path)
        assert "CSV line 3" in str(excinfo.value)

    def test_undecodable_bytes_skipped_under_policy(self, tmp_path):
        from repro.telemetry import Tracer, use_tracer

        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        tracer = Tracer()
        with use_tracer(tracer):
            rel = read_csv(path, on_bad_row="skip")
        assert rel.n_rows == 2  # replacement char keeps the row rectangular
        events = tracer.find_events("csv_quarantine")
        assert events and events[0].attrs["kind"] == "decode"


class TestLineEndings:
    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_cr_and_crlf_files_load_like_lf(self, newline):
        lf = read_csv_text(CSV)
        other = read_csv_text(CSV.replace("\n", newline))
        assert other.fingerprint() == lf.fingerprint()

    def test_quoted_line_breaks_stay_in_the_field(self):
        rel = read_csv_text('a,b\r\n1,"x\r\ny"\r\n2,"p\rq"\r\n')
        assert [rel.value(0, 1), rel.value(1, 1)] == ["x\r\ny", "p\rq"]

    @pytest.mark.parametrize("policy", ON_BAD_ROW_POLICIES)
    def test_oversized_field_is_a_schema_error_naming_the_line(self, policy):
        limit = csv.field_size_limit()
        text = "a,b\n1,2\n3," + "x" * (limit + 1) + "\n"
        with pytest.raises(SchemaError, match="CSV line 3: field larger"):
            read_csv_text(text, on_bad_row=policy)
        assert csv.field_size_limit() == limit


#: Text biased towards what CSV parsing branches on.
_CSV_TEXT = st.one_of(
    st.text(st.sampled_from('ab1,;"\r\n \t?-\x00\u00e9'), max_size=120),
    st.text(max_size=120),
)


class TestReadCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        text=_CSV_TEXT,
        policy=st.sampled_from(ON_BAD_ROW_POLICIES),
        has_header=st.booleans(),
    )
    def test_arbitrary_text_is_a_relation_or_a_value_error(
        self, text, policy, has_header
    ):
        try:
            relation = read_csv_text(text, on_bad_row=policy, has_header=has_header)
        except ValueError:  # SchemaError included
            return
        assert isinstance(relation, Relation)
        assert relation.n_rows >= 0


class TestCsvCorruptionFault:
    def test_corrupt_row_fault_drops_last_field(self):
        from repro.resilience import faults

        faults.activate("csv.corrupt_row", times=1)
        try:
            with pytest.raises(ValueError):
                read_csv_text("a,b\n1,2\n3,4\n")
        finally:
            faults.reset()

    def test_corrupt_row_fault_survived_by_skip_policy(self):
        from repro.resilience import faults

        faults.activate("csv.corrupt_row", times=1)
        try:
            rel = read_csv_text("a,b\n1,2\n3,4\n", on_bad_row="skip")
        finally:
            faults.reset()
        assert rel.n_rows == 1
