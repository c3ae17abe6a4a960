"""Normalization, exact-match, and schema serialization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import corpusqueries as corpus
import normalize_reference
from conftest import perfbench_texts
from sqleq.errors import SchemaError
from sqleq.normalize import exact_match, normalize_query
from sqleq.schema import (
    SchemaDef, TableDef, load_schema, load_schemas, schema_from_dict,
    serialize_schema,
)


class TestNormalize:
    def test_whitespace_case_semicolon(self):
        assert exact_match("SELECT  A FROM t;", "select a from t")

    def test_string_literal_case_preserved(self):
        assert not exact_match("SELECT 'A'", "SELECT 'a'")

    def test_assignment_pair_not_exact(self):
        assert not exact_match(corpus.CAUGHT_STEALING_CTE,
                               corpus.CAUGHT_STEALING_JOIN)

    def test_comments_dropped(self):
        assert normalize_query("select a -- trailing\nfrom t") == \
            "select a from t"
        assert normalize_query("select /* x */ a from t") == "select a from t"

    def test_quoted_identifier_contents_kept(self):
        assert normalize_query('SELECT "MiXed" FROM t') == 'select "MiXed" from t'

    @pytest.mark.parametrize("text,canonical", [
        ("SELECT 'AbC", "select 'AbC"),
        ("SELECT A /* x", "select a"),
        ("SELECT A--B\nFROM T", "select a from t"),
        ("X/*c*/Y", "x y"),
        ("SELECT 'It''s', \"A\"\"B\"", "select 'It''s', \"A\"\"B\""),
        ("SELECT AΣ.B FROM T", "select aσ.b from t"),
    ], ids=["unterminated-quote-kept", "unterminated-comment-dropped",
            "comment-inside-word", "comment-between-words",
            "doubled-quotes-kept", "run-lowered-whole"])
    def test_edge_cases(self, text, canonical):
        assert normalize_query(text) == canonical

    def test_multiple_trailing_semicolons(self):
        assert normalize_query("select 1 ; ;") == "select 1"

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize_query(text)
        assert normalize_query(once) == once

    def test_equivalence_relation_on_corpus(self):
        texts = corpus.ALL_QUERIES
        canon = [normalize_query(t) for t in texts]
        for i, a in enumerate(texts):
            assert exact_match(a, a)
            for j, b in enumerate(texts):
                assert exact_match(a, b) == exact_match(b, a)
                assert exact_match(a, b) == (canon[i] == canon[j])


# Pieces that start, end or escape a comment or a quote, whitespace the
# lexer's `\s` and str.split both take (\x1c included), and letters whose
# lower case depends on their neighbours (the final sigma) or is not ASCII.
_TRICKY = ["Σ", "σ", "ς", ".", "'", '"', "--", "/*", "*/", "''", '""',
           "\t", "\n", "\x1c", " ", "É", "A", "b", ";", "-", "/", "*",
           "SELECT", "x1"]


class TestNormalizeAgainstReference:
    """`normalize_query` gives what the earlier per-piece loop in
    `normalize_reference` gives."""

    @settings(max_examples=1000)
    @given(st.lists(st.sampled_from(_TRICKY), max_size=16).map("".join))
    def test_tricky_pieces(self, text):
        assert normalize_query(text) == normalize_reference.normalize_query(
            text)

    @given(st.text(max_size=80))
    def test_any_text(self, text):
        assert normalize_query(text) == normalize_reference.normalize_query(
            text)

    @pytest.mark.parametrize("seed", [3, 41])
    def test_perfbench_corpora(self, seed):
        texts = perfbench_texts(seed)
        assert len(texts) > 1000
        assert [normalize_query(t) for t in texts] == \
            [normalize_reference.normalize_query(t) for t in texts]

    @pytest.mark.parametrize("text,canonical", [
        ("SELECT AΣ", "select aς"),
        ("SELECT AΣ B", "select aς b"),
        ("SELECT AΣ\x1cB", "select aς b"),
        ("SELECT AΣ/**/B", "select aς b"),
        ("SELECT AΣ'x'", "select aς'x'"),
        ("SELECT AΣB", "select aσb"),
    ])
    def test_final_sigma_ends_at_a_gap_or_quote(self, text, canonical):
        assert normalize_query(text) == canonical
        assert normalize_reference.normalize_query(text) == canonical


class TestSchema:
    def test_serialize_single_table(self):
        schema = SchemaDef(tables=(TableDef("T", ("a", "b")),),
                           primary_keys=("T.a",))
        assert serialize_schema(schema) == (
            "Table T, columns = [ *, a, b ]\n\n"
            "Foreign_keys = [  ]\nPrimary_keys = [ T.a ]")

    def test_empty_foreign_keys_rendered(self):
        schema = SchemaDef(tables=(TableDef("t", ("a",)),))
        assert "Foreign_keys = [  ]" in serialize_schema(schema)

    def test_foreign_key_format(self):
        schema = SchemaDef(
            tables=(TableDef("T1", ("x",)), TableDef("T2", ("y",))),
            foreign_keys=(("T1.x", "T2.y"),))
        assert "Foreign_keys = [ T1.x = T2.y ]" in serialize_schema(schema)

    def test_tables_in_schema_order(self, golden_schema):
        text = serialize_schema(golden_schema)
        assert text.index("Table people") < text.index("Table batting")

    def test_duplicate_table_names_rejected(self):
        with pytest.raises(SchemaError):
            SchemaDef(tables=(TableDef("t", ("a",)), TableDef("T", ("b",))))

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            SchemaDef(tables=(TableDef("t", ()),))

    def test_dangling_key_reference_rejected(self):
        with pytest.raises(SchemaError):
            SchemaDef(tables=(TableDef("t", ("a",)),),
                      primary_keys=("missing.a",))
        with pytest.raises(SchemaError):
            SchemaDef(tables=(TableDef("t", ("a",)),),
                      foreign_keys=(("t.a", "t.nope"),))

    def test_columns_given_as_text_rejected(self):
        with pytest.raises(SchemaError, match="columns of table 't'"):
            schema_from_dict({"tables": [{"name": "t", "columns": "ab"}]})

    def test_primary_keys_given_as_text_rejected(self):
        with pytest.raises(SchemaError, match="primary_keys must be a list"):
            schema_from_dict({"tables": [{"name": "t", "columns": ["a"]}],
                              "primary_keys": "t.a"})

    def test_table_name_that_is_not_text_rejected(self):
        with pytest.raises(SchemaError, match="table name 5"):
            schema_from_dict({"tables": [{"name": 5, "columns": ["a"]}]})

    def test_column_that_is_not_text_rejected(self):
        with pytest.raises(SchemaError, match="columns of table 't'"):
            schema_from_dict({"tables": [{"name": "t",
                                          "columns": ["a", None]}]})

    @pytest.mark.parametrize("data, field", [
        ([], "schema"),
        ({"tables": {"t": ["a"]}}, "tables"),
        ({"tables": [{"name": "t", "columns": ["a"]}],
          "foreign_keys": [["t.a"]]}, "foreign key"),
    ])
    def test_other_misshapen_fields_rejected(self, data, field):
        with pytest.raises(SchemaError, match=field):
            schema_from_dict(data)

    def test_schemas_file_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "schemas.json"
        path.write_text("[1]")
        with pytest.raises(SchemaError, match="schemas file"):
            load_schemas(path)

    def test_json_round_trip(self, tmp_path):
        payload = {
            "tables": [{"name": "t", "columns": ["a", "b"]},
                       {"name": "s", "columns": ["c"]}],
            "foreign_keys": [["s.c", "t.a"]],
            "primary_keys": ["t.a"],
        }
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(payload))
        loaded = load_schema(path)
        assert loaded == schema_from_dict(payload)
        assert loaded.find_table("S").columns == ("c",)
