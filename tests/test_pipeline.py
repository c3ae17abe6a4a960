import pytest
from hypothesis import given, strategies as st

from conftest import Pair
from sqleq.backend import Completion, GenConfig, MockBackend, MockRule
from sqleq.bench import QueryPair
from sqleq.errors import AuthError, BadExemplarSet, TransportError
from sqleq.pipeline import (
    PipelineConfig, check_pair, parse_label, prune_output,
    verdict_to_dict,
)
from sqleq.prompts import exemplar_set_from_file
from conftest import FIXTURES


@pytest.fixture
def cfg():
    return PipelineConfig(strategy_cfg=GenConfig(model="m"))


@pytest.fixture
def pair():
    return Pair("p1", "SELECT a FROM t", "SELECT b FROM t")


def scripted(strategy_text="looks the same", classify_text="Equivalent"):
    return MockBackend(rules=[
        MockRule(response=classify_text, strategy="classify"),
        MockRule(response=strategy_text),
    ])


class TestCheckPair:
    def test_exact_match_shortcut(self, toy_schema, cfg):
        mock = scripted()
        verdict = check_pair(Pair("p", "SELECT a FROM t;", "select  A from t"),
                             toy_schema, "basic", False,
                             mock, cfg)
        assert verdict.label == "Equivalent"
        assert verdict.shortcut
        assert mock.call_count == 0

    def test_pair_never_normalized_is_checked_here(self, toy_schema, cfg):
        # as `sqleq check` builds it: no load-time exact flag
        pair = QueryPair(id="p", sql1="SELECT a FROM t;",
                         sql2="select  A from t", schema_name="s", label=None)
        mock = scripted()
        verdict = check_pair(pair, toy_schema, "basic", False, mock, cfg)
        assert verdict.shortcut and mock.call_count == 0

    @pytest.mark.parametrize("exact, calls", [(True, 0), (False, 2)])
    def test_load_time_flag_is_reused(self, toy_schema, cfg, exact, calls):
        pair = QueryPair(id="p", sql1="SELECT a FROM t",
                         sql2="SELECT a FROM t", schema_name="s", label="EQ",
                         exact=exact)
        mock = scripted()
        verdict = check_pair(pair, toy_schema, "basic", False, mock, cfg)
        assert verdict.shortcut is exact and mock.call_count == calls

    def test_shortcut_can_be_disabled(self, toy_schema):
        mock = scripted(classify_text="Non Equivalent")
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             shortcut=False)
        verdict = check_pair(Pair("p", "SELECT a FROM t", "SELECT a FROM t"),
                             toy_schema, "basic", False,
                             mock, cfg)
        assert not verdict.shortcut
        assert mock.call_count == 2

    @pytest.mark.parametrize("strategy,expected_calls",
                             [("basic", 2), ("cot", 2), ("fewshot", 2),
                              ("multistage", 4)])
    def test_backend_call_counts(self, toy_schema, pair, strategy,
                                 expected_calls):
        mock = scripted()
        cfg = PipelineConfig(
            strategy_cfg=GenConfig(model="m"),
            exemplars=exemplar_set_from_file(FIXTURES / "exemplars.json"))
        check_pair(pair, toy_schema, strategy, False,
                   mock, cfg)
        assert mock.call_count == expected_calls

    def test_unknown_strategy_rejected(self, toy_schema, pair, cfg):
        with pytest.raises(ValueError):
            check_pair(pair, toy_schema, "zero-shot", False,
                       scripted(), cfg)

    def test_fewshot_requires_exemplars(self, toy_schema, pair, cfg):
        with pytest.raises(BadExemplarSet):
            check_pair(pair, toy_schema, "fewshot", False,
                       scripted(), cfg)

    def test_multistage_feeds_explanations_forward(self, toy_schema, pair,
                                                   cfg):
        seen = []

        class Recorder:
            def complete(self, bundle, gen_cfg):
                seen.append(bundle)
                if bundle.strategy == "multistage-explain":
                    return Completion(text=f"explained {bundle.meta['slot']}")
                if bundle.strategy == "multistage-decide":
                    return Completion(text="they differ")
                return Completion(text="Non Equivalent")

        verdict = check_pair(pair, toy_schema, "multistage", False,
                             Recorder(), cfg)
        decide = next(b for b in seen
                      if b.strategy == "multistage-decide")
        assert "explained 1" in decide.body
        assert "explained 2" in decide.body
        assert verdict.label == "NonEquivalent"

    @pytest.mark.parametrize("strategy", ["basic", "cot", "fewshot",
                                          "multistage"])
    @pytest.mark.parametrize("classifier_model", ["classifier", None])
    def test_classify_prompt_gets_classifier_settings(
            self, toy_schema, pair, strategy, classifier_model):
        seen = []

        class Recorder:
            def complete(self, bundle, gen_cfg):
                seen.append((bundle.strategy, gen_cfg))
                return Completion(text="Equivalent")

        strategy_cfg = GenConfig(model="strategy")
        classifier_cfg = classifier_model and GenConfig(model=classifier_model)
        cfg = PipelineConfig(
            strategy_cfg=strategy_cfg, classifier_cfg=classifier_cfg,
            exemplars=exemplar_set_from_file(FIXTURES / "exemplars.json"))
        check_pair(pair, toy_schema, strategy, False, Recorder(), cfg)
        *strategy_calls, (last, classify_cfg) = seen
        assert last == "classify"
        assert len(strategy_calls) == (3 if strategy == "multistage" else 1)
        assert all(gen is strategy_cfg for _, gen in strategy_calls)
        assert classify_cfg is (classifier_cfg or strategy_cfg)

    def test_plans_injected_when_enabled(self, toy_schema, pair, cfg):
        seen = []

        class Recorder:
            def complete(self, bundle, gen_cfg):
                seen.append(bundle)
                return Completion(text="Equivalent")

        check_pair(pair, toy_schema, "basic", True,
                   Recorder(), cfg)
        assert "LogicalProject(a)" in seen[0].body
        assert "LogicalProject(b)" in seen[0].body

    def test_plan_placeholder_used_for_bad_query(self, toy_schema, cfg):
        seen = []

        class Recorder:
            def complete(self, bundle, gen_cfg):
                seen.append(bundle)
                return Completion(text="Equivalent")

        check_pair(Pair("p", "SELECT a FROM t", "SELECT nope FROM t"),
                   toy_schema, "basic", True,
                   Recorder(), cfg)
        assert "ERROR WHILE GENERATING PLAN" in seen[0].body

    def test_fail_soft_records_error(self, toy_schema, pair):
        class Failing:
            def complete(self, bundle, gen_cfg):
                raise TransportError("socket closed")

        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             fail_soft=True)
        verdict = check_pair(pair, toy_schema, "basic", False,
                             Failing(), cfg)
        assert verdict.label == "Unknown"
        assert "TransportError" in verdict.error

    def test_fail_soft_still_raises_auth_error(self, toy_schema, pair):
        class Failing:
            def complete(self, bundle, gen_cfg):
                raise AuthError("bad key")

        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             fail_soft=True)
        with pytest.raises(AuthError):
            check_pair(pair, toy_schema, "basic", False,
                       Failing(), cfg)

    def test_errors_propagate_without_fail_soft(self, toy_schema, pair, cfg):
        class Failing:
            def complete(self, bundle, gen_cfg):
                raise TransportError("down")

        with pytest.raises(TransportError):
            check_pair(pair, toy_schema, "basic", False,
                       Failing(), cfg)

    def test_deterministic_and_idempotent_with_mock(self, toy_schema, pair,
                                                    cfg):
        mock = scripted()
        verdicts = [check_pair(pair, toy_schema, "basic", False, mock, cfg)
                    for _ in range(3)]
        dicts = [verdict_to_dict(v) for v in verdicts]
        assert dicts[0] == dicts[1] == dicts[2]

    def test_verdict_serialization_fields(self, toy_schema, pair, cfg):
        verdict = check_pair(pair, toy_schema, "basic", False,
                             scripted(), cfg)
        record = verdict_to_dict(verdict)
        assert set(record) == {"pair_id", "strategy", "plans", "label",
                               "shortcut", "raw", "classifier_raw",
                               "timings", "attempts", "error"}
        assert record["pair_id"] == "p1"
        assert record["timings"] == [0.0, 0.0]
        assert record["attempts"] == [1, 1]


class TestParseLabel:
    @pytest.mark.parametrize("text,expected", [
        ("Non Equivalent", "NonEquivalent"),
        ("Non-Equivalent", "NonEquivalent"),
        ("nonequivalent", "NonEquivalent"),
        ("NON  EQUIVALENT", "NonEquivalent"),
        ("The answer is Equivalent.", "Equivalent"),
        ("equivalent", "Equivalent"),
        ("cannot determine", "Unknown"),
        ("Unknown", "Unknown"),
        ("", "Unknown"),
        ("The queries are equivalent. Wait, no: Non Equivalent.",
         "NonEquivalent"),
    ])
    def test_examples(self, text, expected):
        assert parse_label(text) == expected

    @given(st.text(max_size=40), st.text(max_size=40),
           st.sampled_from(["non equivalent", "Non-Equivalent",
                            "NON EQUIVALENT", "nonEquivalent",
                            "non_equivalent"]))
    def test_never_equivalent_when_negation_present(self, prefix, suffix,
                                                    phrase):
        assert parse_label(prefix + phrase + suffix) != "Equivalent"

    @given(st.text(max_size=200))
    def test_total_function(self, text):
        assert parse_label(text) in ("Equivalent", "NonEquivalent", "Unknown")


class TestPruneOutput:
    def test_repeated_lines_collapsed(self):
        text = "same line\nsame line\nsame line\nother"
        assert prune_output(text) == "same line\nother"

    def test_non_printable_stripped(self):
        assert prune_output("ok\x00\x07 text\x1b[0m") == "ok text[0m"

    def test_non_consecutive_duplicates_kept(self):
        text = "a\nb\na"
        assert prune_output(text) == "a\nb\na"

    def test_whitespace_trimmed(self):
        assert prune_output("\n\n  result  \n\n") == "result"
