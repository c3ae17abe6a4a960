"""One equivalence check: shortcut, strategy call(s), classification.

Exact-match pairs short-circuit to Equivalent with zero backend calls
(disable via PipelineConfig.shortcut); a pair from `bench.load_dataset`
carries the flag, any other pair is normalized here. Otherwise the
strategy prompt(s) run with the strategy settings -- multistage explains
each query before deciding -- and the final output is pruned and sent to
the same backend in the classifying prompt, with the classifier
settings; its text yields the three-way label.
"""

import re

from .errors import AuthError, BackendError, BadExemplarSet, EmptyExplanation
from .normalize import exact_match
from .plan import pair_plans
from .prompts import (
    build_classify, build_decide, build_explain, build_strategy,
)

LABEL_EQUIVALENT = "Equivalent"
LABEL_NON_EQUIVALENT = "NonEquivalent"
LABEL_UNKNOWN = "Unknown"

STRATEGIES = ("basic", "cot", "fewshot", "multistage")
# multistage sends stage prompts; the others one prompt (build_strategy)
ONE_PROMPT_STRATEGIES = tuple(s for s in STRATEGIES if s != "multistage")

_NON_EQUIVALENT_RE = re.compile(r"non[\s_-]*equivalent")


class PipelineConfig:
    def __init__(self, strategy_cfg, classifier_cfg=None, exemplars=None,
                 shortcut=True, fail_soft=False):
        self.strategy_cfg = strategy_cfg
        self.classifier_cfg = classifier_cfg  # defaults to strategy_cfg
        self.exemplars = exemplars            # ExemplarSet, for fewshot
        self.shortcut = shortcut
        self.fail_soft = fail_soft

    def classifier_config(self):
        return self.classifier_cfg if self.classifier_cfg is not None \
            else self.strategy_cfg


class Verdict:
    def __init__(self, label, pair_id=None, strategy=None, plans=False,
                 shortcut=False, raw="", classifier_raw="", completions=None,
                 error=None):
        self.label = label
        self.pair_id = pair_id
        self.strategy = strategy
        self.plans = plans
        self.shortcut = shortcut
        self.raw = raw
        self.classifier_raw = classifier_raw
        self.completions = [] if completions is None else completions
        self.error = error


def verdict_to_dict(verdict):
    return {
        "pair_id": verdict.pair_id,
        "strategy": verdict.strategy,
        "plans": verdict.plans,
        "label": verdict.label,
        "shortcut": verdict.shortcut,
        "raw": verdict.raw,
        "classifier_raw": verdict.classifier_raw,
        "timings": [c.latency_ms for c in verdict.completions],
        "attempts": [c.attempts for c in verdict.completions],
        "error": verdict.error,
    }


def check_pair(pair, schema, strategy, plans_enabled, backend, cfg,
               plan_memo=None):
    """Run one pair through a strategy and classify the outcome.

    `plan_memo` is the memo `plan.pair_plans` keeps plan texts in; one
    passed to every check of a run plans each distinct text once.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "fewshot" and cfg.exemplars is None:
        raise BadExemplarSet("fewshot strategy requires cfg.exemplars")

    pair_id = getattr(pair, "id", None)
    if cfg.shortcut and _is_exact(pair):
        return Verdict(label=LABEL_EQUIVALENT, pair_id=pair_id,
                       strategy=strategy, plans=plans_enabled, shortcut=True)

    plans = pair_plans(pair, schema, plan_memo) if plans_enabled else None

    try:
        return _run_strategy(pair, schema, strategy, plans, plans_enabled,
                             backend, cfg)
    except (BackendError, EmptyExplanation) as exc:
        # fail-soft never swallows credential problems: the whole run is doomed
        if cfg.fail_soft and not isinstance(exc, AuthError):
            return Verdict(label=LABEL_UNKNOWN, pair_id=pair_id,
                           strategy=strategy, plans=plans_enabled,
                           error=f"{type(exc).__name__}: {exc}")
        raise


def _is_exact(pair):
    """The pair's load-time exact-match flag; a pair without one (None or
    no such attribute) is normalized here."""
    exact = getattr(pair, "exact", None)
    if exact is None:
        return exact_match(pair.sql1, pair.sql2)
    return exact


def _run_strategy(pair, schema, strategy, plans, plans_enabled, backend, cfg):
    completions = []

    if strategy == "multistage":
        explain1 = backend.complete(
            build_explain(1, pair, schema, plans), cfg.strategy_cfg)
        explain2 = backend.complete(
            build_explain(2, pair, schema, plans), cfg.strategy_cfg)
        completions.extend([explain1, explain2])
        decide = backend.complete(
            build_decide(pair, schema, plans,
                         expl1=explain1.text, expl2=explain2.text),
            cfg.strategy_cfg)
        completions.append(decide)
        raw = decide.text
    else:
        completion = backend.complete(
            build_strategy(strategy, pair, schema, plans, cfg.exemplars),
            cfg.strategy_cfg)
        completions.append(completion)
        raw = completion.text

    pair_id = getattr(pair, "id", None)
    pruned = prune_output(raw)
    if not pruned:
        return Verdict(label=LABEL_UNKNOWN, pair_id=pair_id,
                       strategy=strategy, plans=plans_enabled, raw=raw,
                       completions=completions,
                       error="empty strategy output")

    classified = backend.complete(
        build_classify(pruned, meta={"pair_id": pair_id}),
        cfg.classifier_config())
    completions.append(classified)

    return Verdict(label=parse_label(classified.text), pair_id=pair_id,
                   strategy=strategy, plans=plans_enabled, raw=raw,
                   classifier_raw=classified.text, completions=completions)


def parse_label(classifier_text):
    """Map classifier output onto the three labels.

    The non-equivalent phrase is checked first so "Equivalent" never
    wins as a substring of it; unmatched text is Unknown.
    """
    lowered = classifier_text.lower()
    if _NON_EQUIVALENT_RE.search(lowered):
        return LABEL_NON_EQUIVALENT
    if "equivalent" in lowered:
        return LABEL_EQUIVALENT
    return LABEL_UNKNOWN


def prune_output(text):
    """Drop non-printable characters and repeated consecutive lines.

    Model output occasionally degenerates into repeated lines or stray
    control characters; both are removed before classification.
    """
    cleaned = text
    if not text.replace("\n", "").replace("\t", "").isprintable():
        cleaned = "".join(
            ch for ch in text if ch in ("\n", "\t") or ch.isprintable())
    lines = []
    previous = None
    for line in cleaned.split("\n"):
        if line == previous:
            continue
        lines.append(line)
        previous = line
    return "\n".join(lines).strip()
