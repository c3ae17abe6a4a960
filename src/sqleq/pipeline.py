"""One equivalence check: shortcut, strategy call(s), classification.

Exact-match pairs short-circuit to Equivalent with zero backend calls
(disable via PipelineConfig.shortcut). Otherwise the strategy prompt(s)
run with the strategy settings -- multistage explains each query before
deciding -- and the final output is pruned and sent to the same backend
in the classifying prompt, with the classifier settings; its text yields
the three-way label.
"""

import re
from dataclasses import dataclass, field
from typing import Optional

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


@dataclass
class PipelineConfig:
    strategy_cfg: object
    classifier_cfg: object = None   # defaults to strategy_cfg
    exemplars: object = None        # ExemplarSet, required for fewshot
    shortcut: bool = True
    fail_soft: bool = False

    def classifier_config(self):
        return self.classifier_cfg if self.classifier_cfg is not None \
            else self.strategy_cfg


@dataclass
class Verdict:
    label: str
    pair_id: Optional[str] = None
    strategy: Optional[str] = None
    plans: bool = False
    shortcut: bool = False
    raw: str = ""
    classifier_raw: str = ""
    completions: list = field(default_factory=list)
    error: Optional[str] = None


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


def check_pair(pair, schema, strategy, plans_enabled, backend, cfg):
    """Run one pair through a strategy and classify the outcome."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "fewshot" and cfg.exemplars is None:
        raise BadExemplarSet("fewshot strategy requires cfg.exemplars")

    pair_id = getattr(pair, "id", None)
    if cfg.shortcut and exact_match(pair.sql1, pair.sql2):
        return Verdict(label=LABEL_EQUIVALENT, pair_id=pair_id,
                       strategy=strategy, plans=plans_enabled, shortcut=True)

    plans = pair_plans(pair, schema) if plans_enabled else None

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
