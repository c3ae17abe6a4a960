"""Prompt construction for the four strategies and the classifier stage.

Templates live under templates/ with <<MARKER>> slots. Each template is
read through the package's own loader (`__spec__.loader.get_data`, which
a zip import serves too; importlib.resources would load pathlib, zipfile
and tempfile into every process), decoded as UTF-8 with no newline
translation, and split into literal pieces and marker names once per
process, the first time it is used; filling one joins the pieces with
the values of its markers in a single pass, so inserted content is never
rescanned (a query containing a marker or a section header stays
verbatim). The
schema text of a `SchemaDef` and the example block of an `ExemplarSet`
are rendered once per object, as the same text goes into every prompt
of a run. All bodies use LF newlines with exactly one blank line between
sections, end with the Answer header plus a newline -- except the
classifier prompt, which ends at the header.
"""

import functools
import json
import os
import random
import re
import weakref

from .errors import BadExemplarSet, EmptyExplanation, InsufficientPairs
from .records import Frozen, Record
from .schema import SchemaDef, serialize_schema

EQUIVALENT_TEXT = "Equivalent"
NON_EQUIVALENT_TEXT = "Non Equivalent"

_FALLBACK_EXPLANATIONS = {
    "EQ": "Both queries produce the same result on every instance of the "
          "given schema.",
    "NEQ": "There is an instance of the given schema on which the two "
           "queries produce different results.",
}


class PromptBundle(Frozen):
    def __init__(self, strategy, body, meta=None):
        # basic | cot | fewshot | multistage-explain | multistage-decide |
        # classify
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "meta", {} if meta is None else meta)


class Exemplar(Frozen, Record):
    def __init__(self, schema_text, sql1, sql2, label, explanation):
        object.__setattr__(self, "schema_text", schema_text)
        object.__setattr__(self, "sql1", sql1)
        object.__setattr__(self, "sql2", sql2)
        object.__setattr__(self, "label", label)  # EQ | NEQ
        object.__setattr__(self, "explanation", explanation)


class ExemplarSet(Frozen, Record):
    def __init__(self, exemplars, excluded_ids=()):
        object.__setattr__(self, "exemplars", exemplars)
        object.__setattr__(self, "excluded_ids", excluded_ids)
        if len(self.exemplars) != 4:
            raise BadExemplarSet(
                f"need exactly 4 exemplars, got {len(self.exemplars)}")
        labels = sorted(e.label for e in self.exemplars)
        if labels != ["EQ", "EQ", "NEQ", "NEQ"]:
            raise BadExemplarSet(
                "exemplars must be two equivalent and two non-equivalent "
                f"pairs, got {labels}")


def exemplar_set_from_file(path):
    """Exemplar JSON file: list of {schema, sql1, sql2, label, explanation}."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    exemplars = tuple(
        Exemplar(schema_text=e["schema"], sql1=e["sql1"], sql2=e["sql2"],
                 label=e["label"], explanation=e["explanation"])
        for e in entries
    )
    return ExemplarSet(exemplars=exemplars)


def select_exemplars(dataset, seed):
    """Sample a fixed 2 EQ + 2 NEQ exemplar set from a dataset.

    Deterministic for a given (dataset, seed). Sampled pairs are recorded
    in `excluded_ids` so the caller drops them from the scored split.
    Explanations come from each pair's own `explanation`, else a fixed
    per-label text.
    """
    scored = [p for p in dataset.pairs if not p.exact and p.label]
    eq_pool = sorted((p for p in scored if p.label == "EQ"), key=lambda p: p.id)
    neq_pool = sorted((p for p in scored if p.label == "NEQ"),
                      key=lambda p: p.id)
    if len(eq_pool) < 2 or len(neq_pool) < 2:
        raise InsufficientPairs(
            f"need at least 2 pairs per class, have {len(eq_pool)} EQ / "
            f"{len(neq_pool)} NEQ")
    rng = random.Random(seed)
    picked = rng.sample(eq_pool, 2) + rng.sample(neq_pool, 2)
    exemplars = []
    for pair in picked:
        schema = dataset.schemas[pair.schema_name]
        explanation = getattr(pair, "explanation", None) or \
            _FALLBACK_EXPLANATIONS[pair.label]
        exemplars.append(Exemplar(
            schema_text=serialize_schema(schema), sql1=pair.sql1,
            sql2=pair.sql2, label=pair.label, explanation=explanation))
    return ExemplarSet(exemplars=tuple(exemplars),
                       excluded_ids=tuple(p.id for p in picked))


# --- builders ---

def build_strategy(strategy, pair, schema, plans=None, exemplars=None):
    """The one prompt of a one-prompt strategy: basic, cot or fewshot."""
    if strategy == "fewshot":
        return build_fewshot(pair, schema, plans, exemplars=exemplars)
    if strategy == "basic":
        return build_basic(pair, schema, plans)
    if strategy == "cot":
        return build_cot(pair, schema, plans)
    raise ValueError(f"not a one-prompt strategy: {strategy!r}")


def build_basic(pair, schema, plans=None):
    return _build_plain("basic", pair, schema, plans)


def build_cot(pair, schema, plans=None):
    return _build_plain("cot", pair, schema, plans)


def build_fewshot(pair, schema, plans=None, exemplars=None):
    if not isinstance(exemplars, ExemplarSet):
        raise BadExemplarSet("few-shot prompting requires an ExemplarSet")
    body = _fill("fewshot", {
        "EXAMPLES": _examples_text(exemplars),
        "SCHEMA": _schema_text(schema),
        "SQL_BLOCK": _sql_block(pair, plans),
    })
    return PromptBundle("fewshot", body, meta=_meta(pair))


def build_explain(slot, pair, schema, plans=None):
    """Stage 1 of multi-stage prompting: describe one query of the pair."""
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    sql = pair.sql1 if slot == 1 else pair.sql2
    plan = None
    if plans is not None:
        _check_plans(plans)
        plan = plans[slot - 1]
    block = f"[SQL_{slot}] {sql}"
    if plan is not None:
        block += f"\n{plan}"
    body = _fill("explain", {
        "SLOT": f"SQL_{slot}",
        "SCHEMA": _schema_text(schema),
        "SQL_BLOCK": block,
    })
    return PromptBundle("multistage-explain", body,
                        meta=_meta(pair, slot=slot))


def build_decide(pair, schema, plans=None, expl1="", expl2=""):
    """Stage 2 of multi-stage prompting: decide using stage-1 explanations."""
    if not expl1.strip() or not expl2.strip():
        raise EmptyExplanation("both stage-1 explanations are required")
    body = _fill("decide", {
        "SCHEMA": _schema_text(schema),
        "SQL_BLOCK": _sql_block(pair, plans),
        "EXPLANATION_1": expl1,
        "EXPLANATION_2": expl2,
    })
    return PromptBundle("multistage-decide", body, meta=_meta(pair))


def build_classify(raw, meta=None):
    """Wrap strategy output in the three-way classification prompt."""
    if not raw:
        raise ValueError("classifier input must be non-empty")
    body = _fill("classify", {"TEXT": raw})
    return PromptBundle("classify", body, meta=dict(meta or {}))


# --- internals ---

def _build_plain(strategy, pair, schema, plans):
    body = _fill(strategy, {
        "SCHEMA": _schema_text(schema),
        "SQL_BLOCK": _sql_block(pair, plans),
    })
    return PromptBundle(strategy, body, meta=_meta(pair))


def _once_per_object(render):
    """`render(obj)`, computed once per live object.

    Records compare by value and are unhashable, so entries are keyed by
    `id(obj)`; each holds the object only through a weak reference, a
    hit must find that same object behind it, and the entry goes when
    the object is freed. The object's own attributes are not touched.
    """
    entries = {}

    def once(obj):
        key = id(obj)
        entry = entries.get(key)
        if entry is not None and entry[0]() is obj:
            return entry[1]
        text = render(obj)
        entries[key] = (weakref.ref(obj, lambda _: entries.pop(key, None)),
                        text)
        return text
    return once


_MARKER = re.compile(r"<<(\w+)>>")


@functools.cache
def _template(name):
    """The template's pieces: literal text at even indexes, marker names
    at odd ones."""
    path = os.path.join(os.path.dirname(__file__), "templates", f"{name}.txt")
    text = __spec__.loader.get_data(path).decode("utf-8")
    return tuple(_MARKER.split(text))


def _fill(name, mapping):
    """Template `name` with each marker replaced by its value in
    `mapping`; inserted text is never rescanned."""
    pieces = list(_template(name))
    pieces[1::2] = [mapping[marker] for marker in pieces[1::2]]
    return "".join(pieces)


@_once_per_object
def _examples_text(exemplars):
    blocks = []
    for i, exemplar in enumerate(exemplars.exemplars, start=1):
        label_text = EQUIVALENT_TEXT if exemplar.label == "EQ" \
            else NON_EQUIVALENT_TEXT
        blocks.append(_fill("fewshot_example", {
            "NUMBER": str(i),
            "SCHEMA": exemplar.schema_text,
            "SQL_BLOCK": _sql_block(exemplar, None),
            "LABEL": label_text,
            "EXPLANATION": exemplar.explanation,
        }).rstrip("\n"))
    return "\n\n".join(blocks)


def _schema_text(schema):
    if isinstance(schema, SchemaDef):
        return _serialized(schema)
    return schema


_serialized = _once_per_object(serialize_schema)


def _check_plans(plans):
    if len(plans) != 2 or any(p is None for p in plans):
        raise ValueError("plans must be provided for both queries or neither")


def _sql_block(pair, plans):
    if plans is None:
        return f"[SQL_1] {pair.sql1}\n\n[SQL_2] {pair.sql2}"
    _check_plans(plans)
    return (f"[SQL_1] {pair.sql1}\n{plans[0]}"
            f"\n\n[SQL_2] {pair.sql2}\n{plans[1]}")


def _meta(pair, **extra):
    meta = {"pair_id": getattr(pair, "id", None)}
    meta.update(extra)
    return meta
