"""Seeded inputs for the benchmark workloads.

Everything the program reads during a run is generated here from the
workload seed: pair corpora, schemas, mock scripts, the loopback stub's
script, few-shot exemplars and oracle database instances. The same seed
gives the same bytes. Each generator also returns what a correct run must
output, so the checks never ask the program under test for the answer.
"""

import json
import random
from dataclasses import dataclass

EQ_TEXT = "Equivalent"
NEQ_TEXT = "Non Equivalent"
LABEL_OF_TEXT = {EQ_TEXT: "Equivalent", NEQ_TEXT: "NonEquivalent"}

STRATEGIES = ("basic", "cot", "fewshot", "multistage")

# Shape of the published difficulty corpus: 460 exact-match pairs plus
# (EQ, NEQ) scored pairs per difficulty.
DIFFICULTY_EXACT = 460
DIFFICULTY_TOTALS = {
    "Easy": (38, 20),
    "Medium": (188, 62),
    "Hard": (84, 42),
    "ExtraHard": (75, 65),
}

# Shape of the question-tagged corpus and the per-question (EQ correct,
# NEQ correct) counts of the scripted strong-model run.
QUESTION_TOTALS = {
    "Q1": (102, 8),
    "Q2": (102, 7),
    "Q3": (77, 32),
    "Q4": (16, 86),
    "Q5": (10, 59),
}
SCRIPTED_QUESTION_CORRECT = {
    "Q1": (68, 8),
    "Q2": (65, 6),
    "Q3": (60, 17),
    "Q4": (16, 43),
    "Q5": (9, 14),
}

MULTI_CLAUSE_PAIRS = 500
# Share of multi-clause pairs the scripted model answers correctly.
MULTI_CLAUSE_ACCURACY = 0.75
DIFFICULTY_ACCURACY = 0.8

_TOY_SCHEMA_TEXT = ("Table t, columns = [ *, a, b ]\n\nForeign_keys = [  ]\n"
                    "Primary_keys = [  ]")
EXEMPLARS = [
    {"schema": _TOY_SCHEMA_TEXT,
     "sql1": "SELECT a FROM t", "sql2": "SELECT a FROM t WHERE 1 = 1",
     "label": "EQ",
     "explanation": "An always-true filter keeps every row."},
    {"schema": _TOY_SCHEMA_TEXT,
     "sql1": "SELECT a FROM t", "sql2": "SELECT a FROM t WHERE a > 0",
     "label": "NEQ",
     "explanation": "The filter drops rows with non-positive a."},
    {"schema": _TOY_SCHEMA_TEXT,
     "sql1": "SELECT DISTINCT a FROM t",
     "sql2": "SELECT a FROM t GROUP BY a",
     "label": "EQ",
     "explanation": "Grouping without aggregates keeps one row per value."},
    {"schema": _TOY_SCHEMA_TEXT,
     "sql1": "SELECT COUNT(*) FROM t", "sql2": "SELECT COUNT(a) FROM t",
     "label": "NEQ",
     "explanation": "COUNT(a) skips NULLs while COUNT(*) does not."},
]


@dataclass
class Corpus:
    """A pair dataset plus the scripted model answer for each pair.

    `script` maps pair id to the response text the scripted model gives
    for every prompt of that pair; exact-match pairs have none because
    the pipeline answers them without a backend call.
    """
    name: str
    schemas: dict
    records: list
    script: dict

    def expected_labels(self):
        """Pipeline label each pair must get."""
        out = {}
        for record in self.records:
            if record["id"] in self.script:
                out[record["id"]] = LABEL_OF_TEXT[self.script[record["id"]]]
            else:
                out[record["id"]] = "Equivalent"   # exact-match shortcut
        return out

    def exact_ids(self):
        return {r["id"] for r in self.records if r["id"] not in self.script}

    def write(self, directory):
        paths = {
            "dataset": directory / f"{self.name}.jsonl",
            "schemas": directory / f"{self.name}_schemas.json",
            "mock_script": directory / f"{self.name}_mock.json",
        }
        _write_jsonl(paths["dataset"], self.records)
        paths["schemas"].write_text(json.dumps(self.schemas),
                                    encoding="utf-8")
        rules = [{"match": {"pair_id": pid}, "response": text}
                 for pid, text in self.script.items()]
        paths["mock_script"].write_text(json.dumps(rules), encoding="utf-8")
        return paths


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record) + "\n")


def _scaled(totals, scale):
    return {k: tuple(max(2, round(v * scale)) for v in pair)
            for k, pair in totals.items()}


def _answer(rng, label, accuracy):
    correct = rng.random() < accuracy
    if (label == "EQ") == correct:
        return EQ_TEXT
    return NEQ_TEXT


# --- pipeline corpora ---

def difficulty_corpus(seed, scale=1.0):
    """1034 pairs, 460 of them exact matches answered by the shortcut."""
    rng = random.Random(f"difficulty-{seed}")
    base = rng.randrange(10_000, 1_000_000)
    records, script = [], {}
    serial = base
    for i in range(max(4, round(DIFFICULTY_EXACT * scale))):
        records.append({
            "id": f"xm-{i:03d}",
            "sql1": f"select a from t where b = {serial}",
            "sql2": f"SELECT  a FROM t WHERE b = {serial};",
            "schema": "toy", "label": "EQ", "difficulty": "Easy",
        })
        serial += 1
    for difficulty, (eq_n, neq_n) in _scaled(DIFFICULTY_TOTALS,
                                              scale).items():
        for label, count in (("EQ", eq_n), ("NEQ", neq_n)):
            for j in range(count):
                pid = f"{label.lower()}-{difficulty.lower()}-{j:03d}"
                other = f"{serial} = b" if label == "EQ" \
                    else f"b = {serial + 100000}"
                records.append({
                    "id": pid,
                    "sql1": f"SELECT a FROM t WHERE b = {serial}",
                    "sql2": f"SELECT a FROM t WHERE {other}",
                    "schema": "toy", "label": label,
                    "difficulty": difficulty,
                })
                script[pid] = _answer(rng, label, DIFFICULTY_ACCURACY)
                serial += 1
    rng.shuffle(records)
    schemas = {"toy": {"tables": [{"name": "t", "columns": ["a", "b"]}],
                       "foreign_keys": [], "primary_keys": []}}
    return Corpus("difficulty", schemas, records, _shuffled(rng, script))


def question_corpus(seed, scale=1.0):
    """499 question-tagged pairs; the script reproduces the per-question
    correct counts of SCRIPTED_QUESTION_CORRECT (scaled when tiny)."""
    rng = random.Random(f"question-{seed}")
    serial = rng.randrange(10_000, 1_000_000)
    totals = QUESTION_TOTALS if scale == 1.0 \
        else _scaled(QUESTION_TOTALS, scale)
    records, script = [], {}
    for question, (eq_n, neq_n) in totals.items():
        eq_ok, neq_ok = SCRIPTED_QUESTION_CORRECT[question]
        if scale != 1.0:
            eq_ok, neq_ok = eq_n // 2, neq_n // 2
        for label, count, ok in (("EQ", eq_n, eq_ok), ("NEQ", neq_n, neq_ok)):
            right = set(rng.sample(range(count), ok))
            for j in range(count):
                pid = f"qq-{question.lower()}-{label.lower()}-{j:03d}"
                sql1 = ("SELECT playerid FROM people "
                        f"WHERE playerid = 'p{serial}'")
                sql2 = (f"SELECT playerid FROM people WHERE 'p{serial}' "
                        "= playerid" if label == "EQ" else
                        "SELECT playerid FROM batting "
                        f"WHERE playerid = 'p{serial}'")
                records.append({"id": pid, "sql1": sql1, "sql2": sql2,
                                "schema": "baseball", "label": label,
                                "question": question})
                truth = EQ_TEXT if label == "EQ" else NEQ_TEXT
                wrong = NEQ_TEXT if label == "EQ" else EQ_TEXT
                script[pid] = truth if j in right else wrong
                serial += 1
    rng.shuffle(records)
    schemas = {"baseball": {
        "tables": [
            {"name": "people",
             "columns": ["playerid", "namefirst", "namelast"]},
            {"name": "batting", "columns": ["playerid", "yearid", "cs"]},
        ],
        "foreign_keys": [["batting.playerid", "people.playerid"]],
        "primary_keys": ["people.playerid"],
    }}
    return Corpus("question", schemas, records, _shuffled(rng, script))


def _shuffled(rng, mapping):
    keys = list(mapping)
    rng.shuffle(keys)
    return {k: mapping[k] for k in keys}


SHOP_SCHEMA = {
    "tables": [
        {"name": "customers", "columns": ["cid", "name", "city"]},
        {"name": "orders", "columns": ["oid", "cid", "amount", "status"]},
        {"name": "items", "columns": ["oid", "sku", "qty"]},
    ],
    "foreign_keys": [["orders.cid", "customers.cid"],
                     ["items.oid", "orders.oid"]],
    "primary_keys": ["customers.cid", "orders.oid"],
}
CITIES = ("oslo", "rome", "lima", "kyiv", "pune")
STATUSES = ("new", "paid", "sent", "void")


def _mc_join(rng):
    n, city = rng.randrange(10, 500), rng.choice(CITIES)
    a = f"o.amount > {n}"
    b = f"c.city = '{city}'"
    sql1 = (f"SELECT c.name, o.amount FROM customers c JOIN orders o "
            f"ON c.cid = o.cid WHERE {a} AND {b}")
    eq = [
        f"SELECT c.name, o.amount FROM orders o JOIN customers c "
        f"ON o.cid = c.cid WHERE {a} AND {b}",
        f"SELECT c.name, o.amount FROM customers c JOIN orders o "
        f"ON c.cid = o.cid WHERE {b} AND {n} < o.amount",
        f"SELECT c.name, o.amount FROM customers c, orders o "
        f"WHERE c.cid = o.cid AND {a} AND {b}",
    ]
    neq = [
        f"SELECT c.name, o.amount FROM customers c LEFT JOIN orders o "
        f"ON c.cid = o.cid AND {a} WHERE {b}",
        f"SELECT c.name, o.amount FROM customers c JOIN orders o "
        f"ON c.cid = o.cid WHERE o.amount >= {n} AND {b}",
    ]
    return sql1, eq, neq


def _mc_agg(rng):
    n, k, s = rng.randrange(10, 500), rng.randrange(1, 6), rng.choice(STATUSES)
    sql1 = (f"SELECT o.status, COUNT(*), SUM(o.amount) FROM orders o "
            f"WHERE o.amount > {n} GROUP BY o.status HAVING COUNT(*) > {k}")
    eq = [
        f"SELECT o.status, COUNT(*), SUM(o.amount) FROM orders o "
        f"WHERE {n} < o.amount GROUP BY o.status HAVING {k} < COUNT(*)",
        f"SELECT status, COUNT(oid), SUM(amount) FROM orders "
        f"WHERE amount > {n} GROUP BY status HAVING COUNT(*) > {k}",
    ]
    neq = [
        f"SELECT o.status, COUNT(o.amount), SUM(o.amount) FROM orders o "
        f"GROUP BY o.status HAVING COUNT(*) > {k}",
        f"SELECT o.status, COUNT(*), SUM(o.amount) FROM orders o "
        f"WHERE o.amount > {n} AND o.status <> '{s}' GROUP BY o.status "
        f"HAVING COUNT(*) > {k}",
    ]
    return sql1, eq, neq


def _mc_setop(rng):
    s, city = rng.choice(STATUSES), rng.choice(CITIES)
    left = f"SELECT cid FROM orders WHERE status = '{s}'"
    right = f"SELECT cid FROM customers WHERE city = '{city}'"
    op = rng.choice(["UNION", "INTERSECT"])
    sql1 = f"{left} {op} {right}"
    eq = [f"{right} {op} {left}"]
    neq = [f"{left} {op} ALL {right}" if op == "UNION" else
           f"{left} EXCEPT {right}",
           f"{right} EXCEPT {left}"]
    return sql1, eq, neq


def _mc_scalar(rng):
    n = rng.randrange(50, 2000)
    sub = "(SELECT SUM(o.amount) FROM orders o WHERE o.cid = c.cid)"
    sql1 = f"SELECT c.name FROM customers c WHERE {sub} > {n}"
    eq = [f"SELECT c.name FROM customers c WHERE {n} < {sub}",
          f"SELECT c.name FROM customers c JOIN (SELECT cid, SUM(amount) "
          f"AS total FROM orders GROUP BY cid) t ON t.cid = c.cid "
          f"WHERE t.total > {n}"]
    neq = [sql1.replace("SUM(", "MAX("),
           f"SELECT c.name FROM customers c WHERE {sub} >= {n}"]
    return sql1, eq, neq


def _mc_in(rng):
    s = rng.choice(STATUSES)
    sql1 = (f"SELECT c.name FROM customers c WHERE c.cid IN "
            f"(SELECT o.cid FROM orders o WHERE o.status = '{s}')")
    eq = [f"SELECT c.name FROM customers c WHERE EXISTS (SELECT 1 FROM "
          f"orders o WHERE o.cid = c.cid AND o.status = '{s}')"]
    neq = [f"SELECT c.name FROM customers c JOIN orders o "
           f"ON o.cid = c.cid WHERE o.status = '{s}'",
           f"SELECT c.name FROM customers c WHERE c.cid NOT IN "
           f"(SELECT o.cid FROM orders o WHERE o.status <> '{s}')"]
    return sql1, eq, neq


def _mc_order(rng):
    s, k = rng.choice(STATUSES), rng.randrange(1, 20)
    sql1 = (f"SELECT oid, amount FROM orders WHERE status = '{s}' "
            f"ORDER BY amount DESC, oid LIMIT {k}")
    eq = [f"SELECT oid, amount FROM orders WHERE '{s}' = status "
          f"ORDER BY amount DESC, oid ASC LIMIT {k}"]
    neq = [f"SELECT oid, amount FROM orders WHERE status = '{s}' "
           f"ORDER BY amount, oid LIMIT {k}",
           f"SELECT oid, amount FROM orders WHERE status = '{s}' "
           f"ORDER BY amount DESC, oid LIMIT {k + 1}"]
    return sql1, eq, neq


def _mc_unplannable(rng):
    # names a column the schema lacks, so the plan is the placeholder
    n = rng.randrange(1, 90)
    sql1 = f"SELECT o.oid FROM orders o WHERE o.discount > {n}"
    return sql1, [f"SELECT oid FROM orders WHERE discount > {n}"], \
        [f"SELECT o.oid FROM orders o WHERE o.discount >= {n}"]


_MULTI_CLAUSE_KINDS = (
    (_mc_join, 4), (_mc_agg, 3), (_mc_setop, 2), (_mc_scalar, 2),
    (_mc_in, 2), (_mc_order, 2), (_mc_unplannable, 1),
)


def multi_clause_corpus(seed, scale=1.0):
    """About 500 pairs with joins, aggregates, set operations and
    subqueries; seeded labels and a seeded scripted answer per pair."""
    rng = random.Random(f"multi-{seed}")
    kinds = [k for k, weight in _MULTI_CLAUSE_KINDS for _ in range(weight)]
    records, script = [], {}
    # the mix of kinds, labels and rewrites is the same for every seed,
    # so the work per pass is too; the seed picks literals and order
    rewrites = {}
    for i in range(max(8, round(MULTI_CLAUSE_PAIRS * scale))):
        kind = kinds[i % len(kinds)]
        sql1, eq, neq = kind(rng)
        label = "EQ" if (i // len(kinds)) % 5 < 3 else "NEQ"
        options = eq if label == "EQ" else neq
        used = rewrites.get((kind, label), 0)
        rewrites[kind, label] = used + 1
        sql2 = options[used % len(options)]
        pid = f"mc-{i:04d}"
        records.append({"id": pid, "sql1": sql1, "sql2": sql2,
                        "schema": "shop", "label": label,
                        "difficulty": rng.choice(list(DIFFICULTY_TOTALS))})
        script[pid] = _answer(rng, label, MULTI_CLAUSE_ACCURACY)
    return Corpus("multi", {"shop": SHOP_SCHEMA}, records,
                  _shuffled(rng, script))


# --- oracle workloads ---

@dataclass
class OraclePair:
    id: str
    sql1: str
    sql2: str
    label: str          # EQ | NEQ
    families: tuple     # (family of sql1, family of sql2)


@dataclass
class OracleSet:
    name: str
    schema: dict
    pairs: list
    instances: list     # instance dicts, first one small
    column_types: dict  # table -> sqlite column types

    def family_of_sql(self):
        out = {}
        for pair in self.pairs:
            out[pair.sql1] = pair.families[0]
            out[pair.sql2] = pair.families[1]
        return out

    def write(self, directory):
        dataset = directory / f"{self.name}.jsonl"
        _write_jsonl(dataset, [
            {"id": p.id, "sql1": p.sql1, "sql2": p.sql2, "schema": "db",
             "label": p.label} for p in self.pairs])
        schemas = directory / f"{self.name}_schemas.json"
        schemas.write_text(json.dumps({"db": self.schema}), encoding="utf-8")
        instances = []
        for i, instance in enumerate(self.instances):
            path = directory / f"{self.name}_instance{i}.json"
            path.write_text(json.dumps(instance), encoding="utf-8")
            instances.append(path)
        return {"dataset": dataset, "schemas": schemas,
                "instances": instances}


JOIN_FAMILIES = ("join", "left_join", "in_sub", "exists_corr", "not_in",
                 "scalar_corr")
SCAN_FAMILIES = ("scan", "group", "distinct", "order_limit", "setop", "case")

JOIN_PAIRS = [
    # (id, label, family1, family2, sql1, sql2)
    ("join-commute", "EQ", "join", "join",
     "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept = d.did",
     "SELECT e.id, d.name FROM dept d JOIN emp e ON d.did = e.dept"),
    ("join-on-where", "EQ", "join", "join",
     "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept = d.did "
     "WHERE d.budget > 50",
     "SELECT e.id, d.name FROM dept d JOIN emp e ON d.did = e.dept "
     "AND d.budget > 50"),
    ("left-commute", "NEQ", "left_join", "left_join",
     "SELECT e.id, d.name FROM emp e LEFT JOIN dept d ON e.dept = d.did",
     "SELECT e.id, d.name FROM dept d LEFT JOIN emp e ON e.dept = d.did"),
    ("left-right", "EQ", "left_join", "left_join",
     "SELECT e.id, d.name FROM emp e LEFT JOIN dept d ON e.dept = d.did",
     "SELECT e.id, d.name FROM dept d RIGHT JOIN emp e ON e.dept = d.did"),
    ("in-exists", "EQ", "in_sub", "exists_corr",
     "SELECT e.id FROM emp e WHERE e.dept IN "
     "(SELECT d.did FROM dept d WHERE d.budget > 50)",
     "SELECT e.id FROM emp e WHERE EXISTS (SELECT 1 FROM dept d "
     "WHERE d.did = e.dept AND d.budget > 50)"),
    ("notin-notexists", "NEQ", "not_in", "exists_corr",
     "SELECT e.id FROM emp e WHERE e.dept NOT IN (SELECT d.did FROM dept d)",
     "SELECT e.id FROM emp e WHERE NOT EXISTS (SELECT 1 FROM dept d "
     "WHERE d.did = e.dept)"),
    ("in-join", "NEQ", "in_sub", "join",
     "SELECT e.id FROM emp e WHERE e.dept IN (SELECT d.did FROM dept d)",
     "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.did"),
    ("in-join-distinct", "EQ", "in_sub", "join",
     "SELECT e.id FROM emp e WHERE e.dept IN (SELECT d.did FROM dept d)",
     "SELECT DISTINCT e.id FROM emp e JOIN dept d ON e.dept = d.did"),
    ("scalar-max", "EQ", "scalar_corr", "left_join",
     "SELECT d.did, d.name, (SELECT MAX(e.salary) FROM emp e "
     "WHERE e.dept = d.did) FROM dept d",
     "SELECT d.did, d.name, MAX(e.salary) FROM dept d LEFT JOIN emp e "
     "ON e.dept = d.did GROUP BY d.did, d.name"),
    ("scalar-count", "NEQ", "scalar_corr", "left_join",
     "SELECT d.name, (SELECT COUNT(*) FROM emp e WHERE e.dept = d.did) "
     "FROM dept d",
     "SELECT d.name, COUNT(*) FROM dept d LEFT JOIN emp e "
     "ON e.dept = d.did GROUP BY d.name"),
]

JOIN_SCHEMA = {
    "tables": [{"name": "emp", "columns": ["id", "dept", "salary"]},
               {"name": "dept", "columns": ["did", "name", "budget"]}],
    "foreign_keys": [["emp.dept", "dept.did"]],
    "primary_keys": ["emp.id"],
}
JOIN_TYPES = {"emp": ("INTEGER", "INTEGER", "INTEGER"),
              "dept": ("INTEGER", "TEXT", "INTEGER")}


def _column(rng, values, null_share=0.05):
    """A fixed multiset of values with a fixed share of NULLs, in seeded
    order; tables built from such columns cost the same to query for
    every seed."""
    values = list(values)
    for i in range(round(len(values) * null_share)):
        values[i] = None
    rng.shuffle(values)
    return values


def join_set(seed, sizes=(100, 300)):
    """Two tables per instance, n rows each, with join keys from a domain
    about the table size and 5% NULL keys. Employee keys cover
    [0, 0.8n); department keys cover [0.1n, n) with duplicates, so some
    employees match none, some two departments, and the departments
    above 0.8n have no employees: every NEQ pair has a witness."""
    rng = random.Random(f"oracle-join-{seed}")
    instances = []
    for n in sizes:
        emp_keys = _column(rng, (i % (n * 4 // 5) for i in range(n)))
        salaries = _column(rng, ((i * 7919) % 1000 for i in range(n)), 0)
        dept_keys = _column(rng, (n // 10 + i % (n * 9 // 10)
                                  for i in range(n)))
        budgets = _column(rng, ((i * 37) % 100 for i in range(n)), 0)
        emp = [list(row) for row in zip(range(n), emp_keys, salaries)]
        dept = [[key, f"d{i}", budget]
                for i, (key, budget) in enumerate(zip(dept_keys, budgets))]
        instances.append({"tables": {
            "emp": {"columns": ["id", "dept", "salary"], "rows": emp},
            "dept": {"columns": ["did", "name", "budget"], "rows": dept},
        }})
    pairs = [OraclePair(pid, s1, s2, label, (f1, f2))
             for pid, label, f1, f2, s1, s2 in JOIN_PAIRS]
    rng.shuffle(pairs)
    return OracleSet("oracle_join", JOIN_SCHEMA, pairs, instances, JOIN_TYPES)


SCAN_PAIRS = [
    ("filter-commute", "EQ", "scan", "scan",
     "SELECT id, amount FROM orders WHERE qty > 3 AND status = 'paid'",
     "SELECT id, amount FROM orders WHERE status = 'paid' AND qty > 3"),
    ("between", "EQ", "scan", "scan",
     "SELECT id FROM orders WHERE qty BETWEEN 3 AND 7",
     "SELECT id FROM orders WHERE qty >= 3 AND qty <= 7"),
    ("like-in", "EQ", "scan", "scan",
     "SELECT id, status FROM orders WHERE status LIKE 'sh%'",
     "SELECT id, status FROM orders WHERE status IN ('shipped', 'shelved')"),
    ("strict-bound", "NEQ", "scan", "scan",
     "SELECT id FROM orders WHERE qty > 5",
     "SELECT id FROM orders WHERE qty >= 5"),
    ("having-where", "EQ", "group", "group",
     "SELECT cust, COUNT(*) FROM orders WHERE cust > 20 GROUP BY cust",
     "SELECT cust, COUNT(*) FROM orders GROUP BY cust HAVING cust > 20"),
    ("distinct-groupby", "EQ", "distinct", "group",
     "SELECT DISTINCT cust, status FROM orders",
     "SELECT cust, status FROM orders GROUP BY cust, status"),
    ("count-star-col", "NEQ", "group", "group",
     "SELECT status, COUNT(*) FROM orders GROUP BY status",
     "SELECT status, COUNT(note) FROM orders GROUP BY status"),
    ("avg-sum-count", "EQ", "group", "group",
     "SELECT cust, AVG(amount) FROM orders GROUP BY cust",
     "SELECT cust, SUM(amount) / COUNT(amount) FROM orders GROUP BY cust"),
    ("union-unionall", "NEQ", "setop", "setop",
     "SELECT cust FROM orders WHERE qty < 5 UNION "
     "SELECT cust FROM orders WHERE qty > 5",
     "SELECT cust FROM orders WHERE qty < 5 UNION ALL "
     "SELECT cust FROM orders WHERE qty > 5"),
    ("unionall-or", "EQ", "setop", "scan",
     "SELECT id, cust FROM orders WHERE qty < 3 UNION ALL "
     "SELECT id, cust FROM orders WHERE qty > 8",
     "SELECT id, cust FROM orders WHERE qty < 3 OR qty > 8"),
    ("except-ne", "NEQ", "setop", "scan",
     "SELECT id FROM orders EXCEPT SELECT id FROM orders "
     "WHERE status = 'paid'",
     "SELECT id FROM orders WHERE status <> 'paid'"),
    ("order-nulls-last", "EQ", "order_limit", "order_limit",
     "SELECT id, qty FROM orders WHERE qty IS NOT NULL "
     "ORDER BY qty DESC, id LIMIT 30",
     "SELECT id, qty FROM orders ORDER BY qty DESC, id LIMIT 30"),
    ("order-direction", "NEQ", "order_limit", "order_limit",
     "SELECT id, amount FROM orders ORDER BY id LIMIT 30",
     "SELECT id, amount FROM orders ORDER BY id DESC LIMIT 30"),
    ("coalesce-case", "EQ", "case", "case",
     "SELECT id, COALESCE(note, 'none') FROM orders",
     "SELECT id, CASE WHEN note IS NULL THEN 'none' ELSE note END "
     "FROM orders"),
    ("case-null", "NEQ", "case", "case",
     "SELECT id, CASE WHEN qty > 5 THEN 'big' ELSE 'small' END FROM orders",
     "SELECT id, CASE WHEN qty <= 5 THEN 'small' ELSE 'big' END "
     "FROM orders"),
]

SCAN_SCHEMA = {
    "tables": [{"name": "orders",
                "columns": ["id", "cust", "amount", "qty", "status",
                            "note"]}],
    "foreign_keys": [],
    "primary_keys": ["orders.id"],
}
SCAN_TYPES = {"orders": ("INTEGER", "INTEGER", "REAL", "INTEGER", "TEXT",
                         "TEXT")}
SCAN_STATUSES = ("new", "paid", "shipped", "shelved", "cancelled")
NOTE_WORDS = ("gift", "rush", "fragile", "bulk", "late", "retry")


def scan_set(seed, sizes=(2000, 4000)):
    """One table with a declared primary key, real amounts and 5% NULLs
    in every non-key column; the NULLs and the qty value 5 are the
    witnesses of the NEQ pairs."""
    rng = random.Random(f"oracle-scan-{seed}")
    instances = []
    for n in sizes:
        columns = [
            range(1, n + 1),
            _column(rng, (i % (n // 20) for i in range(n))),
            _column(rng, (round(rng.uniform(1, 500), 2) for _ in range(n))),
            _column(rng, (i % 11 for i in range(n))),
            _column(rng, (SCAN_STATUSES[i % len(SCAN_STATUSES)]
                          for i in range(n))),
            _column(rng, (NOTE_WORDS[i % len(NOTE_WORDS)] for i in range(n))),
        ]
        rows = [list(row) for row in zip(*columns)]
        instances.append({"tables": {"orders": {
            "columns": SCAN_SCHEMA["tables"][0]["columns"], "rows": rows}}})
    pairs = [OraclePair(pid, s1, s2, label, (f1, f2))
             for pid, label, f1, f2, s1, s2 in SCAN_PAIRS]
    rng.shuffle(pairs)
    return OracleSet("oracle_scan", SCAN_SCHEMA, pairs, instances, SCAN_TYPES)


def write_exemplars(directory):
    path = directory / "exemplars.json"
    path.write_text(json.dumps(EXEMPLARS), encoding="utf-8")
    return path


def stub_script(corpus):
    """Stub answers keyed by query text: [SQL_1] text first, [SQL_2]
    text for the second explain prompt of the multistage strategy."""
    by_id = {r["id"]: r for r in corpus.records}
    sql1, sql2 = {}, {}
    for pid, text in corpus.script.items():
        sql1[by_id[pid]["sql1"]] = text
        sql2[by_id[pid]["sql2"]] = text
    return {"sql1": sql1, "sql2": sql2}
