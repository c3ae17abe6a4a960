"""The earlier `lexer.tokenize`, kept as the reference the current one
is checked against: a loop over `finditer` of one pattern with a named
group per kind, gaps included, each match tested by `m.lastgroup`.
It gives `(kind, value, raw, offset)` tuples instead of tokens and
raises the same `SqlSyntaxError`s."""

import re

from sqleq.errors import SqlSyntaxError
from sqleq.lexer import GAP, KEYWORDS, OPERATORS, QUOTED_IDENT, STRING

_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("GAP", GAP),
    ("STRING", STRING),
    ("QIDENT", QUOTED_IDENT),
    ("NUMBER", r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"),
    ("WORD", r"[^\W\d]\w*"),
    ("UNCLOSED", r"/\*|['\"]"),
    ("OP", "|".join(map(re.escape, OPERATORS))),
    ("MISMATCH", "."),
)))

_UNCLOSED = {
    "/*": ("unterminated block comment", "*/"),
    "'": ("unterminated string literal", "'"),
    '"': ("unterminated quoted identifier", '"'),
}


def tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "GAP":
            continue
        raw = m.group()
        start = m.start()
        if kind == "WORD" and (raw[0].isalpha() or raw[0] == "_"):
            upper = raw.upper()
            if upper in KEYWORDS:
                tokens.append(("KW", upper, raw, start))
            else:
                tokens.append(("IDENT", raw.lower(), raw, start))
        elif kind == "OP":
            tokens.append(("OP", raw, raw, start))
        elif kind == "NUMBER":
            tokens.append(("NUMBER", _number(raw, start), raw, start))
        elif kind == "STRING":
            tokens.append(("STRING", raw[1:-1].replace("''", "'"), raw,
                           start))
        elif kind == "QIDENT":
            tokens.append(("QIDENT", raw[1:-1].replace('""', '"'), raw,
                           start))
        else:  # UNCLOSED, MISMATCH, or a WORD such as "²"
            message, expected = _UNCLOSED.get(
                raw, (f"unexpected character {raw[0]!r}", None))
            raise SqlSyntaxError(message, start, expected)
    tokens.append(("EOF", None, "", len(text)))
    return tokens


def _number(raw, offset):
    if not raw.isdecimal():
        value = float(raw)
        if value == float("inf"):
            raise SqlSyntaxError("numeric literal out of range", offset)
        return value
    try:
        return int(raw)
    except ValueError:  # more digits than Python converts from text
        raise SqlSyntaxError("integer literal too long", offset) from None
