"""Tokenizer for the SELECT-only SQL dialect, and SQL's lexical rules.

The pattern strings `GAP` (whitespace or a `COMMENT`), `STRING` and
`QUOTED_IDENT` define once how SQL text splits; `normalize.py` builds
its scanner from them too.
Whitespace and comments (`--` to the end of the line, `/* */`) separate
tokens. A string literal ('...') or quoted identifier ("...") runs to
its closing quote, and a doubled quote inside stands for one quote.

Unquoted identifiers and keywords are case-folded (keywords upper,
identifiers lower); quoted identifiers and string literals keep their
exact contents. Numbers are `1`, `1.5`, `.5`, `1e5` or `1.5E-3`; an
exponent needs a digit, so `1e+` is `1`, `e`, `+`.
"""

import re

from .errors import SqlSyntaxError
from .records import Frozen

KEYWORDS = frozenset("""
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS ON JOIN INNER
    LEFT RIGHT FULL OUTER CROSS UNION INTERSECT EXCEPT ALL DISTINCT WITH
    RECURSIVE AND OR NOT IN IS NULL LIKE BETWEEN EXISTS CASE WHEN THEN ELSE
    END TRUE FALSE ASC DESC ANY SOME ARRAY CAST OVER NATURAL USING
""".split())

# Longest first so '<=' wins over '<', '::' over ':'.
OPERATORS = (
    "||", "::", "<=", ">=", "<>", "!=",
    "=", "<", ">", "+", "-", "*", "/", "%",
    "(", ")", "[", "]", ",", ".", ";",
)

# A line comment, or a block comment that closes.
COMMENT = r"--[^\n]*\n?|/\*(?s:.*?)\*/"
GAP = rf"\s+|{COMMENT}"
# A quoted run that closes; the lookahead keeps an escaped quote from
# closing it.
STRING = r"'[^']*(?:''[^']*)*'(?!')"
QUOTED_IDENT = r'"[^"]*(?:""[^"]*)*"(?!")'

# Tried in order at each position: GAP before '-' and '/', NUMBER before
# '.'. WORD also starts on a non-decimal digit such as '²' or '½',
# which `tokenize` rejects.
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


class Token(Frozen):
    def __init__(self, kind, value, raw, offset, _set=object.__setattr__):
        # kind: KW, IDENT, QIDENT, STRING, NUMBER, OP, EOF; value: the
        # normalized text (keywords upper, identifiers lower); raw: the
        # exact source slice; offset: byte offset of the first character.
        # `_set` is bound once, not looked up per field and token.
        _set(self, "kind", kind)
        _set(self, "value", value)
        _set(self, "raw", raw)
        _set(self, "offset", offset)


def tokenize(text):
    """Return the token list for `text`, ending with an EOF token."""
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
                tokens.append(Token("KW", upper, raw, start))
            else:
                tokens.append(Token("IDENT", raw.lower(), raw, start))
        elif kind == "OP":
            tokens.append(Token("OP", raw, raw, start))
        elif kind == "NUMBER":
            tokens.append(Token("NUMBER", _number(raw, start), raw, start))
        elif kind == "STRING":
            tokens.append(Token("STRING", raw[1:-1].replace("''", "'"),
                                raw, start))
        elif kind == "QIDENT":
            tokens.append(Token("QIDENT", raw[1:-1].replace('""', '"'),
                                raw, start))
        else:  # UNCLOSED, MISMATCH, or a WORD such as "²"
            message, expected = _UNCLOSED.get(
                raw, (f"unexpected character {raw[0]!r}", None))
            raise SqlSyntaxError(message, start, expected)
    tokens.append(Token("EOF", None, "", len(text)))
    return tokens


def _number(raw, offset):
    if not raw.isdecimal():
        return float(raw)
    try:
        return int(raw)
    except ValueError:  # more digits than Python converts from text
        raise SqlSyntaxError("integer literal too long", offset) from None
