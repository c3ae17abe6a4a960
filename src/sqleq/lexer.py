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
exponent needs a digit, so `1e+` is `1`, `e`, `+`. A number is an int
when it is all digits and a float otherwise; an int with more digits
than Python converts, or a float past the largest float (`1e999`), is
a SqlSyntaxError at its offset, so no literal is an infinity.

`tokenize` scans a text with one `re.split` of a (gaps, token) pattern,
done in C, and classifies each token by its first character; the loop
over tokens builds no match object and does not see the gaps.

A token is a `Token`, a named tuple (kind, value, raw, offset) with no
instance dict: its fields read as attributes (or by index), and
assigning, adding or deleting an attribute raises AttributeError.
`tokenize` builds each one with `tuple.__new__`, which runs no
Python-level `__init__` or `__new__`: that halves the cost of a token,
made once per token of every parsed text.
"""

import re
from collections import namedtuple

from .errors import SqlSyntaxError

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

# One scan step: the gaps before a token, then the token. After the
# longest run of gaps some token form always matches (any character, or
# `\Z` at the end of the text), so a token never starts inside a gap.
# The forms are tried in order: NUMBER before '.'; a WORD
# (`[^\W\d]\w*`) also starts on a non-decimal digit such as '²' or '½',
# which `tokenize` rejects; an opening quote that no string closes is a
# token of its own, and a `/*` that no comment closes takes the rest of
# the text, as the scan would otherwise look for a `*/` again from each
# later `/*`.
_STEP = re.compile(
    rf"((?:{GAP})*)({STRING}|{QUOTED_IDENT}"
    r"|(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?|[^\W\d]\w*"
    r"|/\*(?s:.*)|['\"]|" + "|".join(map(re.escape, OPERATORS)) + r"|.|\Z)")

_OPERATORS = frozenset(OPERATORS)
_INFINITY = float("inf")
# by the first character of an unclosed comment or quote
_UNCLOSED = {
    "/": ("unterminated block comment", "*/"),
    "'": ("unterminated string literal", "'"),
    '"': ("unterminated quoted identifier", '"'),
}


class Token(namedtuple("Token", "kind value raw offset")):
    """kind: KW, IDENT, QIDENT, STRING, NUMBER, OP, EOF; value: the
    normalized text (keywords upper, identifiers lower) or the number;
    raw: the exact source slice; offset: the index of its first
    character in the text."""
    __slots__ = ()


def tokenize(text):
    """Return the token list for `text`, ending with an EOF token.

    One `_STEP.split` cuts the whole text into (gaps, token) steps; each
    token's kind follows from its first character, and its offset from
    the lengths of the pieces before it.
    """
    tokens = []
    append = tokens.append
    new = tuple.__new__  # new(Token, fields) runs no Python code
    pieces = iter(_STEP.split(text))
    next(pieces)  # the empty text before the first step
    offset = 0
    # a step is (gaps, token, the empty text up to the next step)
    for gaps, raw, _ in zip(pieces, pieces, pieces):
        offset += len(gaps)
        if not raw:  # the end of the text
            break
        first = raw[0]
        if first.isalpha() or first == "_":
            upper = raw.upper()
            if upper in KEYWORDS:
                append(new(Token, ("KW", upper, raw, offset)))
            else:
                append(new(Token, ("IDENT", raw.lower(), raw, offset)))
        elif raw in _OPERATORS:
            append(new(Token, ("OP", raw, raw, offset)))
        elif first.isdecimal() or first == ".":
            append(new(Token, ("NUMBER", _number(raw, offset), raw,
                               offset)))
        elif first == "'" and raw != "'":
            append(new(Token, ("STRING", raw[1:-1].replace("''", "'"),
                               raw, offset)))
        elif first == '"' and raw != '"':
            append(new(Token, ("QIDENT", raw[1:-1].replace('""', '"'),
                               raw, offset)))
        else:  # an unclosed quote or comment, or a stray character
            message, expected = _UNCLOSED.get(
                first, (f"unexpected character {first!r}", None))
            raise SqlSyntaxError(message, offset, expected)
        offset += len(raw)
    append(new(Token, ("EOF", None, "", len(text))))
    return tokens


def _number(raw, offset):
    if not raw.isdecimal():
        value = float(raw)
        if value == _INFINITY:  # past the largest float, as in `1e999`
            raise SqlSyntaxError("numeric literal out of range", offset)
        return value
    try:
        return int(raw)
    except ValueError:  # more digits than Python converts from text
        raise SqlSyntaxError("integer literal too long", offset) from None
