"""Tokenizer for the SELECT-only SQL dialect.

Unquoted identifiers and keywords are case-folded (keywords upper,
identifiers lower); quoted identifiers and string literals keep their
exact contents. Comments (`--` and `/* */`) are skipped.
"""

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


class Token(Frozen):
    def __init__(self, kind, value, raw, offset):
        # kind: KW, IDENT, QIDENT, STRING, NUMBER, OP, EOF; value: the
        # normalized text (keywords upper, identifiers lower); raw: the
        # exact source slice; offset: byte offset of the first character
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "offset", offset)


def tokenize(text):
    """Return the token list for `text`, ending with an EOF token."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                raise SqlSyntaxError("unterminated block comment", i, "*/")
            i = j + 2
            continue
        if ch == "'":
            value, end = _scan_quoted(text, i, "'")
            tokens.append(Token("STRING", value, text[i:end], i))
            i = end
            continue
        if ch == '"':
            value, end = _scan_quoted(text, i, '"')
            tokens.append(Token("QIDENT", value, text[i:end], i))
            i = end
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            value, end = _scan_number(text, i)
            tokens.append(Token("NUMBER", value, text[i:end], i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KW", upper, word, i))
            else:
                tokens.append(Token("IDENT", word.lower(), word, i))
            i = j
            continue
        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("OP", op, op, i))
                i += len(op)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", None, "", n))
    return tokens


def _scan_quoted(text, start, quote):
    """Scan a quoted region starting at `start`; doubling escapes the quote."""
    i = start + 1
    parts = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == quote:
            if i + 1 < n and text[i + 1] == quote:
                parts.append(quote)
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    kind = "string literal" if quote == "'" else "quoted identifier"
    raise SqlSyntaxError(f"unterminated {kind}", start, quote)


def _scan_number(text, start):
    i = start
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # a trailing '.' followed by a non-digit belongs to the next token
            if i + 1 < n and text[i + 1].isdigit():
                seen_dot = True
                i += 1
            else:
                break
        elif ch in "eE" and not seen_exp and i + 1 < n and (
            text[i + 1].isdigit() or text[i + 1] in "+-"
        ):
            seen_exp = True
            i += 2 if text[i + 1] in "+-" else 1
        else:
            break
    raw = text[start:i]
    value = float(raw) if (seen_dot or seen_exp) else int(raw)
    return value, i
