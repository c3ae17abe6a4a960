"""The earlier `normalize.normalize_query`, kept as the reference the
current one is checked against: a Python loop over every piece of the
text, each whitespace run and comment one `gap` match and each word run
lowered on its own."""

import re

from sqleq.lexer import GAP, QUOTED_IDENT, STRING

# A run stops where a gap or a quote may start, and lowers as a whole:
# str.lower picks the final sigma from the letters around it.
_PIECE = re.compile(
    rf"(?P<gap>{GAP}|/\*(?s:.*))"
    rf"|(?P<quoted>{STRING}|{QUOTED_IDENT}|['\"](?s:.*))"
    r"|(?P<run>(?:[^\s'\"/-]|/(?!\*)|-(?!-))+)")


def normalize_query(text):
    out = []
    pending_space = False
    for m in _PIECE.finditer(text):
        kind = m.lastgroup
        if kind == "gap":
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(m.group() if kind == "quoted" else m.group().lower())
    result = "".join(out)
    while result.endswith(";"):
        result = result[:-1].rstrip()
    return result
