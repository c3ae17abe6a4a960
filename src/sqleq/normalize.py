"""Text-level query canonicalization for exact-match detection.

Works on raw text (no parse, so even malformed queries normalize) and
splits it by the lexer's rules (`lexer.GAP`, `lexer.STRING`,
`lexer.QUOTED_IDENT`): each run of whitespace and comments becomes one
space, string literals and quoted identifiers stay verbatim, everything
else (numbers and operators included) is lower-cased, and trailing
semicolons strip. An unterminated comment drops the rest of the text;
an unterminated quote keeps it verbatim.
"""

import re

from .lexer import GAP, QUOTED_IDENT, STRING

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


def exact_match(q1, q2):
    """True iff the two query texts canonicalize to the same string."""
    return normalize_query(q1) == normalize_query(q2)
