"""Text-level query canonicalization for exact-match detection.

Works on raw text (no parse, so even malformed queries normalize) and
splits it by the lexer's rules (`lexer.COMMENT`, `lexer.STRING`,
`lexer.QUOTED_IDENT`): each run of whitespace and comments becomes one
space, string literals and quoted identifiers stay verbatim, everything
else (numbers and operators included) is lower-cased, and trailing
semicolons strip. An unterminated comment drops the rest of the text;
an unterminated quote keeps it verbatim.

Only comments and quotes are regex matches. The text between them is
split, joined and lower-cased with `str` methods, one call each per
stretch, so the work per query runs in C.
"""

import re

from .lexer import COMMENT, QUOTED_IDENT, STRING

_COMMENT_OR_QUOTED = re.compile(
    rf"(?P<comment>{COMMENT}|/\*(?s:.*))"
    rf"|{STRING}|{QUOTED_IDENT}|['\"](?s:.*)")


def normalize_query(text):
    out = []
    gap = False  # whitespace or a comment since the last piece in `out`
    pos = 0
    for m in _COMMENT_OR_QUOTED.finditer(text):
        gap = _add_plain(out, text[pos:m.start()], gap)
        pos = m.end()
        if m.lastgroup == "comment":
            gap = True
            continue
        if gap and out:
            out.append(" ")
        gap = False
        out.append(m.group())
    _add_plain(out, text[pos:], gap)
    result = "".join(out)
    while result.endswith(";"):
        result = result[:-1].rstrip()
    return result


def _add_plain(out, stretch, gap):
    """Append the words of `stretch`, text outside comments and quotes, to
    `out` as one lower-cased piece; return whether a gap follows them.

    The stretch lowers as a whole: str.lower picks the final sigma from
    the letters around it, and a space between words ends a word just as
    a piece boundary does."""
    words = stretch.split()
    if not words:
        return gap or bool(stretch)
    if (gap or stretch[0].isspace()) and out:
        out.append(" ")
    out.append(" ".join(words).lower())
    return stretch[-1].isspace()


def exact_match(q1, q2):
    """True iff the two query texts canonicalize to the same string."""
    return normalize_query(q1) == normalize_query(q2)
