"""Tokenizer for the SQL subset supported by the frontend."""

from __future__ import annotations

import re
from typing import Any, List, NamedTuple, Optional, Tuple

__all__ = ["Token", "tokenize", "normalize", "number_value", "SqlSyntaxError"]

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "LIMIT", "AS", "AND", "OR", "NOT", "JOIN", "ON", "INNER",
    "CROSS", "UNION", "EXCEPT", "ALL", "ASC", "DESC", "TRUE", "FALSE",
    "NULL", "IS", "IN", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END",
}

SYMBOLS = ["<>", "<=", ">=", "!=", "=", "<", ">", "(", ")", ",", "+", "-", "*", "/", "."]
_TWO_CHAR = frozenset(s for s in SYMBOLS if len(s) == 2)
_ONE_CHAR = frozenset(s for s in SYMBOLS if len(s) == 1)

#: the rest of a name: ``re``'s ``\w`` is exactly ``str.isalnum()`` or "_"
_NAME_TAIL = re.compile(r"\w*")


class SqlSyntaxError(ValueError):
    """Raised on malformed SQL input."""


class Token(NamedTuple):
    # 'keyword' | 'ident' | 'number' | 'string' | 'symbol' | 'param' | 'eof'
    kind: str
    value: str
    position: int
    #: offset just past the token's text
    end: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value}"


def tokenize(sql: str) -> List[Token]:
    """Split SQL text into tokens; keywords are case-insensitive."""
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            j = sql.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if ch == "'":
            j = i + 1
            while True:
                j = sql.find("'", j)
                if j < 0:
                    raise SqlSyntaxError(f"unterminated string at {i}")
                if not sql.startswith("''", j):
                    break
                j += 2
            tokens.append(Token("string", sql[i + 1 : j].replace("''", "'"), i, j + 1))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(Token("number", sql[i:j], i, j))
            i = j
            continue
        if ch == "?":
            # positional parameter placeholder; the parser numbers them
            tokens.append(Token("param", "?", i, i + 1))
            i += 1
            continue
        if ch == ":" and i + 1 < n and (sql[i + 1].isalpha() or sql[i + 1] == "_"):
            j = _NAME_TAIL.match(sql, i + 1).end()
            tokens.append(Token("param", sql[i + 1 : j], i, j))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = _NAME_TAIL.match(sql, i).end()
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, i, j))
            else:
                tokens.append(Token("ident", word, i, j))
            i = j
            continue
        sym = sql[i : i + 2]
        if sym not in _TWO_CHAR:
            sym = ch
            if sym not in _ONE_CHAR:
                raise SqlSyntaxError(f"unexpected character {ch!r} at {i}")
        j = i + len(sym)
        tokens.append(Token("symbol", sym, i, j))
        i = j
    tokens.append(Token("eof", "", n, n))
    return tokens


def number_value(text: str) -> Any:
    """The value of a number token: a float if it has a dot, else an int."""
    return float(text) if "." in text else int(text)


#: a lifted literal is one whole operand of one of these comparisons
_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
#: tokens that may follow a lifted right operand ("" is eof; WHERE and
#: the join keywords end an ON condition)
_ENDS = frozenset(
    {"AND", "OR", ")", "GROUP", "ORDER", "HAVING", "LIMIT", "UNION", "EXCEPT",
     "WHERE", "JOIN", "INNER", "CROSS", ""}
)
#: tokens that may precede a lifted left operand
_STARTS = frozenset({"WHERE", "ON", "AND", "OR", "NOT", "("})


def _is(tok: Token, values: frozenset) -> bool:
    return tok.kind in ("keyword", "symbol", "eof") and tok.value in values


def normalize(sql: str) -> Optional[Tuple[str, List[Any]]]:
    """Lift the comparison literals of ``sql`` into ``?`` placeholders.

    Returns ``(template, values)``: ``template`` is ``sql`` with every
    lifted literal replaced by ``?`` and ``values`` are the literals,
    typed as the parser types them (:func:`number_value`), in
    placeholder order — so ``parse_sql(template)`` bound to ``values``
    is ``parse_sql(sql)``.
    Returns ``None`` when ``sql`` has placeholders of its own or no
    literal to lift.

    A number or string is lifted only when it is one whole operand of a
    comparison: a comparison symbol before it and a clause or
    conjunction boundary after it, or the mirror image.  Every other
    literal — select-list and ``CASE`` constants, ``LIMIT n``, ``IN``
    lists, ``BETWEEN`` bounds, a negated number — stays in the text, so
    a template never changes a query's output schema.
    """
    tokens = tokenize(sql)
    pieces: List[str] = []
    values: List[Any] = []
    done = 0
    for i, tok in enumerate(tokens):
        if tok.kind == "param":
            return None
        if tok.kind not in ("number", "string") or i == 0:
            continue
        before, after = tokens[i - 1], tokens[i + 1]
        if not (
            (_is(before, _COMPARISONS) and _is(after, _ENDS))
            or (_is(before, _STARTS) and _is(after, _COMPARISONS))
        ):
            continue
        values.append(
            tok.value if tok.kind == "string" else number_value(tok.value)
        )
        pieces += (sql[done : tok.position], "?")
        done = tok.end
    if not values:
        return None
    pieces.append(sql[done:])
    return "".join(pieces), values
