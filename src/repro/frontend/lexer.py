"""MiniJ lexer: one regular expression scans the source."""

from __future__ import annotations

import re

from repro.errors import MiniJSyntaxError

KEYWORDS = {
    "class", "extends", "def", "var", "val", "if", "else", "while", "for",
    "in", "return", "throw", "new", "fun", "this", "true", "false", "null",
    "is",
}

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}

#: One token after optional blanks; alternatives in priority order.
#: ``bad`` matches any character no other alternative does (an
#: unterminated comment or string among them), so no input is skipped.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<end> \Z )
  | (?P<nl> \n )
  | (?P<op> ==|!=|<=|>=|&&|\|\||=> | /(?![/*]) | [-+*%<>=!(){}\[\],.;:] )
  | (?P<name> [^\W\d][\w$]* )
  | (?P<float> [0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+) )
  | (?P<int> [0-9]+ )
  | (?P<comment> //[^\n]* | /\*.*?\*/ )
  | (?P<str> "(?:[^"\\\n]|\\.)*" )
  | (?P<bad> . )
)""", re.VERBOSE | re.DOTALL)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind    # 'int','float','str','name','kw','op','eof'
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


def tokenize(source):
    """Tokenize MiniJ source; returns a list ending with an EOF token.
    Lines and columns count from 1; a column counts characters."""
    tokens = []
    line = 1
    line_start = 0          # source index where the current line starts
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "end":
            break
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        text = m.group(kind)
        start = m.start(kind)
        col = start - line_start + 1
        value = text
        if kind == "name":
            if not (text[0].isalpha() or text[0] == "_"):
                _fail(source, start, line, col)
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "int":
            value = int(text)
        elif kind == "float":
            value = float(text)
        elif kind == "str":
            value = _unescape(text, line, col)
        elif kind == "comment":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            continue
        elif kind == "bad":
            _fail(source, start, line, col)
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("eof", None, line, len(source) - line_start + 1))
    return tokens


def _unescape(text, line, col):
    """The value of string literal ``text`` (quotes included), which
    starts at ``line``:``col``."""
    def escape(m):
        value = _ESCAPES.get(m.group(1))
        if value is None:
            raise MiniJSyntaxError("unknown escape \\%s" % m.group(1), line,
                                   col + 1 + m.start())
        return value

    return re.sub(r"\\(.)", escape, text[1:-1], flags=re.DOTALL)


def _fail(source, start, line, col):
    """Raise the syntax error for a character at ``start`` that starts
    no token."""
    if source.startswith("/*", start):
        raise MiniJSyntaxError("unterminated block comment", line, col)
    if source[start] != '"':
        raise MiniJSyntaxError("unexpected character %r" % source[start],
                               line, col)
    # The longest string prefix ends at a newline, a trailing backslash
    # or the end of the input; an unknown escape before it comes first.
    end = re.compile(r'"(?:[^"\\\n]|\\.)*', re.DOTALL).match(
        source, start).end()
    _unescape(source[start:end] + '"', line, col)
    col += end - start
    if end == len(source):
        raise MiniJSyntaxError("unterminated string", line, col)
    if source[end] == "\n":
        raise MiniJSyntaxError("newline in string literal", line, col)
    raise MiniJSyntaxError("bad escape at end of input", line, col)
