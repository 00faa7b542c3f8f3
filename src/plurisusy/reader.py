"""The package's one expression reader, built on `ast` and exact arithmetic.

evaluate(text, names, ring) reads text in this grammar: integer and
decimal literals (a decimal is the exact rational of its digits, 0.1 is
1/10), the keys of names, unary + and -, binary + - * /, parentheses, and
** or ^ raised to an integer literal.  It evaluates the tree bottom-up in
ring, an object with the methods

    const(c)               the element of the Fraction c
    neg(a), add(a, b), mul(a, b)
    div(a, b), pow(a, n)   b nonzero, n an int; each raises ValueError
                           where the ring cannot divide

while a name evaluates to its value in names.  Anything else, a syntax
error, and nesting too deep for the parser raise ValueError.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import Mapping


def _exponent(node: ast.expr) -> int:
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        sign = -1 if isinstance(node.op, ast.USub) else 1
        node = node.operand
    if not (isinstance(node, ast.Constant) and type(node.value) is int):
        raise ValueError("exponents must be integer literals")
    return sign * node.value


def _eval(names: Mapping, ring, src: str, node: ast.expr):
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # a decimal is read exactly from its digits: 0.1 is 1/10
        return ring.const(Fraction(node.value if type(node.value) is int
                                   else ast.get_source_segment(src, node)))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        a = _eval(names, ring, src, node.operand)
        return a if isinstance(node.op, ast.UAdd) else ring.neg(a)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        a = _eval(names, ring, src, node.left)
        return ring.pow(a, _exponent(node.right))
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        a = _eval(names, ring, src, node.left)
        b = _eval(names, ring, src, node.right)
        if isinstance(node.op, ast.Mult):
            return ring.mul(a, b)
        if isinstance(node.op, ast.Div):
            return ring.div(a, b)
        return ring.add(a, b if isinstance(node.op, ast.Add)
                        else ring.neg(b))
    raise ValueError(
        f"unsupported expression {ast.get_source_segment(src, node)!r}")


def evaluate(text: str, names: Mapping, ring):
    """The value of text in ring, in the grammar of the module docstring."""
    src = text.replace("^", "**")
    try:
        return _eval(names, ring, src, ast.parse(src, mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(exc.msg) from exc
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc
