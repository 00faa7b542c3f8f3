"""The package's one expression reader, built on `ast` and exact
arithmetic, and its one JSON writer, `dumps`, with `dump_list` to write
the same text of a long list as it is made.

evaluate(text, names, ring) reads text in this grammar: integer and
decimal literals (a decimal is the exact rational of its digits, 0.1 is
1/10), the keys of names, unary + and -, binary + - * /, parentheses, and
** or ^ raised to an integer literal.  A name evaluates to its value in
names, the rest bottom-up in ring, an object with unchecked arithmetic

    const(c)               the element of the Fraction c
    neg(a), add(a, b), mul(a, b), pow(a, n) for an int n >= 0
    inverse(a)             1/a, for an a of grade 0

and a description of its elements

    pairs(a)               the (num, den) of a's coefficients in Q(var)
    grade(a)               a's degree in gens, -1 at 0
    var, gens, max_grade   names for messages; the largest grade, or None

A divisor, and the base of a negative power, must have grade 0: be a
nonzero coefficient.  Anything else, a syntax error, and nesting too deep
for the parser raise ValueError.

An exponent, times every exponent its base is raised to, stops at
MAX_EXPONENT, and so does the exponent of a decimal, times the same; a
larger one raises ValueError.  The cost of a power grows with its
exponent, faster than linearly, and `(z**300)**300` is z**90000.  The
package writes no exponent above 80 (`x^80` in an `embed` model at the
largest degree the CLI allows) and no decimal exponent.

A bounded power still leaves a sum or product of them unbounded:
(1+z)**100/(2+z)**100 + (3+z)**100/(5+z)**100 has degree 200 over its
common denominator, and the arithmetic behind it grows faster than its
degree.  So before each sum, product, quotient and power the reader
checks the grade its result can reach against max_grade, then its degree
in var, read from the operands' pairs by `degrees`, against MAX_DEGREE,
as large as MAX_EXPONENT so that x**100 and 1/z**100 still read.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Tuple

MAX_EXPONENT = 100
MAX_DEGREE = 100


def degrees(pairs: Iterable[Tuple[tuple, tuple]]) -> Tuple[int, int]:
    """(n, d) for an element whose coefficients are the fractions
    num/den in pairs, polynomials as ascending coefficient tuples: over
    the product of the distinct denominators, of degree d, no numerator
    has degree above n.  A product of two elements is then within
    (n1 + n2, d1 + d2), a sum within the degrees of all their pairs
    together, a quotient by p/q within (n + deg q, d + deg p) and a k-th
    power within (k n, k d)."""
    pairs = [(num, den) for num, den in pairs if num]
    d = sum(len(den) - 1 for den in {den for _, den in pairs})
    return max((len(num) - len(den) + d for num, den in pairs),
               default=0), d


def _check_exponent(n: int, what: str) -> None:
    if abs(n) > MAX_EXPONENT:
        raise ValueError(f"{what} stop at {MAX_EXPONENT}; got {n}")


def decimal(text: str, scale: int = 1) -> Fraction:
    """The exact rational of text, as `Fraction` reads it, once the
    exponent of a decimal, times scale, is checked against MAX_EXPONENT."""
    _, e, exp = text.strip().lower().rpartition("e")
    digits = exp.lstrip("+-").replace("_", "").lstrip("0") or "0"
    if e and digits.isdecimal():
        if len(digits) > 20:  # over the bound, and int() of it may be slow
            raise ValueError(f"decimal exponents stop at {MAX_EXPONENT}; "
                             f"got one of {len(digits)} digits")
        sign = -1 if exp.startswith("-") else 1
        _check_exponent(sign * int(digits) * scale, "decimal exponents")
    return Fraction(text)


def _exponent(node: ast.expr) -> int:
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        sign = -1 if isinstance(node.op, ast.USub) else 1
        node = node.operand
    if not (isinstance(node, ast.Constant) and type(node.value) is int):
        raise ValueError("exponents must be integer literals")
    return sign * node.value


def _check(ring, grade: int, n: int, d: int) -> None:
    """ValueError if a result of grade and degrees (n, d) may pass a bound."""
    if ring.max_grade is not None and grade > ring.max_grade:
        raise ValueError(f"{ring.gens}-degrees stop at {ring.max_grade}; "
                         f"got {grade}")
    if max(n, d) > MAX_DEGREE:
        raise ValueError(f"degrees in {ring.var} stop at {MAX_DEGREE}; "
                         f"got {max(n, d)}")


def _inverse(ring, a, what: str):
    """1/a for an a of grade 0, else ValueError naming what needed it."""
    grade = ring.grade(a)
    if grade:
        raise ValueError("division by zero" if grade < 0 else
                         f"{what} an expression in {ring.gens}")
    return ring.inverse(a)


def _mul(ring, a, b):
    (na, da), (nb, db) = degrees(ring.pairs(a)), degrees(ring.pairs(b))
    _check(ring, ring.grade(a) + ring.grade(b), na + nb, da + db)
    return ring.mul(a, b)


def _eval(names: Mapping, ring, src: str, node: ast.expr, scale: int):
    """The value of node, which is raised to the power scale in all."""
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return ring.const(Fraction(node.value))
    if isinstance(node, ast.Constant) and type(node.value) is float:
        # a decimal is read exactly from its digits: 0.1 is 1/10
        return ring.const(decimal(ast.get_source_segment(src, node), scale))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        a = _eval(names, ring, src, node.operand, scale)
        return a if isinstance(node.op, ast.UAdd) else ring.neg(a)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        n = _exponent(node.right)
        _check_exponent(n * scale, "exponents (nested ones multiplied)")
        a = _eval(names, ring, src, node.left, max(abs(n), 1) * scale)
        if n < 0:
            a, n = _inverse(ring, a, "negative power of"), -n
        na, da = degrees(ring.pairs(a))
        _check(ring, n * ring.grade(a), n * na, n * da)
        return ring.pow(a, n)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        a = _eval(names, ring, src, node.left, scale)
        b = _eval(names, ring, src, node.right, scale)
        if isinstance(node.op, ast.Mult):
            return _mul(ring, a, b)
        if isinstance(node.op, ast.Div):
            return _mul(ring, a, _inverse(ring, b, "division by"))
        if isinstance(node.op, ast.Sub):
            b = ring.neg(b)
        _check(ring, max(ring.grade(a), ring.grade(b)),
               *degrees([*ring.pairs(a), *ring.pairs(b)]))
        return ring.add(a, b)
    raise ValueError(
        f"unsupported expression {ast.get_source_segment(src, node)!r}")


def evaluate(text: str, names: Mapping, ring):
    """The value of text in ring, in the grammar of the module docstring."""
    src = text.replace("^", "**")
    try:
        return _eval(names, ring, src, ast.parse(src, mode="eval").body, 1)
    except SyntaxError as exc:
        raise ValueError(exc.msg) from exc
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc


def dumps(obj) -> str:
    """The JSON text of obj as the package writes it: keys sorted, an
    indent of 2 and a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# Items per write of dump_list: one json.dumps call per item took about
# 1.5 times as long on the 300 000-cell thresholds grid as one call for
# the whole list.
DUMP_CHUNK = 1024


def dump_list(items: Iterable, fh) -> None:
    """Write to fh the text dumps(list(items)), DUMP_CHUNK items at a time
    as items yields them, without holding the list or its text.  Each
    chunk is dumped as a list, "[\n" + its items + "\n]\n", of which the
    items are written."""
    items, sep = iter(items), "[\n"
    while batch := list(islice(items, DUMP_CHUNK)):
        fh.write(sep + dumps(batch)[2:-3])
        sep = ",\n"
    fh.write("[]\n" if sep == "[\n" else "\n]\n")
