"""Small symbolic expression engine for analytic metric entries.

Supports real literals, coordinate variables x1..xn, the arithmetic
operators + - * / ^ (integer exponents only), unary minus, and the
functions sin, cos, exp, log, sqrt.  Expressions are immutable trees,
closed under exact symbolic differentiation (`derivative`).  A build
that differentiates many expressions sharing subtrees, such as a jet
table or a path's tangents, passes one memo dict to all its `derivative`
calls, so each distinct node is differentiated once per index and the
partials share their subtrees as the expressions do.  The simplifier is
deliberately minimal: constant folding and 0/1 identities only.

Hot paths (metric jets, path segments) evaluate through `compile_exprs`,
which turns a list of expressions into a `Table`: one straight-line Python
function with a temporary per distinct subexpression, and `Table.rows`,
which gives the value of every expression at k points as one (k, m)
array.  How the function's output is laid out is known only here.
`Table.bind` sets the parameters Var(1..k) of a table compiled with
`bound=k`, so one compiled table serves every binding.  The
tree-walking `evaluate` computes the same values node by node and serves
as the independent reference in tests.  Both
raise EvaluationDomainError outside the domain of log, sqrt, division and
negative powers.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import types
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Call",
    "ParseError",
    "EvaluationDomainError",
    "parse_expr",
    "derivative",
    "substitute",
    "evaluate",
    "const",
    "var",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ParseError(ValueError):
    """Syntax or identifier error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationDomainError(ArithmeticError):
    """Evaluation left the domain of an operation (log, sqrt, division)."""


@dataclass(frozen=True)
class Expr:
    """Base class; concrete nodes subclass this."""

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent: int):
        return pow_(self, exponent)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """Coordinate variable; `index` is 0-based, rendered as x{index+1}."""

    index: int

    def __str__(self):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def __str__(self):
        return f"({self.a} + {self.b})"


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def __str__(self):
        return f"({self.a} - {self.b})"


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def __str__(self):
        return f"({self.a} * {self.b})"


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def __str__(self):
        return f"({self.a} / {self.b})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __str__(self):
        return f"({self.base} ^ {self.exponent})"


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def __str__(self):
        return f"(-{self.a})"


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr

    def __str__(self):
        return f"{self.name}({self.arg})"


# -- smart constructors: constant folding and 0/1 identities -----------------


def const(value: float) -> Expr:
    return Const(float(value))


def var(index: int) -> Expr:
    return Var(index)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise TypeError("exponent must be an integer")
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if _is_const(base):
        return Const(base.value**exponent)
    return Pow(base, exponent)


def call(name: str, arg: Expr) -> Expr:
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if _is_const(arg):
        return Const(getattr(math, name)(arg.value))
    return Call(name, arg)


# -- evaluation ---------------------------------------------------------------


def evaluate(e: Expr, x) -> float:
    """Evaluate at point `x` (sequence of coordinates), guarding domains."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index])
    if isinstance(e, Add):
        return evaluate(e.a, x) + evaluate(e.b, x)
    if isinstance(e, Sub):
        return evaluate(e.a, x) - evaluate(e.b, x)
    if isinstance(e, Mul):
        return evaluate(e.a, x) * evaluate(e.b, x)
    if isinstance(e, Div):
        den = evaluate(e.b, x)
        if den == 0.0:
            raise EvaluationDomainError(f"division by zero in {e}")
        return evaluate(e.a, x) / den
    if isinstance(e, Pow):
        base = evaluate(e.base, x)
        if base == 0.0 and e.exponent < 0:
            raise EvaluationDomainError(f"zero raised to negative power in {e}")
        return base**e.exponent
    if isinstance(e, Neg):
        return -evaluate(e.a, x)
    if isinstance(e, Call):
        arg = evaluate(e.arg, x)
        if e.name == "log" and arg <= 0.0:
            raise EvaluationDomainError(f"log of non-positive value in {e}")
        if e.name == "sqrt" and arg < 0.0:
            raise EvaluationDomainError(f"sqrt of negative value in {e}")
        return getattr(math, e.name)(arg)
    raise TypeError(f"not an Expr: {e!r}")


def derivative(e: Expr, index: int, memo: dict | None = None) -> Expr:
    """The exact partial of `e` by x{index+1} (0-based `index`).

    Without `memo` this is plain recursion, which differentiates a subtree
    shared within `e` once per path to it.  A `memo` dict, passed to every
    call of one build, maps (id(node), index) to (node, partial): each
    distinct node is differentiated once per index, and keeping the node
    means its id cannot be reused while the memo lives.  The smart
    constructors see the same operands either way, so the result is the
    same tree, only with its repeated subtrees shared.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if index == e.index else 0.0)
    if memo is not None:
        got = memo.get((id(e), index))
        if got is not None:
            return got[1]
    if isinstance(e, Add):
        out = add(derivative(e.a, index, memo), derivative(e.b, index, memo))
    elif isinstance(e, Sub):
        out = sub(derivative(e.a, index, memo), derivative(e.b, index, memo))
    elif isinstance(e, Mul):
        da, db = derivative(e.a, index, memo), derivative(e.b, index, memo)
        out = add(mul(da, e.b), mul(e.a, db))
    elif isinstance(e, Div):
        da, db = derivative(e.a, index, memo), derivative(e.b, index, memo)
        out = div(sub(mul(da, e.b), mul(e.a, db)), mul(e.b, e.b))
    elif isinstance(e, Pow):
        out = Const(0.0) if e.exponent == 0 else mul(
            mul(Const(float(e.exponent)), pow_(e.base, e.exponent - 1)),
            derivative(e.base, index, memo))
    elif isinstance(e, Neg):
        out = neg(derivative(e.a, index, memo))
    elif isinstance(e, Call):
        inner = derivative(e.arg, index, memo)
        if e.name == "sin":
            outer = Call("cos", e.arg)
        elif e.name == "cos":
            outer = neg(Call("sin", e.arg))
        elif e.name == "exp":
            outer = e
        elif e.name == "log":
            outer = div(Const(1.0), e.arg)
        elif e.name == "sqrt":
            outer = div(Const(0.5), e)
        else:  # pragma: no cover - constructor restricts names
            raise ValueError(f"unknown function {e.name!r}")
        out = mul(outer, inner)
    else:
        raise TypeError(f"not an Expr: {e!r}")
    if memo is not None:
        memo[id(e), index] = (e, out)
    return out


def substitute(e: Expr, index: int, replacement: Expr) -> Expr:
    """Replace every occurrence of Var(index) by `replacement` (0-based)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.index == index else e
    if isinstance(e, Add):
        return add(substitute(e.a, index, replacement), substitute(e.b, index, replacement))
    if isinstance(e, Sub):
        return sub(substitute(e.a, index, replacement), substitute(e.b, index, replacement))
    if isinstance(e, Mul):
        return mul(substitute(e.a, index, replacement), substitute(e.b, index, replacement))
    if isinstance(e, Div):
        return div(substitute(e.a, index, replacement), substitute(e.b, index, replacement))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, index, replacement), e.exponent)
    if isinstance(e, Neg):
        return neg(substitute(e.a, index, replacement))
    if isinstance(e, Call):
        return call(e.name, substitute(e.arg, index, replacement))
    raise TypeError(f"not an Expr: {e!r}")


# -- parser -------------------------------------------------------------------

_TOKEN_OPS = "+-*/^()"


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            seen_exp = False
            while j < len(text):
                cj = text[j]
                if cj.isdigit():
                    j += 1
                elif cj == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif cj in "eE" and not seen_exp and j > i:
                    # exponent part must be followed by digits or sign
                    if j + 1 < len(text) and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                        seen_exp = True
                        j += 2 if text[j + 1] in "+-" else 1
                    else:
                        break
                else:
                    break
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad numeric literal {lit!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over: ^  >  unary -  >  * /  >  + -, left-assoc."""

    def __init__(self, tokens, n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", position)
        return self.advance()

    def parse(self) -> Expr:
        e = self.sum_expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", position)
        return e

    def sum_expr(self) -> Expr:
        e = self.product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.product()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def product(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                e = pow_(e, self.int_exponent())
            else:
                return e

    def int_exponent(self) -> int:
        sign = 1
        kind, value, position = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, position = self.peek()
        if kind != "num" or value != int(value):
            raise ParseError("exponent must be an integer literal", position)
        self.advance()
        return sign * int(value)

    def atom(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "num":
            return Const(value)
        if kind == "op" and value == "(":
            e = self.sum_expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum_expr()
                self.expect_op(")")
                return Call(value, arg)
            if value[0] == "x" and value[1:].isdigit():
                index = int(value[1:])
                if not 1 <= index <= self.n:
                    raise ParseError(f"unknown identifier {value}", position)
                return Var(index - 1)
            raise ParseError(f"unknown identifier {value}", position)
        raise ParseError("expected a value", position)


def parse_expr(text: str, n: int) -> Expr:
    """Parse `text` over variables x1..xn into an expression tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(text), n).parse()


_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_TABLE_GLOBALS = {fn: getattr(math, fn) for fn in _FUNCTIONS}
_TABLE_GLOBALS.update(_DOMAIN_ERRORS=(ValueError, ZeroDivisionError, OverflowError),
                      EvaluationDomainError=EvaluationDomainError)


@functools.lru_cache(maxsize=256)
def _table_code(src: str) -> types.CodeType:
    namespace = {}
    exec(compile(src, "<expr-table>", "exec"), namespace)
    return namespace["_table"].__code__


class Table:
    """A list of expressions compiled by `compile_exprs`.

    `function(x)` returns, at one point x, each distinct non-constant value
    among the expressions once, in order of first appearance; `source` is
    its generated text.  `constants` holds the distinct constant values
    (told apart by `repr`, so -0.0 and 0.0 stay apart), and `columns` the
    index of each expression's value in `function(x) + constants`.  `rows`
    reads that layout; callers need nothing else.  A table with `bound`
    parameters evaluates only once `bind` has set them.
    """

    def __init__(self, function, source: str, constants: tuple, columns: tuple, bound: int):
        self.function = function
        self.source = source
        self.constants = constants
        self.columns = columns
        self.bound = bound
        self._fixed = function.__defaults__ or ()  # the constants
        self._width = len(set(columns))  # every value and constant is some column
        self._take = np.array(columns, dtype=np.intp)

    def bind(self, values) -> "Table":
        """This table, sharing its code object, with Var(1..bound) set to
        `values` as Python floats (numpy scalars slow every operation)."""
        values = tuple(map(float, values))
        if len(values) != self.bound:
            raise ValueError(f"table binds {self.bound} values, not {len(values)}")
        table = copy.copy(self)
        table.function = types.FunctionType(self.function.__code__, _TABLE_GLOBALS, "_table",
                                            values + self._fixed)
        return table

    def rows(self, xs) -> np.ndarray:
        """The (k, m) array of the m expressions' values at the k points xs,
        in the order the expressions were given.

        One `np.fromiter` fills a (k, width) buffer with the per-point rows
        `function(x) + constants`, and one `take` of `columns` places every
        expression's value.
        """
        function, constants, k = self.function, self.constants, len(xs)
        flat = np.fromiter(itertools.chain.from_iterable([function(x) + constants for x in xs]),
                           float, count=k * self._width)
        return flat.reshape(k, self._width).take(self._take, axis=1)


def compile_exprs(exprs, bound: int = 0) -> Table:
    """Compile a list of expressions into one `Table`.

    The table's function is straight-line code: each variable used is
    read once as a float, and each distinct subexpression becomes one
    temporary `tK = a op b`, keyed by its operator and operand names, so a
    subtree shared between entries (as the partial derivatives of one
    metric entry share most of theirs) is computed once, and an expression
    listed more than once is computed once.  The arithmetic is the scalar
    float and `math` arithmetic `evaluate` does, in the same order, so
    `rows` equals `evaluate` exactly, signs of zeros included.  ValueError,
    ZeroDivisionError and OverflowError (log or sqrt of a negative,
    division by zero, 0^-k, overflow) are raised as EvaluationDomainError.

    Constants are parameters `cK` with the values as defaults, so tables
    that differ only in their constants share one code object, and
    Python's compiler runs once for them.  Var(1..bound) are parameters
    too, ahead of the constants, set by `Table.bind`: a table bound to
    `values` equals `evaluate` at `(t, *values)`.
    """
    loads: set[int] = set()
    lines: list[str] = []
    consts: dict[str, str] = {}  # repr of a constant -> parameter
    temps: dict[str, str] = {}   # right-hand side -> temporary
    named: dict[int, str] = {}   # id(node) -> operand; the nodes outlive the call

    def name(e: Expr) -> str:
        got = named.get(id(e))
        if got is not None:
            return got
        if isinstance(e, Const):
            got = consts.setdefault(repr(e.value), f"c{len(consts)}")
        elif isinstance(e, Var):
            if not 1 <= e.index <= bound:
                loads.add(e.index)
            got = f"x{e.index}"
        else:
            if type(e) in _BINARY:
                rhs = f"{name(e.a)} {_BINARY[type(e)]} {name(e.b)}"
            elif isinstance(e, Pow):
                rhs = f"{name(e.base)} ** {e.exponent}"
            elif isinstance(e, Neg):
                rhs = f"-{name(e.a)}"
            elif isinstance(e, Call):
                rhs = f"{e.name}({name(e.arg)})"
            else:
                raise TypeError(f"not an Expr: {e!r}")
            got = temps.get(rhs)
            if got is None:
                got = temps[rhs] = f"t{len(temps)}"
                lines.append(f"        {got} = {rhs}\n")
        named[id(e)] = got
        return got

    outputs = [name(e) for e in exprs]
    values = dict.fromkeys(o for e, o in zip(exprs, outputs) if not isinstance(e, Const))
    constants = dict.fromkeys(o for e, o in zip(exprs, outputs) if isinstance(e, Const))
    column = {o: k for k, o in enumerate([*values, *constants])}
    params = [f"x{i}" for i in range(1, bound + 1)] + list(consts.values())
    src = "".join([
        f"def _table(x, {''.join(p + ', ' for p in params)}):\n",
        *(f"    x{i} = float(x[{i}])\n" for i in sorted(loads)),
        "    try:\n",
        *lines,
        f"        return ({''.join(o + ', ' for o in values)})\n",
        "    except _DOMAIN_ERRORS as exc:\n",
        "        raise EvaluationDomainError(str(exc)) from exc\n",
    ])
    defaults = {param: float(text) for text, param in consts.items()}
    function = types.FunctionType(_table_code(src), _TABLE_GLOBALS, "_table",
                                  tuple(defaults.values()))
    return Table(function, src, tuple(defaults[c] for c in constants),
                 tuple(column[o] for o in outputs), bound)
