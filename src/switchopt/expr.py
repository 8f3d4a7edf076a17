"""Scalar expressions of a vector variable: parsing, evaluation, exact gradients.

Expressions are parsed once into an immutable AST and evaluated as parsed,
so repeated evaluation at the same point is bit-for-bit reproducible.
Gradients are computed by forward-mode dual arithmetic: every node
propagates a value together with one tangent per coordinate, seeded with the
canonical basis.  This is exact differentiation, not finite differencing.

The lowering writes no code for arithmetic whose result it knows (sparse
forward mode).  A tangent that is zero by construction (a constant's, a
variable's off its own coordinate, that of ``x^0``) is carried as the
symbol ``ZERO``, and every operation that builds code follows one table::

    ZERO * u,  u * ZERO,  ZERO / u       ->  ZERO
    ZERO + u,  u + ZERO,  u - ZERO       ->  u
    ZERO - u,  -ZERO                     ->  -u,  ZERO
    literal (+ - *) literal,  -literal   ->  the literal of the result
    (1.0) * u,  u * (1.0)                ->  u

The last two rows are IEEE-exact, so every value, domain test and
DomainError message is the one the plain pass gives; no rule depends on
libm or on a value being finite (``x ** 1.0`` and ``x * 0.0`` on a value
are computed).  The ZERO rows change a partial in two edge classes only:
a partial that is zero by construction is ``+0.0``, and a zero partial has
the sign of its own arithmetic (the skipped ``u + 0.0`` turned ``-0.0``
into ``+0.0``); and a partial that was ``nan`` only because an infinite or
``nan`` factor met a structural zero is the exact partial (the gradient of
``exp(x1) - x2`` at ``x1 = 1000`` is ``(inf, -1.0)``, not ``(inf, nan)``).
Where code needs a float, ``ZERO`` is written ``0.0``.

The package has one evaluator.  Each node lowers its forward pass into
generated straight-line Python (``_emit`` into an ``Emitter``: forward mode by
source transformation).  ``Expr.value`` and ``Expr.value_and_grad`` run a
function compiled from that lowering once per expression, on first use;
``problem.emit_kernel`` fuses the same lowerings of a whole problem into the
integrator's drift, on floats and on numpy columns, and ``Problem.cost`` the
costs' value passes into the total cost.  ``Emitter.compile`` compiles each source once per process (a
bounded cache; a one-shot command gains nothing).  The reference tree walk
that the tests hold this against lives in ``tests/oracles.py``.

Grammar (infix, whitespace insensitive)::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  ('-' | '+') unary | power
    power  :=  atom ['^' signed-number]
    atom   :=  number | 'x'<k> | 'exp' '(' expr ')' | 'ln' '(' expr ')'
             | '(' expr ')'

Variables are written ``x1 .. xn`` (1-based in the source text, index ``k-1``
internally).  Numeric literals must be finite.  Exponents must be numeric
literals, which keeps powers totally differentiable and avoids complex-valued
branches.  A power whose value or derivative overflows raises DomainError
(Python's float ``**`` raises where ``*`` and ``/`` give ``inf``); ``exp``
overflows to ``inf``.
"""

from __future__ import annotations

import math
import operator
import re
import textwrap
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "VariableRangeError",
    "DomainError",
    "MAX_DEPTH",
    "parse",
]


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableRangeError(ExprError):
    """Variable index outside the declared dimension."""


class DomainError(ExprError):
    """Evaluation left the mathematical domain (ln of nonpositive value,
    division by zero, fractional power of a negative base, a power that
    overflows)."""


# ---------------------------------------------------------------------------
# Codes and the rule table
# ---------------------------------------------------------------------------

def _lit(v):
    """Python source of a float literal; ``inf`` and ``nan`` are names bound
    in the namespace of the compiled code."""
    return f"({float(v)!r})"


def _literal(code):
    """The float that a literal's code (``_lit``'s) stands for, else None."""
    if code[:1] == "(" and code[-1:] == ")":
        try:
            return float(code[1:-1])
        except ValueError:
            pass
    return None


class _Zero(str):
    """The type of ``ZERO``: code that reads ``0.0``, told apart by identity."""

    __slots__ = ()


# A tangent that is zero by construction, and the literal 1.0.  Each rule
# below writes the code of one operation by the module docstring's table.
# Its operands are names, literals or ZERO, with three exceptions: a left
# operand may be a product (code that ``_mul``, ``_div`` or ``_neg``
# returns), the left operand of ``_add`` and ``_sub`` a sum, and their right
# operand a product.  ``Emitter.local`` names a result that is none of the
# first three kinds.
ZERO, ONE = _Zero("0.0"), _lit(1.0)


def _fold(a, b, sep, op):
    """``a <sep> b``, or on two literals the literal of ``op(a, b)``: at
    generation, float arithmetic gives the bits the compiled code would."""
    x, y = _literal(a), _literal(b)
    return f"{a}{sep}{b}" if x is None or y is None else _lit(op(x, y))


def _add(a, b):
    return b if a is ZERO else a if b is ZERO else _fold(a, b, " + ", operator.add)


def _sub(a, b):
    if b is ZERO:
        return a
    return _neg(b) if a is ZERO else _fold(a, b, " - ", operator.sub)


def _mul(a, b):
    if a is ZERO or b is ZERO:
        return ZERO
    return b if a == ONE else a if b == ONE else _fold(a, b, " * ", operator.mul)


def _neg(a):
    if a is ZERO:
        return ZERO
    x = _literal(a)
    if x is not None:
        return _lit(-x)
    return f"-{a}" if a.isidentifier() else f"-({a})"


def _div(a, b):
    """``a / b``, not folded: the table folds ``+ - *`` alone."""
    if a is ZERO:
        return ZERO
    return f"{a} / {b}" if _atom(a) else f"({a}) / {b}"


def _atom(code):
    """Whether ``code`` is a name, a literal or ZERO."""
    return code is ZERO or code.isidentifier() or _literal(code) is not None


# ---------------------------------------------------------------------------
# AST nodes.  ``_emit(em, xs, grad)`` writes the node's forward pass as
# straight-line Python statements into an Emitter, with the variables bound
# to the local names ``xs``, and returns the code of its value and of its
# tangents, one per coordinate (local names, literals or ZERO).  Without ``grad``
# the tangents are absent, an empty tuple: only the value is computed and no
# derivative is checked.  An operator node runs its operands' passes first,
# left to right, then its own rule, ``_apply``, on their codes, each
# arithmetic operation through the rule table (``_add``, ``_sub``, ``_mul``,
# ``_neg``, ``_div``).
# ---------------------------------------------------------------------------

# rendering precedence levels
_P_ADD, _P_MUL, _P_NEG, _P_POW = 1, 2, 3, 4


@dataclass(frozen=True)
class _Node:
    __slots__ = ()


@dataclass(frozen=True)
class Const(_Node):
    value: float

    def _emit(self, em, xs, grad):
        return _lit(self.value), (ZERO,) * len(xs) if grad else ()

    def _render(self, prec):
        s = repr(self.value)
        return f"({s})" if self.value < 0 and prec > _P_ADD else s


@dataclass(frozen=True)
class Var(_Node):
    index: int

    def _emit(self, em, xs, grad):
        seed = tuple(ONE if k == self.index else ZERO for k in range(len(xs)))
        return xs[self.index], seed if grad else ()

    def _render(self, prec):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class _Infix(_Node):
    """``lhs <sep> rhs`` at precedence ``prec``."""

    lhs: _Node
    rhs: _Node

    def _emit(self, em, xs, grad):
        a, ta = self.lhs._emit(em, xs, grad)
        b, tb = self.rhs._emit(em, xs, grad)
        return self._apply(em, a, ta, b, tb)

    def _apply(self, em, a, ta, b, tb):
        # linear: the same operator on the value and on each tangent
        return em.local(self.op(a, b)), tuple(em.local(self.op(u, v)) for u, v in zip(ta, tb))

    def _render(self, prec):
        # right operand one level tighter so tree shape survives reparsing:
        # a - (b - c) and a/(b*c) keep their parentheses
        s = f"{self.lhs._render(self.prec)}{self.sep}{self.rhs._render(self.prec + 1)}"
        return f"({s})" if prec > self.prec else s


class Add(_Infix):
    sep, prec, op = " + ", _P_ADD, staticmethod(_add)


class Sub(_Infix):
    sep, prec, op = " - ", _P_ADD, staticmethod(_sub)


class Mul(_Infix):
    sep, prec = "*", _P_MUL

    def _apply(self, em, a, ta, b, tb):
        return em.local(_mul(a, b)), tuple(em.local(_add(_mul(a, v), _mul(b, u)))
                                           for u, v in zip(ta, tb))


class Div(_Infix):
    sep, prec = "/", _P_MUL

    def _apply(self, em, a, ta, b, tb):
        em.check(f"{b} == 0.0", "division by zero")
        val = em.temp(f"{a} / {b}")
        return val, tuple(em.local(_div(_sub(u, _mul(val, v)), b)) for u, v in zip(ta, tb))


@dataclass(frozen=True)
class _Unary(_Node):
    """A function of one operand, printed as the call ``name(...)``."""

    operand: _Node

    def _emit(self, em, xs, grad):
        return self._apply(em, *self.operand._emit(em, xs, grad))

    def _render(self, prec):
        return f"{self.name}({self.operand._render(0)})"


class Neg(_Unary):
    def _apply(self, em, a, ta):
        return em.local(_neg(a)), tuple(em.local(_neg(u)) for u in ta)

    def _render(self, prec):
        s = f"-{self.operand._render(_P_NEG)}"
        return f"({s})" if prec > _P_NEG else s


@dataclass(frozen=True)
class Pow(_Node):
    base: _Node
    exponent: float

    def _emit(self, em, xs, grad):
        # The exponent is a finite literal, so the tests on k alone are
        # decided here; the tests on the base are emitted in evaluation order.
        a, ta = self.base._emit(em, xs, grad)
        k = self.exponent
        if k != int(k):
            em.check(f"{a} < 0.0", f"negative base {{!r}} with fractional exponent {k!r}", a)
        if k < 0.0:
            em.check(f"{a} == 0.0", f"zero base with negative exponent {k!r}")
        val = em.power(a, k, f"power {{!r}}^{k!r} overflows")
        if not grad:
            return val, ()
        if k < 1.0 and k != 0.0:
            em.check(f"{a} == 0.0", f"derivative of x^{k!r} undefined at 0")
        if k == 0.0:
            dcoef = ZERO
        else:
            slope = em.power(a, k - 1.0, f"derivative of x^{k!r} overflows at {{!r}}")
            dcoef = em.local(_mul(_lit(k), slope))
        return val, tuple(em.local(_mul(dcoef, u)) for u in ta)

    def _render(self, prec):
        s = f"{self.base._render(_P_POW + 1)}^{self.exponent!r}"
        return f"({s})" if prec > _P_POW else s


class Exp(_Unary):
    name = "exp"

    def _apply(self, em, a, ta):
        val = em.fresh()
        em.line(f"try:\n    {val} = exp({a})\nexcept OverflowError:\n    {val} = inf")
        return val, tuple(em.local(_mul(val, u)) for u in ta)


class Ln(_Unary):
    name = "ln"

    def _apply(self, em, a, ta):
        em.check(f"{a} <= 0.0", "ln of nonpositive value {!r}", a)
        val = em.temp(f"log({a})")
        return val, tuple(em.local(_div(u, a)) for u in ta)


# the most terms that ``Emitter.left_sum`` writes into one expression
SUM_TERMS = 200


@lru_cache(maxsize=16)
def _code(source: str, filename: str):
    """Generated source compiled.  A ``simulate`` of a bundled scenario
    compiles 11 sources: 16 keep a repeated command's code, few outlive it."""
    return compile(source, filename, "exec")


class Emitter:
    """Straight-line Python statements compiled into one function, on floats.

    Code is generated only from AST fields (float literals through ``repr``
    and variable indices) and from the names chosen by the caller, never
    from expression source text.  Domain tests go through ``check`` and
    powers through ``power``, so that ``BatchEmitter`` can lower the same
    ``_emit`` code to numpy columns.
    """

    namespace = {"exp": math.exp, "log": math.log, "inf": math.inf, "nan": math.nan,
                 "isfinite": math.isfinite, "DomainError": DomainError}

    def __init__(self):
        self.lines: list[str] = []
        self._count = 0

    def fresh(self) -> str:
        self._count += 1
        return f"v{self._count}"

    def line(self, code: str):
        self.lines.append(code)

    def temp(self, code: str) -> str:
        """Assign ``code`` to a fresh local and return its name."""
        name = self.fresh()
        self.lines.append(f"{name} = {code}")
        return name

    def local(self, code: str) -> str:
        """``code`` itself where it is a name, a literal or ZERO, else the
        name of a fresh local holding it."""
        return code if _atom(code) else self.temp(code)

    def left_sum(self, terms, name=None) -> str:
        """A local, ``name`` or a fresh one, holding the code ``terms`` added
        left to right from 0.0, written as a chain of partial sums of at most
        ``SUM_TERMS`` terms each: CPython's compiler recurses once per
        operator of one expression, so a single sum of a few thousand terms
        would not compile.  The chain adds in the same order, so the bits
        match."""
        name, total = name or self.fresh(), "0.0"
        for k in range(0, max(len(terms), 1), SUM_TERMS):
            self.line(f"{name} = {' + '.join([total, *terms[k:k + SUM_TERMS]])}")
            total = name
        return name

    def check(self, cond: str, message: str, value: str = "None"):
        """Raise DomainError(message.format(value)) where ``cond`` holds."""
        self.line(f"if {cond}: raise DomainError({message!r}.format({value}))")

    def power(self, a: str, k: float, message: str) -> str:
        """``a ** k``, raising DomainError(message.format(a)) where it
        overflows.  Float ``**`` raises OverflowError where * and / give
        inf; an inline handler keeps a power that does not at its bare cost."""
        name = self.fresh()
        self.line(f"try:\n    {name} = {a} ** {_lit(k)}\nexcept OverflowError:\n"
                  f"    raise DomainError({message!r}.format({a})) from None")
        return name

    def compile(self, name: str, params: str, result: str):
        """``def name(params): <lines>; return result`` as a function: code
        compiled once per source per process (``_code``), run in fresh globals."""
        body = "\n".join([*self.lines, f"return {result}"])
        source = f"def {name}({params}):\n" + textwrap.indent(body, "    ") + "\n"
        namespace = dict(self.namespace)
        exec(_code(source, f"<switchopt {name}>"), namespace)
        return namespace[name]


def _check_rows(cond):
    """DomainError where ``cond`` holds for some row (every row, for a test
    on constants alone), naming no row: ``_Model.step`` reruns the round
    member by member, and the failing member's substep names it."""
    if cond is True or cond is not False and cond.any():
        raise DomainError("a batch member left an expression's domain")


def _power_rows(a, k):
    """``a ** k`` on columns, where an overflow is a domain test."""
    v = np.power(a, k)
    if not math.isfinite(v.sum()):
        _check_rows(np.isinf(v) & np.isfinite(a))
    return v


class BatchEmitter(Emitter):
    """The same statements on numpy columns, one entry per batch member:
    ``exp``, ``log`` and powers are numpy's, within a few ulp of libm's, and
    a domain test fails if any member fails it, with no message of its own
    (see ``_check_rows``).  Run the function with numpy's floating-point
    warnings off (``exp`` overflows to ``inf``), as Python floats raise none."""

    namespace = {"exp": np.exp, "log": np.log, "inf": math.inf, "nan": math.nan,
                 "check": _check_rows, "power": _power_rows, "empty": np.empty}

    def check(self, cond, message, value="None"):
        self.line(f"check({cond})")

    def power(self, a, k, message):
        return self.temp(f"power({a}, {_lit(k)})")


class Expr:
    """A parsed scalar function of ``n`` variables.

    Immutable after construction and safe to evaluate concurrently: each
    evaluation method compiles its function of the tree on first use, so a
    race at most compiles the same function twice.
    """

    __slots__ = ("root", "n", "_text", "_value", "_value_and_grad")

    def __init__(self, root, n):
        self.root = root
        self.n = n
        self._text = root._render(0)
        self._value = self._value_and_grad = None

    def value(self, x) -> float:
        """Evaluate at ``x`` (sequence of length n)."""
        xs = coerce(x, self.n)
        return (self._value or self._compile(False))(*xs)

    def value_and_grad(self, x):
        """Evaluate value and full gradient in a single forward pass."""
        xs = coerce(x, self.n)
        return (self._value_and_grad or self._compile(True))(*xs)

    def grad(self, x):
        """Gradient at ``x`` as a tuple of length n."""
        return self.value_and_grad(x)[1]

    def _compile(self, grad):
        """Compile, cache and return the function of the n coordinates that
        gives the value, or with ``grad`` the value and the gradient tuple."""
        em = Emitter()
        xs = [f"x{k}" for k in range(self.n)]
        v, t = self.emit(em, xs, grad)
        name = "_value_and_grad" if grad else "_value"
        result = f"{v}, ({''.join(f'{u}, ' for u in t)})" if grad else v
        fn = em.compile(name, ", ".join(xs), result)
        setattr(self, name, fn)
        return fn

    def emit(self, em: Emitter, xs, grad: bool = True):
        """Write the value-and-gradient pass (the value pass, without
        ``grad``) into ``em`` with the variables bound to the local names
        ``xs``; return the code of the value and of each gradient entry
        (local names, literals or ZERO; none without ``grad``)."""
        return self.root._emit(em, tuple(xs), grad)

    def __str__(self):
        return self._text

    def __repr__(self):
        return f"Expr({self._text!r}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, Expr) and self.n == other.n and self.root == other.root
        )

    def __hash__(self):
        return hash((self.root, self.n))

    def __reduce__(self):
        # the compiled functions do not pickle; a copy compiles its own
        return Expr, (self.root, self.n)


def coerce(x, n: int) -> tuple:
    """The point ``x`` as a tuple of n floats; ExprError on another length."""
    xs = tuple(float(v) for v in x)
    if len(xs) != n:
        raise ExprError(f"expected a point of dimension {n}, got {len(xs)}")
    return xs


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually to report a useful position
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        if m.group("num") is not None:
            value = float(m.group("num"))
            if not math.isfinite(value):
                raise ExprSyntaxError(f"numeric literal {m.group('num')} is not finite",
                                      m.start("num"))
            tokens.append(("num", value, m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


# The deepest an expression nests, a level per recursive call of the parser,
# printer or compiler: a sum of k terms is k levels, k minus signs on a
# variable k + 1, a group (parentheses, exp(, ln() five.  ``parse`` refuses more.
MAX_DEPTH = 500


# the infix operators by level, loosest first
_INFIX = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.groups = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def group(self, pos):
        """A group's expression and closing parenthesis, its opening one read."""
        self.groups += 1
        if 5 * self.groups > MAX_DEPTH:
            raise ExprSyntaxError(f"groups nest {self.groups} deep, past "
                                  f"MAX_DEPTH={MAX_DEPTH} at 5 levels each", pos)
        node = self.parse_expr()
        self.expect_op(")")
        self.groups -= 1
        return node

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse_expr(self, level=0):
        """Operands joined left to right by the operators of one infix
        level: at level 0 terms by ``+ -``, at level 1 unary operands by
        ``* /``."""
        ops, op = _INFIX[level], None
        while True:
            rhs = self.parse_expr(level + 1) if level + 1 < len(_INFIX) else self.parse_unary()
            node = rhs if op is None else ops[op](node, rhs)
            kind, op, _ = self.peek()
            if kind != "op" or op not in ops:
                return node
            self.advance()

    def parse_unary(self):
        negations = 0  # a run of signs is read in a loop, not by recursion
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            negations += self.advance()[1] == "-"
        node = self.parse_power()
        for _ in range(negations):
            node = Neg(node)
        return node

    def parse_power(self):
        base = self.parse_atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self):
        # exponents are literal numbers, optionally signed
        kind, val, pos = self.peek()
        sign = 1.0
        if kind == "op" and val in "+-":
            sign = -1.0 if val == "-" else 1.0
            self.advance()
            kind, val, pos = self.peek()
        if kind != "num":
            raise ExprSyntaxError("exponent must be a numeric literal", pos)
        self.advance()
        return sign * val

    def parse_atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            return self.group(pos)
        if kind == "ident":
            if val in ("exp", "ln"):
                self.expect_op("(")
                arg = self.group(pos)
                return Exp(arg) if val == "exp" else Ln(arg)
            m = re.fullmatch(r"x(\d+)", val)
            if m is None:
                raise ExprSyntaxError(f"unknown identifier {val!r}", pos)
            k = int(m.group(1))
            if not 1 <= k <= self.n:
                raise VariableRangeError(
                    f"variable x{k} out of range for dimension n={self.n}"
                )
            return Var(k - 1)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse(text: str, n: int) -> Expr:
    """Parse ``text`` as a scalar function of ``x1 .. xn``.

    Raises ExprSyntaxError with a character position on malformed input or
    input that nests deeper than ``MAX_DEPTH``, and VariableRangeError when a
    variable index exceeds ``n``.
    """
    if n < 1:
        raise ExprError(f"dimension must be positive, got {n}")
    parser = _Parser(_tokenize(text), n)
    root = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {val!r}", pos)
    depth, level = 0, [root]  # level by level, so that a deep tree takes no recursion
    while level:
        depth, level = depth + 1, [v for node in level for v in vars(node).values()
                                   if isinstance(v, _Node)]
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests {depth} levels deep, past MAX_DEPTH={MAX_DEPTH}", 0)
    return Expr(root, n)
