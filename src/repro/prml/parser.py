"""Recursive-descent parser for PRML rule text.

Grammar (paper concrete syntax, Section 5):

.. code-block:: text

    rules      := rule+
    rule       := "Rule" ":" IDENT "When" event "do" body "endWhen"
    event      := "SessionStart" | "SessionEnd"
                | "SpatialSelection" "(" path "," expr ")"
    body       := stmt*
    stmt       := if | foreach | action
    if         := "If" "(" expr ")" "then" body ["else" body] "endIf"
    foreach    := "Foreach" IDENT ("," IDENT)* "in"
                  "(" path ("," path)* ")" body "endForeach"
    action     := "SetContent" "(" path "," expr ")"
                | "SelectInstance" "(" expr ")"
                | "BecomeSpatial" "(" path "," geomtype ")"
                | "AddLayer" "(" STRING "," geomtype ")"
    expr       := or-expr with the usual precedence
                  (or < and < not < comparison < additive < multiplicative)
    primary    := literal | quantity | spatial-call | path | var | "(" expr ")"

Paths starting with ``SUS``/``MD``/``GeoMD`` are model paths; a bare
identifier is a loop variable when bound by an enclosing ``Foreach``, a
geometric type literal if it names one, else a designer parameter.

Sub-expressions and statements nest at most :data:`MAX_NESTING` levels
deep: each parenthesized expression, spatial call, ``not`` or unary
minus operand, and ``If`` or ``Foreach`` statement is one level, and so
is each further operand of an ``or``/``and``/``+``/``-``/``*``/``/``
chain, which nests the tree one level deeper.  Deeper text is a
:class:`~repro.errors.PRMLSyntaxError`, so text from outside (a
reported selection condition, a rule file) can never drive the parser,
or the printer and evaluator that walk its trees, past the
interpreter's recursion limit.
"""

from __future__ import annotations

from repro.errors import PRMLSyntaxError
from repro.geomd.gtypes_enum import GeometricType
from repro.prml.ast import (
    AddLayerAction,
    BecomeSpatialAction,
    BinaryOp,
    BinaryOperator,
    Event,
    Expr,
    ForeachStmt,
    GeomTypeLit,
    IfStmt,
    MODEL_ROOTS,
    NotOp,
    NumberLit,
    ParameterRef,
    PathExpr,
    QuantityLit,
    Rule,
    SelectInstanceAction,
    SessionEndEvent,
    SessionStartEvent,
    SetContentAction,
    SpatialCall,
    SpatialFunction,
    SpatialSelectionEvent,
    Stmt,
    StringLit,
    VarPath,
)
from repro.prml.lexer import Token, TokenKind, tokenize

__all__ = ["parse_rule", "parse_rules"]

_SPATIAL_NAMES = {fn.value: fn for fn in SpatialFunction}
_ACTION_NAMES = {"SetContent", "SelectInstance", "BecomeSpatial", "AddLayer"}
_GEOM_NAMES = {t.name for t in GeometricType}
_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}

#: How deep sub-expressions and statements may nest.  The paper's rules
#: nest at most 4 parentheses deep; at 32 levels the parser needs at most
#: about 370 of the 1,000 frames the interpreter allows by default.
MAX_NESTING = 32


class _Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.index = 0
        self._scopes: list[set[str]] = []
        self._depth = 0

    # -- token plumbing --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != TokenKind.EOF:
            self.index += 1
        return token

    def error(self, message: str) -> PRMLSyntaxError:
        token = self.current
        return PRMLSyntaxError(
            f"{message} (found {token.value!r})", token.line, token.column
        )

    def expect_keyword(self, word: str) -> Token:
        token = self.current
        if token.kind != TokenKind.KEYWORD or token.value != word:
            raise self.error(f"expected keyword {word!r}")
        return self.advance()

    def expect_punct(self, punct: str) -> Token:
        token = self.current
        if token.kind != TokenKind.PUNCT or token.value != punct:
            raise self.error(f"expected {punct!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        token = self.current
        if token.kind != TokenKind.IDENT:
            raise self.error("expected an identifier")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.current.kind == TokenKind.KEYWORD and self.current.value == word

    def at_punct(self, punct: str) -> bool:
        return self.current.kind == TokenKind.PUNCT and self.current.value == punct

    def accept_punct(self, punct: str) -> bool:
        if self.at_punct(punct):
            self.advance()
            return True
        return False

    def deeper(self) -> None:
        """Enter one more nesting level (see :data:`MAX_NESTING`); the
        caller restores ``_depth`` when its construct ends."""
        if self._depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self._depth += 1

    def nested(self, parse):
        """``parse()`` one nesting level deeper."""
        self.deeper()
        result = parse()
        self._depth -= 1
        return result

    # -- scopes -----------------------------------------------------------------

    def _bound(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    # -- grammar ------------------------------------------------------------------

    def parse_rules(self) -> list[Rule]:
        rules = [self.parse_rule()]
        while self.at_keyword("Rule"):
            rules.append(self.parse_rule())
        if self.current.kind != TokenKind.EOF:
            raise self.error("trailing input after rule")
        return rules

    def parse_rule(self) -> Rule:
        self.expect_keyword("Rule")
        self.expect_punct(":")
        name = self._parse_rule_name()
        self.expect_keyword("When")
        event = self.parse_event()
        self.expect_keyword("do")
        body = self.parse_body(terminators=("endWhen",))
        self.expect_keyword("endWhen")
        return Rule(name=name, event=event, body=tuple(body))

    def _parse_rule_name(self) -> str:
        """Rule names may start with a digit (the paper's ``5kmStores``).

        The lexer splits such a name into quantity/number + identifier
        tokens; the name is their concatenation up to the ``When`` keyword.
        """
        pieces: list[str] = []
        while self.current.kind in (
            TokenKind.IDENT,
            TokenKind.NUMBER,
            TokenKind.QUANTITY,
        ):
            pieces.append(self.advance().value)
        if not pieces:
            raise self.error("expected a rule name")
        return "".join(pieces)

    def parse_event(self) -> Event:
        token = self.current
        if token.kind != TokenKind.IDENT:
            raise self.error("expected an event name")
        if token.value == "SessionStart":
            self.advance()
            return SessionStartEvent()
        if token.value == "SessionEnd":
            self.advance()
            return SessionEndEvent()
        if token.value == "SpatialSelection":
            self.advance()
            self.expect_punct("(")
            target = self.parse_model_path()
            self.expect_punct(",")
            condition = self.parse_expr()
            self.expect_punct(")")
            return SpatialSelectionEvent(target=target, condition=condition)
        raise self.error(
            "unknown event; expected SessionStart, SessionEnd or "
            "SpatialSelection"
        )

    def parse_body(self, terminators: tuple[str, ...]) -> list[Stmt]:
        body: list[Stmt] = []
        while True:
            token = self.current
            if token.kind == TokenKind.EOF:
                raise self.error(
                    f"unterminated block; expected one of {terminators}"
                )
            if token.kind == TokenKind.KEYWORD and token.value in terminators:
                return body
            body.append(self.parse_stmt())

    def parse_stmt(self) -> Stmt:
        if self.at_keyword("If"):
            return self.nested(self.parse_if)
        if self.at_keyword("Foreach"):
            return self.nested(self.parse_foreach)
        token = self.current
        if token.kind == TokenKind.IDENT and token.value in _ACTION_NAMES:
            return self.parse_action()
        raise self.error("expected If, Foreach or a personalization action")

    def parse_if(self) -> IfStmt:
        self.expect_keyword("If")
        self.expect_punct("(")
        condition = self.parse_expr()
        self.expect_punct(")")
        self.expect_keyword("then")
        then_body = self.parse_body(terminators=("else", "endIf"))
        else_body: list[Stmt] = []
        if self.at_keyword("else"):
            self.advance()
            else_body = self.parse_body(terminators=("endIf",))
        self.expect_keyword("endIf")
        return IfStmt(
            condition=condition,
            then_body=tuple(then_body),
            else_body=tuple(else_body),
        )

    def parse_foreach(self) -> ForeachStmt:
        self.expect_keyword("Foreach")
        variables = [self.expect_ident().value]
        while self.accept_punct(","):
            variables.append(self.expect_ident().value)
        self.expect_keyword("in")
        self.expect_punct("(")
        sources = [self.parse_model_path()]
        while self.accept_punct(","):
            sources.append(self.parse_model_path())
        self.expect_punct(")")
        if len(variables) != len(sources):
            raise self.error(
                f"Foreach declares {len(variables)} variables but "
                f"{len(sources)} sources"
            )
        duplicates = {v for v in variables if variables.count(v) > 1}
        if duplicates:
            raise self.error(f"duplicate Foreach variables {sorted(duplicates)}")
        self._scopes.append(set(variables))
        try:
            body = self.parse_body(terminators=("endForeach",))
        finally:
            self._scopes.pop()
        self.expect_keyword("endForeach")
        return ForeachStmt(
            variables=tuple(variables),
            sources=tuple(sources),
            body=tuple(body),
        )

    def parse_action(self) -> Stmt:
        name = self.expect_ident().value
        self.expect_punct("(")
        if name == "SetContent":
            target = self.parse_model_path()
            self.expect_punct(",")
            value = self.parse_expr()
            self.expect_punct(")")
            return SetContentAction(target=target, value=value)
        if name == "SelectInstance":
            instance = self.parse_expr()
            self.expect_punct(")")
            return SelectInstanceAction(instance=instance)
        if name == "BecomeSpatial":
            element = self.parse_model_path()
            self.expect_punct(",")
            gtype = self.parse_geom_type()
            self.expect_punct(")")
            return BecomeSpatialAction(element=element, geometric_type=gtype)
        if name == "AddLayer":
            token = self.current
            if token.kind != TokenKind.STRING:
                raise self.error("AddLayer expects a quoted layer name")
            self.advance()
            self.expect_punct(",")
            gtype = self.parse_geom_type()
            self.expect_punct(")")
            return AddLayerAction(
                layer_name=StringLit(token.value), geometric_type=gtype
            )
        raise self.error(f"unknown action {name!r}")  # pragma: no cover

    def parse_geom_type(self) -> GeomTypeLit:
        token = self.current
        if token.kind != TokenKind.IDENT or token.value not in _GEOM_NAMES:
            raise self.error(
                f"expected a geometric type ({sorted(_GEOM_NAMES)})"
            )
        self.advance()
        return GeomTypeLit(GeometricType[token.value])

    def parse_model_path(self) -> PathExpr:
        token = self.expect_ident()
        steps: list[str] = []
        while self.at_punct("."):
            self.advance()
            steps.append(self.expect_ident().value)
        if token.value not in MODEL_ROOTS:
            raise PRMLSyntaxError(
                f"expected a model path rooted at one of {MODEL_ROOTS}, got "
                f"{token.value!r}",
                token.line,
                token.column,
            )
        return PathExpr(root=token.value, steps=tuple(steps))

    # -- expressions ---------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        depth = self._depth
        left = self.parse_and()
        while self.at_keyword("or"):
            self.advance()
            self.deeper()
            right = self.parse_and()
            left = BinaryOp(BinaryOperator.OR, left, right)
        self._depth = depth
        return left

    def parse_and(self) -> Expr:
        depth = self._depth
        left = self.parse_not()
        while self.at_keyword("and"):
            self.advance()
            self.deeper()
            right = self.parse_not()
            left = BinaryOp(BinaryOperator.AND, left, right)
        self._depth = depth
        return left

    def parse_not(self) -> Expr:
        if self.at_keyword("not"):
            self.advance()
            return NotOp(self.nested(self.parse_not))
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        token = self.current
        if token.kind == TokenKind.OPERATOR and token.value in _COMPARISONS:
            self.advance()
            right = self.parse_additive()
            return BinaryOp(BinaryOperator(token.value), left, right)
        return left

    def parse_additive(self) -> Expr:
        depth = self._depth
        left = self.parse_multiplicative()
        while (
            self.current.kind == TokenKind.OPERATOR
            and self.current.value in ("+", "-")
        ):
            op = BinaryOperator(self.advance().value)
            self.deeper()
            right = self.parse_multiplicative()
            left = BinaryOp(op, left, right)
        self._depth = depth
        return left

    def parse_multiplicative(self) -> Expr:
        depth = self._depth
        left = self.parse_unary()
        while (
            self.current.kind == TokenKind.OPERATOR
            and self.current.value in ("*", "/")
        ):
            op = BinaryOperator(self.advance().value)
            self.deeper()
            right = self.parse_unary()
            left = BinaryOp(op, left, right)
        self._depth = depth
        return left

    def parse_unary(self) -> Expr:
        if self.current.kind == TokenKind.OPERATOR and self.current.value == "-":
            self.advance()
            operand = self.nested(self.parse_unary)
            return BinaryOp(BinaryOperator.SUB, NumberLit(0.0), operand)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == TokenKind.NUMBER:
            self.advance()
            return NumberLit(float(token.value))
        if token.kind == TokenKind.QUANTITY:
            self.advance()
            number = token.value.rstrip("abcdefghijklmnopqrstuvwxyz")
            unit = token.value[len(number):]
            return QuantityLit(float(number), unit)
        if token.kind == TokenKind.STRING:
            self.advance()
            return StringLit(token.value)
        if self.at_punct("("):
            self.advance()
            inner = self.nested(self.parse_expr)
            self.expect_punct(")")
            return inner
        if self.at_punct("$"):
            # Explicit parameter escape: a bare identifier is
            # context-sensitive (Foreach variable if bound, parameter
            # otherwise), so ``$name`` is the spelling the printer uses
            # when a loop variable would capture the parameter's name.
            self.advance()
            return ParameterRef(self.expect_ident().value)
        if token.kind == TokenKind.IDENT:
            # Spatial function call?
            if token.value in _SPATIAL_NAMES:
                next_token = self.tokens[self.index + 1]
                if next_token.kind == TokenKind.PUNCT and next_token.value == "(":
                    return self.nested(self.parse_spatial_call)
            # Geometric type literal?
            if token.value in _GEOM_NAMES:
                self.advance()
                return GeomTypeLit(GeometricType[token.value])
            # Model path?
            if token.value in MODEL_ROOTS:
                return self.parse_model_path()
            # Variable path or parameter.
            self.advance()
            steps: list[str] = []
            while self.at_punct("."):
                self.advance()
                steps.append(self.expect_ident().value)
            if steps or self._bound(token.value):
                return VarPath(var=token.value, steps=tuple(steps))
            return ParameterRef(token.value)
        raise self.error("expected an expression")

    def parse_spatial_call(self) -> SpatialCall:
        name_token = self.expect_ident()
        function = _SPATIAL_NAMES[name_token.value]
        self.expect_punct("(")
        args = [self.parse_expr()]
        while self.accept_punct(","):
            args.append(self.parse_expr())
        self.expect_punct(")")
        if function is SpatialFunction.DISTANCE:
            if len(args) not in (1, 2):
                raise PRMLSyntaxError(
                    f"Distance takes 1 or 2 arguments, got {len(args)}",
                    name_token.line,
                    name_token.column,
                )
        elif len(args) != 2:
            raise PRMLSyntaxError(
                f"{function.value} takes exactly 2 arguments, got {len(args)}",
                name_token.line,
                name_token.column,
            )
        return SpatialCall(function=function, args=tuple(args))


def parse_rule(source: str) -> Rule:
    """Parse exactly one rule from source text."""
    parser = _Parser(source)
    rule = parser.parse_rule()
    if parser.current.kind != TokenKind.EOF:
        raise parser.error("trailing input after rule")
    return rule


def parse_rules(source: str) -> list[Rule]:
    """Parse one or more rules from source text."""
    return _Parser(source).parse_rules()


def parse_expression(source: str) -> Expr:
    """Parse a standalone PRML expression (used for event matching)."""
    parser = _Parser(source)
    expr = parser.parse_expr()
    if parser.current.kind != TokenKind.EOF:
        raise parser.error("trailing input after expression")
    return expr


def parse_path(source: str) -> PathExpr:
    """Parse a standalone model path (``GeoMD.Store.City``...)."""
    parser = _Parser(source)
    path = parser.parse_model_path()
    if parser.current.kind != TokenKind.EOF:
        raise parser.error("trailing input after path")
    return path
