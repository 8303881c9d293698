"""PRML — the Personalization Rules Modeling Language, spatially extended.

The paper's core contribution: an ECA rule language (Fig. 5 metamodel)
with spatial operators (Intersect, Disjoint, Cross, Inside, Equals,
Distance, Intersection), spatial events (SpatialSelection) and spatial
actions (SetContent, SelectInstance, BecomeSpatial, AddLayer).

Pipeline: :func:`parse_rule` → :class:`SemanticAnalyzer` →
:class:`Evaluator` (with :func:`print_rule` giving the canonical text).
"""

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
from repro.prml.evaluator import (
    BoundFeature,
    BoundMember,
    Evaluator,
    GeoDataSource,
    RuleOutcome,
    RuntimeContext,
    SelectionSet,
)
from repro.prml.lexer import Token, TokenKind, tokenize
from repro.prml.parser import parse_expression, parse_path, parse_rule, parse_rules
from repro.prml.printer import print_event, print_expr, print_rule
from repro.prml.semantics import SemanticAnalyzer, SourceInfo, ValueType
from repro.prml.stdlib import (
    LineAnchoredCollection,
    prml_distance,
    prml_intersection,
    prml_predicate,
)

__all__ = [
    "AddLayerAction",
    "BecomeSpatialAction",
    "BinaryOp",
    "BinaryOperator",
    "BoundFeature",
    "BoundMember",
    "Evaluator",
    "Event",
    "Expr",
    "ForeachStmt",
    "GeoDataSource",
    "GeomTypeLit",
    "IfStmt",
    "LineAnchoredCollection",
    "NotOp",
    "NumberLit",
    "ParameterRef",
    "PathExpr",
    "QuantityLit",
    "Rule",
    "RuleOutcome",
    "RuntimeContext",
    "SelectInstanceAction",
    "SelectionSet",
    "SemanticAnalyzer",
    "SessionEndEvent",
    "SessionStartEvent",
    "SetContentAction",
    "SourceInfo",
    "SpatialCall",
    "SpatialFunction",
    "SpatialSelectionEvent",
    "Stmt",
    "StringLit",
    "Token",
    "TokenKind",
    "ValueType",
    "VarPath",
    "parse_expression",
    "parse_path",
    "parse_rule",
    "parse_rules",
    "print_event",
    "print_expr",
    "print_rule",
    "prml_distance",
    "prml_intersection",
    "prml_predicate",
    "tokenize",
]
