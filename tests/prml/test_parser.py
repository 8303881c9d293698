"""Tests for the PRML parser over the paper's rules and edge cases."""

import pytest

from repro.data import (
    ADD_SPATIALITY,
    FIVE_KM_STORES,
    INT_AIRPORT_CITY,
    TRAIN_AIRPORT_CITY,
)
from repro.errors import PRMLSyntaxError
from repro.geomd import GeometricType
from repro.prml import (
    AddLayerAction,
    BecomeSpatialAction,
    BinaryOp,
    BinaryOperator,
    ForeachStmt,
    IfStmt,
    NotOp,
    NumberLit,
    ParameterRef,
    QuantityLit,
    SelectInstanceAction,
    SessionEndEvent,
    SessionStartEvent,
    SetContentAction,
    SpatialCall,
    SpatialFunction,
    SpatialSelectionEvent,
    StringLit,
    parse_expression,
    parse_path,
    parse_rule,
    parse_rules,
)


class TestPaperRules:
    def test_add_spatiality(self):
        rule = parse_rule(ADD_SPATIALITY)
        assert rule.name == "addSpatiality"
        assert isinstance(rule.event, SessionStartEvent)
        (if_stmt,) = rule.body
        assert isinstance(if_stmt, IfStmt)
        add_layer, become = if_stmt.then_body
        assert isinstance(add_layer, AddLayerAction)
        assert add_layer.layer_name.value == "Airport"
        assert add_layer.geometric_type.value is GeometricType.POINT
        assert isinstance(become, BecomeSpatialAction)
        assert str(become.element) == "MD.Sales.Store.geometry"

    def test_five_km_stores(self):
        rule = parse_rule(FIVE_KM_STORES)
        assert rule.name == "5kmStores"
        (foreach,) = rule.body
        assert isinstance(foreach, ForeachStmt)
        assert foreach.variables == ("s",)
        assert str(foreach.sources[0]) == "GeoMD.Store"
        (if_stmt,) = foreach.body
        condition = if_stmt.condition
        assert isinstance(condition, BinaryOp)
        assert condition.op is BinaryOperator.LT
        assert isinstance(condition.left, SpatialCall)
        assert condition.left.function is SpatialFunction.DISTANCE
        assert isinstance(condition.right, QuantityLit)
        assert condition.right.metres == 5_000.0
        (select,) = if_stmt.then_body
        assert isinstance(select, SelectInstanceAction)

    def test_int_airport_city(self):
        rule = parse_rule(INT_AIRPORT_CITY)
        event = rule.event
        assert isinstance(event, SpatialSelectionEvent)
        assert str(event.target) == "GeoMD.Store.City"
        assert isinstance(event.condition, BinaryOp)
        (set_content,) = rule.body
        assert isinstance(set_content, SetContentAction)
        assert isinstance(set_content.value, BinaryOp)
        assert set_content.value.op is BinaryOperator.ADD

    def test_train_airport_city(self):
        rule = parse_rule(TRAIN_AIRPORT_CITY)
        (if_stmt,) = rule.body
        condition = if_stmt.condition
        assert isinstance(condition.right, ParameterRef)
        assert condition.right.name == "threshold"
        add_layer, foreach = if_stmt.then_body
        assert isinstance(add_layer, AddLayerAction)
        assert add_layer.geometric_type.value is GeometricType.LINE
        assert isinstance(foreach, ForeachStmt)
        assert foreach.variables == ("t", "c", "a")
        inner_if = foreach.body[0]
        distance = inner_if.condition.left
        assert distance.function is SpatialFunction.DISTANCE
        assert len(distance.args) == 1
        nested = distance.args[0]
        assert nested.function is SpatialFunction.INTERSECTION
        assert nested.args[0].function is SpatialFunction.INTERSECTION

    def test_parse_rules_batch(self):
        rules = parse_rules(ADD_SPATIALITY + FIVE_KM_STORES)
        assert [r.name for r in rules] == ["addSpatiality", "5kmStores"]


class TestEvents:
    def test_session_end(self):
        rule = parse_rule("Rule:r When SessionEnd do AddLayer('X', POINT) endWhen")
        assert isinstance(rule.event, SessionEndEvent)

    def test_unknown_event(self):
        with pytest.raises(PRMLSyntaxError):
            parse_rule("Rule:r When Sunrise do AddLayer('X', POINT) endWhen")


class TestStatements:
    def test_if_else(self):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (1 < 2) then AddLayer('A', POINT) "
            "else AddLayer('B', LINE) endIf endWhen"
        )
        (if_stmt,) = rule.body
        assert len(if_stmt.then_body) == 1
        assert len(if_stmt.else_body) == 1

    def test_unterminated_if(self):
        with pytest.raises(PRMLSyntaxError):
            parse_rule(
                "Rule:r When SessionStart do If (1<2) then "
                "AddLayer('A', POINT) endWhen"
            )

    def test_foreach_variable_source_mismatch(self):
        with pytest.raises(PRMLSyntaxError, match="variables"):
            parse_rule(
                "Rule:r When SessionStart do "
                "Foreach a, b in (GeoMD.X) SelectInstance(a) endForeach endWhen"
            )

    def test_foreach_duplicate_variables(self):
        with pytest.raises(PRMLSyntaxError, match="duplicate"):
            parse_rule(
                "Rule:r When SessionStart do "
                "Foreach a, a in (GeoMD.X, GeoMD.Y) SelectInstance(a) "
                "endForeach endWhen"
            )

    def test_add_layer_requires_string(self):
        with pytest.raises(PRMLSyntaxError):
            parse_rule(
                "Rule:r When SessionStart do AddLayer(Airport, POINT) endWhen"
            )

    def test_geom_type_required(self):
        with pytest.raises(PRMLSyntaxError):
            parse_rule(
                "Rule:r When SessionStart do AddLayer('A', CIRCLE) endWhen"
            )

    def test_trailing_input_rejected(self):
        with pytest.raises(PRMLSyntaxError):
            parse_rule(
                "Rule:r When SessionStart do AddLayer('A', POINT) endWhen extra"
            )


class TestExpressions:
    def test_precedence_and_or(self):
        expr = parse_expression("1 < 2 and 3 < 4 or not 5 < 6")
        assert isinstance(expr, BinaryOp)
        assert expr.op is BinaryOperator.OR
        assert expr.left.op is BinaryOperator.AND
        assert isinstance(expr.right, NotOp)

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op is BinaryOperator.ADD
        assert expr.right.op is BinaryOperator.MUL

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op is BinaryOperator.MUL
        assert expr.left.op is BinaryOperator.ADD

    def test_unary_minus(self):
        expr = parse_expression("-5")
        assert isinstance(expr, BinaryOp)
        assert expr.op is BinaryOperator.SUB
        assert isinstance(expr.left, NumberLit)
        assert expr.left.value == 0.0

    def test_model_path(self):
        path = parse_path("SUS.DecisionMaker.dm2role.name")
        assert path.root == "SUS"
        assert path.steps == ("DecisionMaker", "dm2role", "name")

    def test_non_model_path_rejected(self):
        with pytest.raises(PRMLSyntaxError):
            parse_path("Foo.bar")

    def test_bare_identifier_is_parameter(self):
        expr = parse_expression("threshold")
        assert isinstance(expr, ParameterRef)

    def test_spatial_call_arity(self):
        with pytest.raises(PRMLSyntaxError):
            parse_expression("Intersect(GeoMD.A.geometry)")
        with pytest.raises(PRMLSyntaxError):
            parse_expression("Distance(MD.A, MD.B, MD.C)")

    def test_string_literal(self):
        expr = parse_expression("'hello'")
        assert isinstance(expr, StringLit)
        assert expr.value == "hello"

    def test_geom_type_literal(self):
        expr = parse_expression("POLYGON")
        assert expr.value is GeometricType.POLYGON
