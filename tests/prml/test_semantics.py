"""Tests for PRML static semantic analysis."""

import pytest

from repro.data import (
    ALL_PAPER_RULES,
    build_motivating_user_model,
    build_sales_schema,
)
from repro.errors import PRMLSemanticError
from repro.geomd import GeoMDSchema
from repro.prml import SemanticAnalyzer, parse_rule


@pytest.fixture()
def analyzer():
    geo = GeoMDSchema.from_md(build_sales_schema())
    return SemanticAnalyzer(
        build_motivating_user_model(),
        geo,
        geo,
        parameters={"threshold": 3},
    )


class TestPaperRulesClean:
    def test_each_paper_rule_is_clean(self, analyzer):
        analyzer.known_layers = {"Airport", "Train"}
        for name, source in ALL_PAPER_RULES.items():
            issues = analyzer.analyze(parse_rule(source))
            assert issues == [], f"{name}: {issues}"


class TestSUSPaths:
    def test_wrong_user_class(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (SUS.Nobody.name='x') then AddLayer('A', POINT) endIf endWhen"
        )
        issues = analyzer.analyze(rule)
        assert any("user class" in issue for issue in issues)

    def test_unknown_role(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (SUS.DecisionMaker.dm2ghost.name='x') then "
            "AddLayer('A', POINT) endIf endWhen"
        )
        assert analyzer.analyze(rule)

    def test_path_past_property(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (SUS.DecisionMaker.name.more='x') then "
            "AddLayer('A', POINT) endIf endWhen"
        )
        assert any("past property" in issue for issue in analyzer.analyze(rule))

    def test_set_content_target_must_be_property(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "SetContent(SUS.DecisionMaker.dm2role, 'x') endWhen"
        )
        assert any("property" in issue for issue in analyzer.analyze(rule))


class TestMDPaths:
    def test_unknown_dimension(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "BecomeSpatial(MD.Sales.Galaxy.geometry, POINT) endWhen"
        )
        assert analyzer.analyze(rule)

    def test_become_spatial_on_attribute_rejected(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "BecomeSpatial(MD.Sales.Store.City.name, POINT) endWhen"
        )
        assert analyzer.analyze(rule)

    def test_become_spatial_plain_level_ok(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "BecomeSpatial(MD.Sales.Store, POINT) endWhen"
        )
        assert analyzer.analyze(rule) == []

    def test_geometry_on_non_spatial_level_tolerated(self, analyzer):
        # Event patterns reference .geometry before spatialization.
        rule = parse_rule(
            "Rule:r When SpatialSelection(GeoMD.Store.City, "
            "Distance(GeoMD.Store.City.geometry, GeoMD.Store.City.geometry)<1km) do "
            "SetContent(SUS.DecisionMaker.dm2airportcity.degree, 1) endWhen"
        )
        assert analyzer.analyze(rule) == []


class TestForeach:
    def test_unknown_source(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "Foreach x in (GeoMD.Nebula) SelectInstance(x) endForeach endWhen"
        )
        assert any("level or layer" in issue for issue in analyzer.analyze(rule))

    def test_known_layer_source(self, analyzer):
        analyzer.known_layers = {"Airport"}
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "Foreach x in (GeoMD.Airport) SelectInstance(x) endForeach endWhen"
        )
        assert analyzer.analyze(rule) == []

    def test_layer_added_in_same_rule(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do AddLayer('Metro', LINE) "
            "Foreach x in (GeoMD.Metro) SelectInstance(x) endForeach endWhen"
        )
        assert analyzer.analyze(rule) == []

    def test_unknown_level_attribute_on_variable(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "Foreach s in (GeoMD.Store) "
            "If (s.altitude=1) then SelectInstance(s) endIf endForeach endWhen"
        )
        assert any("altitude" in issue for issue in analyzer.analyze(rule))

    def test_select_instance_needs_variable(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "Foreach s in (GeoMD.Store) SelectInstance(GeoMD.Store) "
            "endForeach endWhen"
        )
        assert any("Foreach-bound" in issue for issue in analyzer.analyze(rule))


class TestTyping:
    def test_if_condition_must_be_boolean(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (1 + 2) then AddLayer('A', POINT) endIf endWhen"
        )
        assert any("expected boolean" in issue for issue in analyzer.analyze(rule))

    def test_arithmetic_on_strings_flagged(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (SUS.DecisionMaker.name + 1 > 2) then "
            "AddLayer('A', POINT) endIf endWhen"
        )
        assert any("arithmetic" in issue for issue in analyzer.analyze(rule))

    def test_mixed_equality_flagged(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (SUS.DecisionMaker.name = 3) then "
            "AddLayer('A', POINT) endIf endWhen"
        )
        assert any("mixes" in issue for issue in analyzer.analyze(rule))

    def test_undefined_parameter_flagged(self, analyzer):
        analyzer.parameters = {}
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "If (SUS.DecisionMaker.dm2airportcity.degree > missing) then "
            "AddLayer('A', POINT) endIf endWhen"
        )
        assert any("parameter" in issue for issue in analyzer.analyze(rule))

    def test_unary_distance_requires_intersection(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "Foreach s in (GeoMD.Store) "
            "If (Distance(s.geometry) < 5km) then SelectInstance(s) endIf "
            "endForeach endWhen"
        )
        assert any("Intersection" in issue for issue in analyzer.analyze(rule))

    def test_spatial_predicate_arg_type(self, analyzer):
        rule = parse_rule(
            "Rule:r When SessionStart do "
            "Foreach s in (GeoMD.Store) "
            "If (Inside(s.name, s.geometry)) then SelectInstance(s) endIf "
            "endForeach endWhen"
        )
        assert any("expected geometry" in issue for issue in analyzer.analyze(rule))


class TestCheckRaises:
    def test_check_raises_with_all_issues(self, analyzer):
        rule = parse_rule(
            "Rule:bad When SessionStart do "
            "If (SUS.Nobody.x='1') then SetContent(SUS.Nobody.y, 2) endIf endWhen"
        )
        with pytest.raises(PRMLSemanticError, match="bad"):
            analyzer.check(rule)
