"""Tests for PlantUML rendering."""

from repro.uml import (
    Association,
    AssociationEnd,
    Enumeration,
    Model,
    Profile,
    Property,
    STRING,
    Stereotype,
    UMLClass,
    to_plantuml,
)


def _model():
    model = Model("Demo")
    model.add_enumeration(Enumeration("GeometricTypes", ["POINT", "LINE"]))
    cls = UMLClass("Store", [Property("name", STRING)])
    model.add_class(cls)
    profile = Profile("P", [Stereotype("SpatialLevel", "Class")])
    model.apply_profile(profile)
    profile.apply(cls, "SpatialLevel")
    other = model.add_class(UMLClass("City"))
    model.add_association(
        Association(
            "rollsup",
            AssociationEnd("d", cls, 1, None),
            AssociationEnd("r", other, 1, 1),
        )
    )
    return model


class TestPlantUML:
    def test_contains_all_sections(self):
        text = to_plantuml(_model())
        assert text.startswith("@startuml")
        assert text.endswith("@enduml")
        assert "enum GeometricTypes" in text
        assert "class Store <<SpatialLevel>>" in text
        assert "name : String" in text
        assert '"d 1..*"' in text and '"r 1"' in text

    def test_deterministic(self):
        assert to_plantuml(_model()) == to_plantuml(_model())
