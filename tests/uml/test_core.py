"""Tests for the UML metamodel core."""

import pytest

from repro.errors import ModelError, ProfileError
from repro.uml import (
    Association,
    AssociationEnd,
    Enumeration,
    INTEGER,
    Model,
    Profile,
    Property,
    STRING,
    Stereotype,
    UMLClass,
)


def _sample_model():
    model = Model("Sample")
    user = model.add_class(UMLClass("User", [Property("name", STRING)]))
    role = model.add_class(UMLClass("Role", [Property("name", STRING)]))
    model.add_association(
        Association(
            "user_role",
            AssociationEnd("user", user, 1, 1),
            AssociationEnd("dm2role", role, 0, 1),
        )
    )
    return model


class TestElements:
    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            UMLClass("")

    def test_duplicate_property_rejected(self):
        cls = UMLClass("C", [Property("x", STRING)])
        with pytest.raises(ModelError):
            cls.add_property(Property("x", INTEGER))

    def test_property_qualified_name(self):
        cls = UMLClass("C", [Property("x", STRING)])
        assert cls.property("x").qualified_name == "C.x"

    def test_unknown_property(self):
        with pytest.raises(ModelError):
            UMLClass("C").property("missing")

    def test_property_bounds(self):
        with pytest.raises(ModelError):
            Property("p", STRING, lower=-1)
        with pytest.raises(ModelError):
            Property("p", STRING, lower=2, upper=1)


class TestEnumeration:
    def test_contains(self):
        enum = Enumeration("E", ["A", "B"])
        assert "A" in enum
        assert "C" not in enum

    def test_duplicates_rejected(self):
        with pytest.raises(ModelError):
            Enumeration("E", ["A", "A"])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Enumeration("E", [])


class TestModel:
    def test_duplicate_class_rejected(self):
        model = Model("M")
        model.add_class(UMLClass("C"))
        with pytest.raises(ModelError):
            model.add_class(UMLClass("C"))

    def test_association_requires_registered_classes(self):
        model = Model("M")
        a = UMLClass("A")
        model.add_class(a)
        ghost = UMLClass("Ghost")
        with pytest.raises(ModelError):
            model.add_association(
                Association(
                    "bad",
                    AssociationEnd("a", a),
                    AssociationEnd("g", ghost),
                )
            )

    def test_cls_error(self):
        with pytest.raises(ModelError):
            Model("M").cls("missing")


class TestProfiles:
    def test_apply_stereotype(self):
        profile = Profile("P", [Stereotype("Fact", "Class")])
        cls = UMLClass("Sales")
        profile.apply(cls, "Fact")
        assert cls.has_stereotype("Fact")

    def test_metaclass_mismatch(self):
        profile = Profile("P", [Stereotype("Descriptor", "Property")])
        with pytest.raises(ProfileError):
            profile.apply(UMLClass("C"), "Descriptor")

    def test_unknown_stereotype(self):
        profile = Profile("P")
        with pytest.raises(ProfileError):
            profile.apply(UMLClass("C"), "Nope")

    def test_duplicate_stereotype_rejected(self):
        profile = Profile("P", [Stereotype("S")])
        with pytest.raises(ProfileError):
            profile.add(Stereotype("S"))

    def test_invalid_metaclass(self):
        with pytest.raises(ProfileError):
            Stereotype("S", "Banana")


class TestValidation:
    def test_clean_model(self):
        model = _sample_model()
        assert model.validate() == []

    def test_orphan_stereotype_reported(self):
        model = _sample_model()
        model.cls("User").stereotypes.add("Phantom")
        problems = model.validate()
        assert any("Phantom" in p for p in problems)
