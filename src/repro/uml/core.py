"""A minimal MOF/UML metamodel core.

The paper expresses every design artifact as a UML class diagram with a
profile on top:

* the MD model uses the profile of Luján-Mora, Trujillo & Song [16]
  (Fact / Dimension / Base / FactAttribute / Descriptor stereotypes);
* the GeoMD extension adds SpatialLevel and Layer stereotypes [10];
* the spatial-aware user model is the *SUS* profile of Fig. 3
  (User / Session / Characteristic / LocationContext / SpatialSelection);
* PRML itself "is based on a MOF metamodel" (Section 2).

This module provides just enough of UML for all four: named elements,
classes with typed properties, binary associations with role names,
enumerations, stereotypes grouped into profiles, and stereotype
application with metaclass checking.  The models are exported and
rendered (:mod:`repro.uml.diagram`); the rules navigate the schemas the
models describe (``UserModelSchema.navigate`` for SUS paths such as
``SUS.DecisionMaker.dm2role.name``, ``GeoMDSchema.resolve`` for GeoMD
ones), not these classes.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ModelError, ProfileError

__all__ = [
    "NamedElement",
    "DataType",
    "Enumeration",
    "Property",
    "UMLClass",
    "AssociationEnd",
    "Association",
    "Stereotype",
    "Profile",
    "Model",
    "STRING",
    "INTEGER",
    "REAL",
    "BOOLEAN",
    "GEOMETRY",
    "DATE",
]

_VALID_METACLASSES = frozenset({"Class", "Property", "Association"})


class NamedElement:
    """Base class: every model element has a non-empty name."""

    def __init__(self, name: str) -> None:
        if not name or not name.strip():
            raise ModelError("model elements require a non-empty name")
        self.name = name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class DataType(NamedElement):
    """A primitive type usable as a property type."""


#: The shared primitive types of the repository's models.
STRING = DataType("String")
INTEGER = DataType("Integer")
REAL = DataType("Real")
BOOLEAN = DataType("Boolean")
GEOMETRY = DataType("Geometry")
DATE = DataType("Date")


class Enumeration(NamedElement):
    """An enumeration with ordered literals (e.g. ``GeometricTypes``)."""

    def __init__(self, name: str, literals: Iterable[str]) -> None:
        super().__init__(name)
        self.literals: tuple[str, ...] = tuple(literals)
        if not self.literals:
            raise ModelError(f"enumeration {name!r} requires at least one literal")
        if len(set(self.literals)) != len(self.literals):
            raise ModelError(f"enumeration {name!r} has duplicate literals")

    def __contains__(self, literal: str) -> bool:
        return literal in self.literals


class Property(NamedElement):
    """A typed structural feature of a class."""

    def __init__(
        self,
        name: str,
        type_: DataType | Enumeration | "UMLClass",
        lower: int = 1,
        upper: int | None = 1,
        default: object = None,
    ) -> None:
        super().__init__(name)
        if lower < 0:
            raise ModelError(f"property {name!r}: lower bound must be >= 0")
        if upper is not None and upper < max(lower, 1):
            raise ModelError(f"property {name!r}: upper bound below lower bound")
        self.type = type_
        self.lower = lower
        self.upper = upper
        self.default = default
        self.owner: "UMLClass | None" = None
        self.stereotypes: set[str] = set()

    @property
    def qualified_name(self) -> str:
        if self.owner is None:
            return self.name
        return f"{self.owner.name}.{self.name}"


class UMLClass(NamedElement):
    """A class: named, with owned properties and applied stereotypes."""

    def __init__(self, name: str, properties: Iterable[Property] = ()) -> None:
        super().__init__(name)
        self.properties: dict[str, Property] = {}
        self.stereotypes: set[str] = set()
        for prop in properties:
            self.add_property(prop)

    def add_property(self, prop: Property) -> Property:
        if prop.name in self.properties:
            raise ModelError(
                f"class {self.name!r} already owns a property {prop.name!r}"
            )
        prop.owner = self
        self.properties[prop.name] = prop
        return prop

    def property(self, name: str) -> Property:
        try:
            return self.properties[name]
        except KeyError:
            raise ModelError(
                f"class {self.name!r} has no property {name!r}; "
                f"available: {sorted(self.properties)}"
            ) from None

    def has_stereotype(self, name: str) -> bool:
        return name in self.stereotypes


class AssociationEnd:
    """One navigable end of a binary association."""

    def __init__(
        self,
        role: str,
        type_: UMLClass,
        lower: int = 0,
        upper: int | None = None,
    ) -> None:
        if not role:
            raise ModelError("association ends require a role name")
        self.role = role
        self.type = type_
        self.lower = lower
        self.upper = upper

    def __repr__(self) -> str:
        return f"<AssociationEnd {self.role!r}: {self.type.name}>"


class Association(NamedElement):
    """A binary association between two role-named ends.

    The paper navigates associations by "the target roles of the
    relationships between model elements" — e.g. ``dm2role`` from the
    DecisionMaker class to its Role class in Fig. 4.
    """

    def __init__(self, name: str, source: AssociationEnd, target: AssociationEnd) -> None:
        super().__init__(name)
        self.source = source
        self.target = target
        self.stereotypes: set[str] = set()


class Stereotype(NamedElement):
    """A profile stereotype extending one UML metaclass."""

    def __init__(self, name: str, metaclass: str = "Class") -> None:
        super().__init__(name)
        if metaclass not in _VALID_METACLASSES:
            raise ProfileError(
                f"stereotype {name!r} extends unknown metaclass {metaclass!r}; "
                f"expected one of {sorted(_VALID_METACLASSES)}"
            )
        self.metaclass = metaclass


class Profile(NamedElement):
    """A named set of stereotypes (one per modeling concern)."""

    def __init__(self, name: str, stereotypes: Iterable[Stereotype] = ()) -> None:
        super().__init__(name)
        self.stereotypes: dict[str, Stereotype] = {}
        for st in stereotypes:
            self.add(st)

    def add(self, stereotype: Stereotype) -> Stereotype:
        if stereotype.name in self.stereotypes:
            raise ProfileError(
                f"profile {self.name!r} already defines stereotype "
                f"{stereotype.name!r}"
            )
        self.stereotypes[stereotype.name] = stereotype
        return stereotype

    def stereotype(self, name: str) -> Stereotype:
        try:
            return self.stereotypes[name]
        except KeyError:
            raise ProfileError(
                f"profile {self.name!r} has no stereotype {name!r}; "
                f"available: {sorted(self.stereotypes)}"
            ) from None

    def apply(self, element: UMLClass | Property | Association, name: str) -> None:
        """Apply a stereotype, checking the element's metaclass."""
        stereotype = self.stereotype(name)
        metaclass = {
            UMLClass: "Class",
            Property: "Property",
            Association: "Association",
        }.get(type(element))
        if metaclass is None:
            raise ProfileError(
                f"cannot stereotype a {type(element).__name__}"
            )
        if stereotype.metaclass != metaclass:
            raise ProfileError(
                f"stereotype {name!r} extends {stereotype.metaclass}, "
                f"not {metaclass} ({element.name!r})"
            )
        element.stereotypes.add(name)


class Model(NamedElement):
    """A model: classes, associations, enumerations and applied profiles."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.classes: dict[str, UMLClass] = {}
        self.associations: dict[str, Association] = {}
        self.enumerations: dict[str, Enumeration] = {}
        self.profiles: dict[str, Profile] = {}

    # -- construction ------------------------------------------------------

    def add_class(self, cls: UMLClass) -> UMLClass:
        if cls.name in self.classes:
            raise ModelError(f"model {self.name!r} already has class {cls.name!r}")
        self.classes[cls.name] = cls
        return cls

    def add_association(self, assoc: Association) -> Association:
        if assoc.name in self.associations:
            raise ModelError(
                f"model {self.name!r} already has association {assoc.name!r}"
            )
        for end in (assoc.source, assoc.target):
            if end.type.name not in self.classes:
                raise ModelError(
                    f"association {assoc.name!r} references class "
                    f"{end.type.name!r} not present in model {self.name!r}"
                )
        self.associations[assoc.name] = assoc
        return assoc

    def add_enumeration(self, enum: Enumeration) -> Enumeration:
        if enum.name in self.enumerations:
            raise ModelError(
                f"model {self.name!r} already has enumeration {enum.name!r}"
            )
        self.enumerations[enum.name] = enum
        return enum

    def apply_profile(self, profile: Profile) -> Profile:
        self.profiles[profile.name] = profile
        return profile

    # -- lookup ------------------------------------------------------------

    def cls(self, name: str) -> UMLClass:
        try:
            return self.classes[name]
        except KeyError:
            raise ModelError(
                f"model {self.name!r} has no class {name!r}; "
                f"available: {sorted(self.classes)}"
            ) from None

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Structural sanity check; returns a list of problem strings."""
        problems: list[str] = []
        for cls in self.classes.values():
            for prop in cls.properties.values():
                if isinstance(prop.type, Enumeration) and prop.type.name not in self.enumerations:
                    problems.append(
                        f"property {prop.qualified_name} uses enumeration "
                        f"{prop.type.name!r} not registered in the model"
                    )
                if isinstance(prop.type, UMLClass) and prop.type.name not in self.classes:
                    problems.append(
                        f"property {prop.qualified_name} uses class "
                        f"{prop.type.name!r} not registered in the model"
                    )
            for stereotype in cls.stereotypes:
                if not any(stereotype in p.stereotypes for p in self.profiles.values()):
                    problems.append(
                        f"class {cls.name!r} carries stereotype {stereotype!r} "
                        f"from no applied profile"
                    )
        return problems
