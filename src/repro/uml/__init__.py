"""Minimal MOF/UML metamodel core with profiles and stereotypes.

All of the paper's design artifacts (MD model, GeoMD model, SUS user model,
PRML metamodel) are UML profiles; this package provides the common
machinery: classes, typed properties, associations with role names,
enumerations, stereotype application with metaclass checks and
deterministic PlantUML rendering.
"""

from repro.uml.core import (
    BOOLEAN,
    DATE,
    GEOMETRY,
    INTEGER,
    REAL,
    STRING,
    Association,
    AssociationEnd,
    DataType,
    Enumeration,
    Model,
    NamedElement,
    Profile,
    Property,
    Stereotype,
    UMLClass,
)
from repro.uml.diagram import to_plantuml

__all__ = [
    "BOOLEAN",
    "DATE",
    "GEOMETRY",
    "INTEGER",
    "REAL",
    "STRING",
    "Association",
    "AssociationEnd",
    "DataType",
    "Enumeration",
    "Model",
    "NamedElement",
    "Profile",
    "Property",
    "Stereotype",
    "UMLClass",
    "to_plantuml",
]
