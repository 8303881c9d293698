"""Deterministic text rendering of UML models (PlantUML dialect).

The reproduction regenerates the paper's figures as *text diagrams*: the
integration tests and figure benchmarks compare these renderings against
golden expectations, which makes "Fig. 2 / Fig. 4 / Fig. 6 regenerated"
a checkable assertion rather than a screenshot.
"""

from __future__ import annotations

from repro.uml.core import Association, Enumeration, Model, Property, UMLClass

__all__ = ["to_plantuml"]


def _stereo(names: set[str]) -> str:
    if not names:
        return ""
    inner = ", ".join(sorted(names))
    return f" <<{inner}>>"


def _type_name(prop: Property) -> str:
    return prop.type.name


def _render_class(cls: UMLClass) -> list[str]:
    lines = [f"class {cls.name}{_stereo(cls.stereotypes)} {{"]
    for name in sorted(cls.properties):
        prop = cls.properties[name]
        marker = _stereo(prop.stereotypes)
        card = ""
        if prop.upper is None:
            card = " [*]"
        elif prop.upper > 1:
            card = f" [{prop.lower}..{prop.upper}]"
        elif prop.lower == 0:
            card = " [0..1]"
        lines.append(f"  {prop.name} : {_type_name(prop)}{card}{marker}")
    lines.append("}")
    return lines


def _render_association(assoc: Association) -> str:
    src, dst = assoc.source, assoc.target

    def card(end) -> str:
        upper = "*" if end.upper is None else str(end.upper)
        return f"{end.lower}..{upper}" if str(end.lower) != upper else upper

    return (
        f'{src.type.name} "{src.role} {card(src)}" -- '
        f'"{dst.role} {card(dst)}" {dst.type.name} : {assoc.name}'
    )


def _render_enumeration(enum: Enumeration) -> list[str]:
    lines = [f"enum {enum.name} {{"]
    lines.extend(f"  {literal}" for literal in enum.literals)
    lines.append("}")
    return lines


def to_plantuml(model: Model) -> str:
    """Render a model to a deterministic PlantUML document."""
    lines = ["@startuml", f"title {model.name}"]
    for name in sorted(model.enumerations):
        lines.extend(_render_enumeration(model.enumerations[name]))
    for name in sorted(model.classes):
        lines.extend(_render_class(model.classes[name]))
    for name in sorted(model.associations):
        lines.append(_render_association(model.associations[name]))
    lines.append("@enduml")
    return "\n".join(lines)
