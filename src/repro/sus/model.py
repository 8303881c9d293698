"""Typed user-model schemas and runtime user profiles.

Two levels, mirroring the paper's Fig. 4:

* :class:`UserModelSchema` — the *structure* of the data required for
  personalization: stereotyped classes (User / Session / Characteristic /
  LocationContext / SpatialSelection) with typed properties and
  associations navigable by role name (``dm2role``, ``s2location``...);
* :class:`UserProfile` — one user's *instance* of that schema, updated
  during the lifetime of the system: attribute values, the current
  analysis session with its geographic location, and the interest degrees
  accumulated by SpatialSelection tracking rules.

PRML ``SUS.`` path expressions resolve against the schema and evaluate
against the profile; "the source concept is always the user class"
(Section 4.2.2).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import UserModelError
from repro.geometry import Geometry, Point
from repro.sus.profile import SUSStereotype, sus_profile
from repro.uml.core import (
    Association,
    AssociationEnd,
    DataType,
    GEOMETRY,
    INTEGER,
    Model,
    Property,
    UMLClass,
)

__all__ = ["UserClass", "UserAssociation", "UserModelSchema", "UserProfile"]


class UserClass:
    """A stereotyped class of the user model."""

    def __init__(
        self,
        name: str,
        stereotype: SUSStereotype,
        properties: Mapping[str, DataType] | None = None,
        defaults: Mapping[str, object] | None = None,
    ) -> None:
        if not name:
            raise UserModelError("user-model classes require a name")
        self.name = name
        self.stereotype = stereotype
        self.properties: dict[str, DataType] = dict(properties or {})
        self.defaults: dict[str, object] = dict(defaults or {})
        if stereotype is SUSStereotype.SPATIAL_SELECTION:
            # SpatialSelection classes store "the number of times it is
            # performed" (Section 4.1) in a degree counter.
            self.properties.setdefault("degree", INTEGER)
            self.defaults.setdefault("degree", 0)
        if stereotype is SUSStereotype.LOCATION_CONTEXT:
            self.properties.setdefault("geometry", GEOMETRY)
        for prop in self.defaults:
            if prop not in self.properties:
                raise UserModelError(
                    f"class {name!r}: default for unknown property {prop!r}"
                )

    def __repr__(self) -> str:
        return f"<UserClass {self.name} <<{self.stereotype.value}>>>"


class UserAssociation:
    """A navigable link between two user-model classes."""

    def __init__(self, source: str, role: str, target: str) -> None:
        if not role:
            raise UserModelError("user-model associations require a role")
        self.source = source
        self.role = role
        self.target = target

    def __repr__(self) -> str:
        return f"<UserAssociation {self.source} --{self.role}--> {self.target}>"


class UserModelSchema:
    """The structure of the data required for personalization."""

    def __init__(
        self,
        name: str,
        classes: Iterable[UserClass],
        associations: Iterable[UserAssociation] = (),
    ) -> None:
        self.name = name
        self.classes: dict[str, UserClass] = {}
        for cls in classes:
            if cls.name in self.classes:
                raise UserModelError(f"duplicate user-model class {cls.name!r}")
            self.classes[cls.name] = cls
        users = [
            c for c in self.classes.values() if c.stereotype is SUSStereotype.USER
        ]
        if len(users) != 1:
            raise UserModelError(
                f"a user model needs exactly one <<User>> class, found "
                f"{[c.name for c in users]}"
            )
        self.user_class = users[0]
        self.associations: dict[tuple[str, str], UserAssociation] = {}
        for assoc in associations:
            self.add_association(assoc)

    def add_association(self, assoc: UserAssociation) -> UserAssociation:
        for end in (assoc.source, assoc.target):
            if end not in self.classes:
                raise UserModelError(
                    f"association role {assoc.role!r} references unknown "
                    f"class {end!r}"
                )
        key = (assoc.source, assoc.role)
        if key in self.associations:
            raise UserModelError(
                f"class {assoc.source!r} already has an association role "
                f"{assoc.role!r}"
            )
        self.associations[key] = assoc
        return assoc

    def cls(self, name: str) -> UserClass:
        try:
            return self.classes[name]
        except KeyError:
            raise UserModelError(
                f"user model has no class {name!r}; available: "
                f"{sorted(self.classes)}"
            ) from None

    def navigate(self, cls_name: str, step: str) -> tuple[str, str]:
        """Resolve one step from a class.

        Returns ``("property", type_name)`` or ``("association",
        target_class_name)``.
        """
        cls = self.cls(cls_name)
        if step in cls.properties:
            return ("property", cls.properties[step].name)
        assoc = self.associations.get((cls_name, step))
        if assoc is not None:
            return ("association", assoc.target)
        raise UserModelError(
            f"cannot navigate {step!r} from user-model class {cls_name!r}; "
            f"properties: {sorted(cls.properties)}, roles: "
            f"{sorted(r for (s, r) in self.associations if s == cls_name)}"
        )

    def session_classes(self) -> list[UserClass]:
        return [
            c
            for c in self.classes.values()
            if c.stereotype is SUSStereotype.SESSION
        ]

    def to_uml(self) -> Model:
        """The Fig. 4-style UML class diagram for this user model."""
        from repro.geomd.gtypes_enum import geometric_types_enumeration

        model = Model(self.name)
        profile = sus_profile()
        model.apply_profile(profile)
        model.add_enumeration(geometric_types_enumeration())
        for cls in self.classes.values():
            uml_cls = UMLClass(cls.name)
            model.add_class(uml_cls)
            profile.apply(uml_cls, cls.stereotype.value)
            for prop_name, prop_type in cls.properties.items():
                uml_cls.add_property(Property(prop_name, prop_type))
        for (source, role), assoc in self.associations.items():
            model.add_association(
                Association(
                    f"{source}_{role}",
                    AssociationEnd("src", model.cls(source), 1, 1),
                    AssociationEnd(role, model.cls(assoc.target), 0, 1),
                )
            )
        return model


class _Instance:
    """A runtime object: values plus links to other instances."""

    __slots__ = ("cls", "values", "links")

    def __init__(self, cls: UserClass) -> None:
        self.cls = cls
        self.values: dict[str, object] = dict(cls.defaults)
        self.links: dict[str, "_Instance"] = {}


class UserProfile:
    """One user's runtime profile over a :class:`UserModelSchema`.

    The profile auto-instantiates linked singletons on first navigation, so
    acquisition rules (``SetContent``) can write through paths like
    ``DecisionMaker.dm2airportcity.degree`` without explicit setup.
    """

    def __init__(self, schema: UserModelSchema, user_id: str) -> None:
        if not user_id:
            raise UserModelError("profiles require a user id")
        self.schema = schema
        self.user_id = user_id
        self._root = _Instance(schema.user_class)

    # -- path access -------------------------------------------------------

    def _walk(self, steps: list[str], create: bool) -> tuple[_Instance, str]:
        """Walk to the instance owning the final step; returns (obj, step)."""
        if not steps:
            raise UserModelError("empty user-model path")
        if steps[0] != self.schema.user_class.name:
            raise UserModelError(
                f"SUS paths start at the user class "
                f"{self.schema.user_class.name!r}, got {steps[0]!r}"
            )
        instance = self._root
        remaining = steps[1:]
        if not remaining:
            raise UserModelError(
                "a SUS path must continue past the user class"
            )
        while len(remaining) > 1:
            step = remaining[0]
            kind, target = self.schema.navigate(instance.cls.name, step)
            if kind != "association":
                raise UserModelError(
                    f"path continues past property {step!r} of "
                    f"{instance.cls.name!r}"
                )
            linked = instance.links.get(step)
            if linked is None:
                if not create:
                    raise UserModelError(
                        f"no {step!r} instance linked from "
                        f"{instance.cls.name!r} yet"
                    )
                linked = _Instance(self.schema.cls(target))
                instance.links[step] = linked
            instance = linked
            remaining = remaining[1:]
        return instance, remaining[0]

    def get(self, path: str) -> object:
        """Read a value (or linked instance) at a dotted SUS path.

        Reading through an absent association auto-instantiates the linked
        singleton with its class defaults — so interest counters read 0
        before the first tracked selection (Example 5.3's threshold check
        runs before any SpatialSelection has fired).
        """
        steps = path.split(".")
        instance, last = self._walk(steps, create=True)
        kind, _target = self.schema.navigate(instance.cls.name, last)
        if kind == "association":
            linked = instance.links.get(last)
            if linked is None:
                raise UserModelError(f"no instance linked at {path!r}")
            return linked
        if last not in instance.values:
            raise UserModelError(f"value at {path!r} has not been set")
        return instance.values[last]

    def set(self, path: str, value: object) -> None:
        """Write a value at a dotted SUS path (SetContent semantics)."""
        steps = path.split(".")
        instance, last = self._walk(steps, create=True)
        kind, _target = self.schema.navigate(instance.cls.name, last)
        if kind != "property":
            raise UserModelError(
                f"cannot assign to association role {last!r} (path {path!r})"
            )
        declared = instance.cls.properties[last]
        if declared.name == "Geometry" and not isinstance(value, Geometry):
            raise UserModelError(
                f"path {path!r} expects a Geometry, got {type(value).__name__}"
            )
        if declared.name == "Integer":
            if isinstance(value, bool):
                raise UserModelError(f"path {path!r} expects an integer, got bool")
            # PRML arithmetic produces floats (`degree + 1`); integral
            # results are stored back as ints.
            if isinstance(value, float):
                if not value.is_integer():
                    raise UserModelError(
                        f"path {path!r} expects an integer, got {value!r}"
                    )
                value = int(value)
        instance.values[last] = value

    def has(self, path: str) -> bool:
        """Does the path resolve to a set value / linked instance?"""
        try:
            self.get(path)
            return True
        except UserModelError:
            return False

    # -- interest tracking ----------------------------------------------------

    def increment_degree(self, selection_class: str, by: int = 1) -> int:
        """Bump a SpatialSelection interest counter; returns the new value."""
        cls = self.schema.cls(selection_class)
        if cls.stereotype is not SUSStereotype.SPATIAL_SELECTION:
            raise UserModelError(
                f"{selection_class!r} is not a <<SpatialSelection>> class"
            )
        role = self._role_to(selection_class)
        path = f"{self.schema.user_class.name}.{role}.degree"
        current = self.get(path) if self.has(path) else 0
        assert isinstance(current, int)
        self.set(path, current + by)
        return current + by

    def degree(self, selection_class: str) -> int:
        role = self._role_to(selection_class)
        path = f"{self.schema.user_class.name}.{role}.degree"
        if not self.has(path):
            return 0
        value = self.get(path)
        assert isinstance(value, int)
        return value

    def _role_to(self, class_name: str) -> str:
        for (source, role), assoc in self.schema.associations.items():
            if source == self.schema.user_class.name and assoc.target == class_name:
                return role
        raise UserModelError(
            f"the user class has no association to {class_name!r}"
        )

    # -- session lifecycle ----------------------------------------------------

    def open_session(self, location: Point | None = None) -> None:
        """Start an analysis session; optionally attach a location context.

        The location becomes readable through the standard
        ``User.<session-role>.<location-role>.geometry`` path used by
        Example 5.2's rule.
        """
        session_classes = self.schema.session_classes()
        if not session_classes:
            raise UserModelError("the user model declares no <<Session>> class")
        session_cls = session_classes[0]
        session_role = self._role_to(session_cls.name)
        session = _Instance(session_cls)
        self._root.links[session_role] = session
        if location is not None:
            location_role = None
            location_cls = None
            for (source, role), assoc in self.schema.associations.items():
                if source != session_cls.name:
                    continue
                target_cls = self.schema.cls(assoc.target)
                if target_cls.stereotype is SUSStereotype.LOCATION_CONTEXT:
                    location_role = role
                    location_cls = target_cls
                    break
            if location_role is None or location_cls is None:
                raise UserModelError(
                    "the session class has no <<LocationContext>> association"
                )
            location_instance = _Instance(location_cls)
            location_instance.values["geometry"] = location
            session.links[location_role] = location_instance

    def close_session(self) -> None:
        session_classes = self.schema.session_classes()
        if not session_classes:
            return
        role = self._role_to(session_classes[0].name)
        self._root.links.pop(role, None)

    @property
    def in_session(self) -> bool:
        session_classes = self.schema.session_classes()
        if not session_classes:
            return False
        role = self._role_to(session_classes[0].name)
        return role in self._root.links

    # -- snapshots ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready snapshot (geometries as WKT)."""

        def dump(instance: _Instance) -> dict:
            values = {
                k: (v.wkt if isinstance(v, Geometry) else v)
                for k, v in instance.values.items()
            }
            return {
                "class": instance.cls.name,
                "values": values,
                "links": {
                    role: dump(linked) for role, linked in instance.links.items()
                },
            }

        return {"user_id": self.user_id, "root": dump(self._root)}

    @classmethod
    def from_dict(cls, schema: UserModelSchema, data: dict) -> "UserProfile":
        """Rebuild a profile from a :meth:`to_dict` snapshot.

        The user model "will be updated during the lifetime of the system"
        (Section 4.1) — interest degrees and characteristics survive across
        sessions, so profiles persist between portal restarts.
        """
        from repro.geometry import wkt_loads

        profile = cls(schema, data["user_id"])

        def load(instance: _Instance, node: dict) -> None:
            if node["class"] != instance.cls.name:
                raise UserModelError(
                    f"snapshot class {node['class']!r} does not match "
                    f"schema class {instance.cls.name!r}"
                )
            for name, value in node["values"].items():
                declared = instance.cls.properties.get(name)
                if declared is None:
                    raise UserModelError(
                        f"snapshot value {name!r} unknown on class "
                        f"{instance.cls.name!r}"
                    )
                if declared.name == "Geometry" and isinstance(value, str):
                    value = wkt_loads(value)
                instance.values[name] = value
            for role, child_node in node["links"].items():
                kind, target = schema.navigate(instance.cls.name, role)
                if kind != "association":
                    raise UserModelError(
                        f"snapshot link {role!r} is not an association of "
                        f"{instance.cls.name!r}"
                    )
                child = _Instance(schema.cls(target))
                instance.links[role] = child
                load(child, child_node)

        load(profile._root, data["root"])
        return profile

    def __repr__(self) -> str:
        return f"<UserProfile {self.user_id} ({self.schema.user_class.name})>"
