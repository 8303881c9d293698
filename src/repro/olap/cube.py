"""The cube a personalized view hands the BI tool.

A thin, immutable wrapper around :class:`~repro.olap.query.CubeQuery`:
pick the measures (:meth:`Cube.measures`) and the grouping levels
(:meth:`Cube.by`) over one fact, optionally restricted to a
personalized selection of fact rows (:meth:`Cube.with_selection`).
Every call returns a *new* :class:`Cube`; ``result()`` executes the
query.  Traffic rolls up and filters through GeoMDQL's ``BY`` and
``WHERE`` (:mod:`repro.olap.gmdql`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.mdm.model import Aggregator
from repro.olap.query import AggSpec, CellSet, CubeQuery, LevelRef, execute
from repro.storage.star import StarSchema

__all__ = ["Cube"]


class Cube:
    """A view over one fact of a star schema."""

    def __init__(
        self,
        star: StarSchema,
        fact: str | None = None,
        aggregations: Sequence[AggSpec] | None = None,
        group_by: Sequence[LevelRef] = (),
        selection: Iterable[int] | None = None,
    ) -> None:
        self.star = star
        self.fact = fact or star.schema.default_fact().name
        if aggregations is None:
            fact_def = star.schema.fact(self.fact)
            aggregations = [
                AggSpec(measure.default_aggregator, measure.name)
                for measure in fact_def.measures.values()
            ]
        self.aggregations = tuple(aggregations)
        self.group_by = tuple(group_by)
        self.selection = None if selection is None else tuple(selection)

    def _replace(self, **kwargs) -> "Cube":
        state = {
            "star": self.star,
            "fact": self.fact,
            "aggregations": self.aggregations,
            "group_by": self.group_by,
            "selection": self.selection,
        }
        state.update(kwargs)
        return Cube(**state)

    def measures(self, *specs: AggSpec) -> "Cube":
        """Replace the aggregation columns."""
        return self._replace(aggregations=tuple(specs))

    def by(self, *refs: str | LevelRef) -> "Cube":
        """Group by the given levels (replaces current grouping)."""
        parsed = tuple(
            ref if isinstance(ref, LevelRef) else LevelRef.parse(ref) for ref in refs
        )
        return self._replace(group_by=parsed)

    def with_selection(self, row_ids: Iterable[int] | None) -> "Cube":
        """Restrict to a personalized fact-row selection."""
        return self._replace(selection=None if row_ids is None else tuple(row_ids))

    # -- execution -----------------------------------------------------------

    @property
    def query(self) -> CubeQuery:
        return CubeQuery(
            fact=self.fact,
            aggregations=self.aggregations,
            group_by=self.group_by,
        )

    def result(self) -> CellSet:
        return execute(self.star, self.query, self.selection)

    def count(self) -> float:
        """Shortcut: COUNT(*) under the current selection."""
        cube = self._replace(
            aggregations=(AggSpec(Aggregator.COUNT, "*"),), group_by=()
        )
        result = cube.result()
        if not result.cells:
            return 0.0
        return result.value(())

    def __repr__(self) -> str:
        groups = ", ".join(str(g) for g in self.group_by) or "(none)"
        return f"<Cube {self.fact} by {groups}>"
