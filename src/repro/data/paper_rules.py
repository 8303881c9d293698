"""The personalization rules of Section 5, verbatim (modulo two fixes).

Fixes relative to the paper's listings:

1. **Missing ``endIf``** — the printed ``TrainAirportCity`` rule closes
   the outer ``If`` with ``endWhen`` only; the grammar (and the paper's
   other rules) require an explicit ``endIf``, which is restored here.
2. **City spatiality** — Examples 5.2/5.3 read ``City`` geometries
   (``GeoMD.Store.City.geometry``) but no printed rule ever spatializes
   the City level (Example 5.1 only covers Store and the Airport layer).
   :data:`ADD_CITY_SPATIALITY` is the one-line schema rule that the
   paper's scenario implies; it is applied before Example 5.3 runs.
"""

from __future__ import annotations

__all__ = [
    "ADD_SPATIALITY",
    "ADD_CITY_SPATIALITY",
    "FIVE_KM_STORES",
    "INT_AIRPORT_CITY",
    "TRAIN_AIRPORT_CITY",
    "ALL_PAPER_RULES",
]

#: Example 5.1 — Spatial Schema Rule.
ADD_SPATIALITY = """\
Rule:addSpatiality When SessionStart do
  If (SUS.DecisionMaker.dm2role.name='RegionalSalesManager') then
    AddLayer('Airport', POINT)
    BecomeSpatial(MD.Sales.Store.geometry, POINT)
  endIf
endWhen
"""

#: The schema rule the paper's scenario implies but never prints (fix 2).
ADD_CITY_SPATIALITY = """\
Rule:addCitySpatiality When SessionStart do
  If (SUS.DecisionMaker.dm2role.name='RegionalSalesManager') then
    BecomeSpatial(MD.Sales.Store.City.geometry, POINT)
  endIf
endWhen
"""

#: Example 5.2 — Spatial Instance Rule.
FIVE_KM_STORES = """\
Rule:5kmStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry,
        SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen
"""

#: Example 5.3, first rule — acquisition of the user's spatial interest.
INT_AIRPORT_CITY = """\
Rule:IntAirportCity When
  SpatialSelection(GeoMD.Store.City,
    Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km) do
  SetContent(SUS.DecisionMaker.dm2airportcity.degree,
    SUS.DecisionMaker.dm2airportcity.degree + 1)
endWhen
"""

#: Example 5.3, second rule — threshold-triggered train-connection widening
#: (with the restored ``endIf``, fix 1).
TRAIN_AIRPORT_CITY = """\
Rule:TrainAirportCity When SessionStart do
  If (SUS.DecisionMaker.dm2airportcity.degree > threshold) then
    AddLayer('Train', LINE)
    Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport)
      If (Distance(Intersection(Intersection(t.geometry, c.geometry),
          a.geometry)) < 50km) then
        SelectInstance(c)
      endIf
    endForeach
  endIf
endWhen
"""

#: Rule ids in the paper's presentation order.
ALL_PAPER_RULES: dict[str, str] = {
    "addSpatiality": ADD_SPATIALITY,
    "addCitySpatiality": ADD_CITY_SPATIALITY,
    "5kmStores": FIVE_KM_STORES,
    "IntAirportCity": INT_AIRPORT_CITY,
    "TrainAirportCity": TRAIN_AIRPORT_CITY,
}
