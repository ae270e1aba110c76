"""The video warehouse: a named collection of tables plus standard schemas."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import QueryError
from repro.warehouse.query import Query
from repro.warehouse.table import Column, Table


class VideoWarehouse:
    """A collection of named tables holding extracted video entities.

    The warehouse ships with factory methods for the standard V-ETL schemas
    used by the example workloads (detections, tracks, sentiment labels), but
    arbitrary tables can be created as well.
    """

    def __init__(self):
        self._tables: Dict[str, Table] = {}

    # ------------------------------------------------------------------ #
    # Table management
    # ------------------------------------------------------------------ #
    def create_table(self, name: str, schema: Sequence[Column]) -> Table:
        if name in self._tables:
            raise QueryError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise QueryError(f"unknown table {name!r}; available: {sorted(self._tables)}")
        return self._tables[name]

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise QueryError(f"unknown table {name!r}")
        del self._tables[name]

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def query(self, name: str) -> Query:
        """Start a query over the named table."""
        return Query(self.table(name))

    # ------------------------------------------------------------------ #
    # Standard V-ETL schemas
    # ------------------------------------------------------------------ #
    def create_detections_table(self, name: str = "detections") -> Table:
        """Table of per-segment object detections (the EV example's table)."""
        return self.create_table(
            name,
            [
                Column("camera_id", str),
                Column("segment_index", int),
                Column("timestamp", float),
                Column("category", str),
                Column("count", int),
                Column("mean_confidence", float),
            ],
        )

    def create_tracks_table(self, name: str = "tracks") -> Table:
        """Table of tracked-object counts per segment."""
        return self.create_table(
            name,
            [
                Column("camera_id", str),
                Column("segment_index", int),
                Column("timestamp", float),
                Column("tracked_objects", int),
                Column("lost_tracks", int),
                Column("mean_certainty", float),
            ],
        )

    def create_sentiment_table(self, name: str = "sentiments") -> Table:
        """Table of per-stream sentiment labels (MOSEI workload)."""
        return self.create_table(
            name,
            [
                Column("stream_id", str),
                Column("segment_index", int),
                Column("timestamp", float),
                Column("sentiment", str),
                Column("certainty", float),
            ],
        )
