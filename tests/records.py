"""Packets and flows one record per row, for the tests and the references
they check ddsids against.  ddsids takes and returns column tables only;
`table_of` makes a `PacketTrace` or `FlowTable` of records and `records_of`
reads a table back as records, so two tables hold the same rows when their
records are equal, whatever the order of their address tables.  A side of a
split holds row numbers only; `side_table` makes the table of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, starmap
from operator import attrgetter
from typing import Iterable, NamedTuple

from ddsids.flowmeter import FEATURE_INDEX, FlowTable
from ddsids.preprocess import SplitSide
from ddsids.simnet import PacketTrace
from ddsids.tables import ColumnTable


class PacketRecord(NamedTuple):
    ts: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: int
    payload_len: int
    header_len: int
    flags: int


@dataclass
class FlowRecord:
    flow_id: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int
    start_time: float
    features: list[float]
    label: str = "benign"

    def feature(self, name: str) -> float:
        return self.features[FEATURE_INDEX[name]]


# The record type of each table type; its fields follow the table's columns.
RECORDS = {PacketTrace: PacketRecord, FlowTable: FlowRecord}


def table_of(kind: type[ColumnTable], records: Iterable) -> ColumnTable:
    """A `kind` table of `records`: its address table lists each address as
    it first shows in the source addresses, then in the destinations, and
    the address columns index it."""
    columns = list(zip(*map(attrgetter(*RECORDS[kind].__annotations__), records))) or [()] * len(kind.COLUMNS)
    where = [k for k, name in enumerate(kind.COLUMNS) if name in kind.ADDRESS_COLUMNS]
    index = {a: i for i, a in enumerate(dict.fromkeys(chain.from_iterable(columns[k] for k in where)))}
    for k in where:
        columns[k] = [index[a] for a in columns[k]]
    return kind(list(index), *columns)


def records_of(table: ColumnTable) -> list:
    columns = [getattr(table, name).tolist() for name in table.COLUMNS]
    for k, name in enumerate(table.COLUMNS):
        if name in table.ADDRESS_COLUMNS:
            columns[k] = [table.addresses[i] for i in columns[k]]
    return list(starmap(RECORDS[type(table)], zip(*columns)))


def side_table(flows: FlowTable, side: SplitSide) -> FlowTable:
    """The rows of `flows` one side of a split of it names, with the side's addresses."""
    return flows[side.rows].with_columns(addresses=side.addresses, src=side.src, dst=side.dst)
