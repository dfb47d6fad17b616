"""Row-at-a-time reference for the packet, flow and dataset CSV writers.

These are the writers ddsids used before it formatted each distinct value
of a block once: one `format` or `repr` call per cell and one line per row.
The bodies are kept verbatim; only the names they read (column tables,
headers, the trace class) come from ddsids.  The writers' output is checked
against them byte for byte.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ddsids.flowmeter import FEATURE_NAMES, LABEL_NAME, METADATA_NAMES, FlowRecord
from ddsids.preprocess import Dataset
from ddsids.simnet import PACKET_COLUMNS, PACKET_CSV_HEADER, PacketRecord, PacketTrace

_ROW_BLOCK = 1 << 14


def write_packet_csv(trace: Iterable[PacketRecord], path) -> None:
    if not isinstance(trace, PacketTrace):
        trace = PacketTrace.from_records(trace)
    addresses = np.array(trace.addresses, dtype=object)
    row = "{:.6f},{},{},{},{},{},{},{},{}\n".format
    try:
        with open(path, "w") as fh:
            fh.write(PACKET_CSV_HEADER + "\n")
            for lo in range(0, len(trace), _ROW_BLOCK):
                rows = slice(lo, lo + _ROW_BLOCK)
                columns = [getattr(trace, name)[rows] for name in PACKET_COLUMNS]
                columns[1], columns[3] = addresses[columns[1]], addresses[columns[3]]
                fh.writelines(map(row, *(c.tolist() for c in columns)))
    except OSError as exc:
        raise OSError(f"cannot write packet csv {path}: {exc}") from exc


def write_flow_csv(flows: Iterable[FlowRecord], path) -> None:
    header = METADATA_NAMES + FEATURE_NAMES + [LABEL_NAME]
    with open(path, "w") as fh:
        fh.write(",".join(f'"{h}"' for h in header) + "\n")
        for f in flows:
            meta = [f.flow_id, f.src_ip, str(f.src_port), f.dst_ip, str(f.dst_port), repr(f.start_time)]
            fh.write(",".join(f'"{m}"' for m in meta))
            fh.write("," + ",".join(repr(v) for v in f.features))
            fh.write(f',"{f.label}"\n')


def write_dataset_csv(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f'"{n}"' for n in dataset.feature_names) + ',"Label"\n')
        for row, lab in zip(dataset.matrix, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f',"{lab}"\n')
