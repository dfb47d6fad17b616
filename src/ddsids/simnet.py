"""Deterministic discrete-event simulator for pub/sub datagram traffic.

One subnet (10.0.5.0/24) with the fixed cast:

* ``.4`` / ``.5``  data-plane hosts; in benign, dos and clone scenarios the
  subscriber sits on ``.4`` and five publisher instances on ``.5``; in the
  malsub scenario the publisher sits on ``.4`` and the genuine subscriber on
  ``.5``,
* ``.6``           the attacker in every attack scenario,
* ``.2`` / ``.3``  virtual routers, emitting chatter only in malsub traces.

Every participant (re)launch draws a fresh ephemeral source port, so each
launch becomes a new bidirectional session.  A session opens with a 4-packet
16-byte discovery handshake on the same port pair that carries the data,
followed by the receiver announcing its topic slice (8 bytes per topic key).
Publishers then serialize one topic batch per interval: each topic is an
8-byte key plus an 8-byte value, so a batch of n topics is a 16*n-byte
datagram.  Receivers acknowledge every 8th batch with a 16-byte datagram.
Per-launch topic counts mix a compact 50..60 profile with a log-uniform draw
up to ``TOPICS_PER_PUBLISHER``, so batch sizes span the fleet.

Fixed accounting decisions: every packet carries a 28-byte header (datagram
plus network header), zeroed TCP-style flags, protocol 17, and a 1-microsecond
clock resolution.  The DoS flood keeps a 1 ms inter-packet gap
(``DOS_GAP_S``) so inter-arrival statistics stay finite.

Every session has that one shape, opened by `_session`: the benign
publishers, the clone, the dos launches (which flood after the announcement
instead of streaming) and both subscribers of the malsub scenario.  The clone
keeps the genuine cadence and alternates between its two payloads: a filler
datagram of the maximum topic length and a forged topic batch whose false
values leave no visible trace at the metadata level.  The malicious
subscriber's sessions differ from the genuine one's only by address and
narrow topic slice.  `generate`, the one entry point, looks the scenario up in
a table of traffic functions; a trace is a pure function of (config, seed).
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import chain, islice

import numpy as np

SUBNET = "10.0.5."
ROUTER_HOSTS = (2, 3)
ATTACKER_HOST = 6
SUBNET_HOSTS = (*ROUTER_HOSTS, 4, 5, ATTACKER_HOST)
PROTO_UDP = 17
HEADER_LEN = 28
DISCOVERY_PAYLOAD = 16
ACK_PAYLOAD = 16
ACK_EVERY = 8
TOPIC_BYTES = 16  # 8-byte key + 8-byte value
SUBSCRIPTION_KEY_BYTES = 8
DOS_PAYLOAD = 256
MIN_TOPICS = 50

# The traffic model every scenario shares, read at call time.
PUBLISH_INTERVAL_S = 0.5  # a publisher's topic batch period
TOPICS_PER_PUBLISHER = 200  # the largest topic slice, and the genuine subscriber's
N_PUBLISHERS = 5  # benign publisher instances
BENIGN_RELAUNCH_PERIOD_S = 12.0  # a publisher cycle, before its jitter
DOS_GAP_S = 0.001  # between flood datagrams
DOS_ACTIVE_S = 0.08  # how long a dos launch floods
MALSUB_JOIN_DELAY_S = 0.3  # from a malicious subscriber's launch to its join

# Benign lifecycle texture (relative to BENIGN_RELAUNCH_PERIOD_S and
# PUBLISH_INTERVAL_S).
CYCLE_JITTER = (0.7, 1.3)
BENIGN_INTERVAL_JITTER_MAX = 0.01
RELAUNCH_DOWNTIME_S = 0.2
FIRST_DATA_OFFSET_S = 0.05
# Fraction of publisher relaunches that carry a compact batch (50..60 topics,
# heartbeat-style) instead of a draw over the full topic range.
COMPACT_BATCH_FRACTION = 0.25
# Fraction of clone launches that fall back to the 256-byte filler payload
# instead of forging a plausible topic batch.
CLONE_FILLER_FRACTION = 0.65

# The longest scenario a config may ask for, about ten times the longest at
# desk scale (clone, 8,500 s): a longer one has no bound on its packets.
MAX_DURATION_S = 86_400.0

SCENARIOS = ("benign", "dos", "clone", "malsub")
ATTACK_SCENARIOS = ("dos", "clone", "malsub")


PACKET_COLUMNS = ("ts", "src", "src_port", "dst", "dst_port", "proto", "payload_len", "header_len", "flags")
_ROW_BLOCK = 1 << 14  # rows simulated, turned into text or read from it at a time


def _address_codes(*columns: Sequence[str]) -> tuple[list[str], list[np.ndarray]]:
    """The distinct addresses of `columns`, in the order they first show, one
    column after the other, and each column's cells as indices into them."""
    index = {a: i for i, a in enumerate(dict.fromkeys(chain.from_iterable(columns)))}
    return list(index), [np.fromiter(map(index.__getitem__, c), np.int64, len(c)) for c in columns]


def decoded(codes: np.ndarray, texts: Sequence[str]) -> list[str]:
    """The text each code indexes in `texts`."""
    return list(map(texts.__getitem__, codes.tolist()))


class ColumnTable:
    """Rows held as columns, read-only.

    A subclass names its ``COLUMNS``, their ``DTYPES`` and ``SHAPES`` for a
    column holding a row of values per row.  The ``src`` and ``dst`` columns
    index ``addresses``, a small table of address strings, some perhaps
    unused.  A slice, a row mask or an array of row numbers yields a table of
    those rows.  A table keeps the arrays it is given behind read-only views.
    """

    COLUMNS: tuple[str, ...]
    DTYPES: tuple
    SHAPES: dict[str, tuple[int, ...]] = {}
    ADDRESS_COLUMNS = ("src", "dst")

    def __init__(self, addresses: Sequence[str], *columns):
        self.addresses = tuple(addresses)
        for name, dtype, values in zip(self.COLUMNS, self.DTYPES, columns, strict=True):
            shape = (len(columns[0]), *self.SHAPES.get(name, ()))
            values = np.asarray(values, dtype=dtype)
            values = values.view() if values.size else values.reshape(shape)
            if values.shape != shape:
                raise ValueError(f"{type(self).__name__} column {name} has shape {values.shape}, expected {shape}")
            values.flags.writeable = False
            setattr(self, name, values)

    @classmethod
    def empty(cls) -> "ColumnTable":
        return cls((), *[()] * len(cls.COLUMNS))

    @classmethod
    def from_coded(cls, columns: dict[str, np.ndarray], texts: dict[str, list[str]]) -> "ColumnTable":
        """A table from columns as `read_rows` gives them, by name: the
        address columns' codes into their own text tables recoded over the
        one table `_address_codes` merges from those, and any other text
        column decoded."""
        addresses, where = _address_codes(*(texts[name] for name in cls.ADDRESS_COLUMNS))
        columns = {**columns, **{name: w[columns[name]] for name, w in zip(cls.ADDRESS_COLUMNS, where)}}
        for name in texts.keys() - set(cls.ADDRESS_COLUMNS):
            columns[name] = decoded(columns[name], texts[name])
        return cls(addresses, *(columns[name] for name in cls.COLUMNS))

    @classmethod
    def concat(cls, tables: Sequence["ColumnTable"]) -> "ColumnTable":
        """The rows of `tables` one after another (`gathered`)."""
        addresses, columns = cls.gathered(tables, [np.arange(len(t)) for t in tables],
                                          np.arange(sum(map(len, tables))))
        return cls(addresses, *(columns[name] for name in cls.COLUMNS))

    @classmethod
    def gathered(cls, tables: Sequence["ColumnTable"], rows: Sequence[np.ndarray],
                 order: np.ndarray) -> tuple[list[str], dict[str, np.ndarray]]:
        """The address table and the columns, by name and still writable, of
        a table of the rows `rows[i]` of each of `tables` taken one table
        after another and then put in `order` (row j is row `order[j]` of
        those), over the tables' address tables merged by `_address_codes`.
        Each column is allocated once and filled a table at a time."""
        addresses, where = _address_codes(*(t.addresses for t in tables))
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        places = np.split(place, np.cumsum([len(r) for r in rows[:-1]]))
        columns = {}
        for name, dtype in zip(cls.COLUMNS, cls.DTYPES):
            column = columns[name] = np.empty((len(order), *cls.SHAPES.get(name, ())), dtype=dtype)
            for t, r, w, at in zip(tables, rows, where, places):
                values = getattr(t, name)[r]
                column[at] = w[values] if name in cls.ADDRESS_COLUMNS else values
        return addresses, columns

    def with_columns(self, addresses: Sequence[str] | None = None, **columns) -> "ColumnTable":
        """A table of the same type with the given columns, or address table, replaced."""
        return type(self)(self.addresses if addresses is None else addresses,
                          *(columns.get(name, getattr(self, name)) for name in self.COLUMNS))

    def __len__(self) -> int:
        return len(getattr(self, self.COLUMNS[0]))

    def __getitem__(self, rows: slice | np.ndarray) -> "ColumnTable":
        return self.with_columns(**{name: getattr(self, name)[rows] for name in self.COLUMNS})

    __iter__ = None  # not iterable: Python would otherwise index it by int, which it does not take


class PacketTrace(ColumnTable):
    """A packet trace held as columns, ``ts`` in seconds."""

    COLUMNS = PACKET_COLUMNS
    DTYPES = (np.float64,) + (np.int64,) * (len(PACKET_COLUMNS) - 1)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    duration: float
    relaunch_period: float = 1.0
    relaunch_count: int = 0
    rng_seed: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        # Written as `not x > 0`, so that NaN, which fails every comparison, is rejected too.
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not self.relaunch_period > 0:
            raise ValueError("relaunch_period must be positive")
        if not 0 <= self.relaunch_count <= 2000:
            raise ValueError("relaunch_count must be within 0..2000")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        for f in fields(self):
            if isinstance(value := getattr(self, f.name), float) and math.isinf(value):
                raise ValueError(f"{f.name} must be finite")
        if self.duration > MAX_DURATION_S:
            raise ValueError(f"duration must be at most {MAX_DURATION_S:g} s")


class _TraceBuilder:
    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.rng = np.random.default_rng(config.rng_seed)
        self.duration_us = int(round(config.duration * 1e6))
        # Six fields per emitted packet: t_us, src host, src port, dst host,
        # dst port, payload.
        self.events = array("q")
        self.used_ports: set[tuple[int, int]] = set()

    def ephemeral_port(self, host: int) -> int:
        while True:
            port = int(self.rng.integers(1024, 65536))
            if (host, port) not in self.used_ports:
                self.used_ports.add((host, port))
                return port

    def emit(self, t_us: int, src: int, sport: int, dst: int, dport: int, payload: int) -> bool:
        if not 0 <= t_us < self.duration_us:
            return False
        self.events.extend((t_us, src, sport, dst, dport, payload))
        return True

    def emit_rows(self, rows: np.ndarray) -> None:
        """Append a C-ordered (n, 6) int64 block of events that are already in
        emit order and inside the trace."""
        if len(rows):
            self.events.frombytes(memoryview(rows).cast("B"))

    def discovery(self, t_us: int, joiner: int, jport: int, peer: int, pport: int) -> None:
        for i in range(4):
            src, sport, dst, dport = (joiner, jport, peer, pport) if i % 2 == 0 else (peer, pport, joiner, jport)
            self.emit(t_us + i * 1000, src, sport, dst, dport, DISCOVERY_PAYLOAD)

    def stream(
        self,
        start_us: int,
        end_us: int,
        src: int,
        sport: int,
        dst: int,
        dport: int,
        payload: int,
        interval_s: float,
        jitter_scale: float,
    ) -> int:
        """Emit one topic batch per interval from start to end; the receiver
        acknowledges every ACK_EVERY-th batch.  Returns batches emitted.

        The interval jitters are drawn in blocks, and a block draws only
        jitters the one-at-a-time loop (send a batch, then draw the jitter of
        the next step) would draw.  No step reaches `longest`, so the k
        batches of a block all fall before the limit and each draws its one
        jitter; the rng therefore ends where the loop's would.  A block
        holds at most _ROW_BLOCK batches, which bounds its memory.  Needs
        jitter_scale < 1, which keeps every step positive.
        """
        limit = min(end_us, self.duration_us)
        longest = math.ceil(interval_s * (1.0 + jitter_scale) * 1e6) + 1
        t_us = start_us
        sent = 0
        while 0 <= t_us < limit:
            k = min((limit - 1 - t_us) // longest + 1, _ROW_BLOCK)
            eps = self.rng.uniform(-jitter_scale, jitter_scale, size=k)
            steps = np.rint(interval_s * (1.0 + eps) * 1e6).astype(np.int64)
            ends = t_us + np.cumsum(steps)
            # One slot pair per batch, in emit order: the batch, then its ack.
            rows = np.empty((k, 2, 6), dtype=np.int64)
            rows[:, 0, 0] = ends - steps
            rows[:, 0, 1:] = (src, sport, dst, dport, payload)
            rows[:, 1, 0] = rows[:, 0, 0] + 2000
            rows[:, 1, 1:] = (dst, dport, src, sport, ACK_PAYLOAD)
            keep = np.zeros((k, 2), dtype=bool)
            keep[:, 0] = True
            keep[(ACK_EVERY - 1 - sent) % ACK_EVERY :: ACK_EVERY, 1] = True
            keep[:, 1] &= rows[:, 1, 0] < self.duration_us
            self.emit_rows(rows[keep])
            sent += k
            t_us = int(ends[-1])
        return sent

    def flood(self, start_us: int, end_us: int, src: int, sport: int, dst: int, dport: int, payload: int,
              gap_us: int) -> None:
        """Emit one datagram every gap_us from start (>= 0) to end."""
        times = np.arange(start_us, min(end_us, self.duration_us), gap_us)
        rows = np.empty((len(times), 6), dtype=np.int64)
        rows[:, 0] = times
        rows[:, 1:] = (src, sport, dst, dport, payload)
        self.emit_rows(rows)

    def finish(self) -> PacketTrace:
        """The emitted packets ordered by (time, emit order).  Each column is
        gathered on its own by that order, so the trace owns its columns and
        keeps no copy of the event block alive."""
        events = np.frombuffer(self.events, dtype=np.int64).reshape(-1, 6)
        order = np.argsort(events[:, 0], kind="stable")
        ts = events[order, 0] / 1e6
        src, sport, dst, dport, payload = (events[order, j] for j in range(1, 6))
        hosts = np.union1d(np.unique(src), np.unique(dst))
        n = len(order)
        return PacketTrace(
            [f"{SUBNET}{h}" for h in hosts.tolist()], ts, np.searchsorted(hosts, src), sport,
            np.searchsorted(hosts, dst), dport, np.full(n, PROTO_UDP), payload, np.full(n, HEADER_LEN),
            np.zeros(n, np.int64),
        )


def _draw_topics(b: _TraceBuilder) -> int:
    """Per-launch topic count: a compact 50..60 batch for some launches,
    otherwise log-uniform up to TOPICS_PER_PUBLISHER."""
    if float(b.rng.uniform()) < COMPACT_BATCH_FRACTION:
        return int(b.rng.integers(MIN_TOPICS, 61))
    span = math.log(TOPICS_PER_PUBLISHER / MIN_TOPICS)
    return min(TOPICS_PER_PUBLISHER, int(round(MIN_TOPICS * math.exp(float(b.rng.uniform()) * span))))


def _cycle(b: _TraceBuilder) -> float:
    """A publisher cycle (s): the benign relaunch period, jittered."""
    return BENIGN_RELAUNCH_PERIOD_S * float(b.rng.uniform(*CYCLE_JITTER))


def _jitter(b: _TraceBuilder) -> float:
    """A stream's interval jitter scale."""
    return float(b.rng.uniform(0.0, BENIGN_INTERVAL_JITTER_MAX))


def _session(b: _TraceBuilder, t_us: int, pub: int, pub_port: int, sub: int, sub_port: int, n_topics: int,
             end_us: int | None = None, jitter: float = 0.0, payload: int | None = None) -> None:
    """One pub/sub session from t_us: the publisher's discovery handshake,
    the subscriber's announcement of its n_topics-key slice and, given
    end_us, the publisher's topic stream until then, of n_topics-topic
    batches unless `payload` says otherwise.  It draws only the stream's
    jitters, so a caller draws its arguments first, in its scenario's order."""
    b.discovery(t_us, pub, pub_port, sub, sub_port)
    b.emit(t_us + 5_000, sub, sub_port, pub, pub_port, n_topics * SUBSCRIPTION_KEY_BYTES)
    if end_us is not None:
        b.stream(t_us + int(FIRST_DATA_OFFSET_S * 1e6), end_us, pub, pub_port, sub, sub_port,
                 n_topics * TOPIC_BYTES if payload is None else payload, PUBLISH_INTERVAL_S, jitter)


def _attack_launches(cfg: ScenarioConfig) -> list[int]:
    """Launch times (us) for the attacker, one per malicious session."""
    launches = [int(round(k * cfg.relaunch_period * 1e6)) for k in range(cfg.relaunch_count)
                if k * cfg.relaunch_period + 0.01 < cfg.duration]
    if len(launches) < cfg.relaunch_count:
        raise ValueError(
            f"{cfg.scenario}: only {len(launches)} of {cfg.relaunch_count} malicious "
            f"sessions fit in duration {cfg.duration:.1f} s at relaunch_period "
            f"{cfg.relaunch_period:.3f} s (short by {cfg.relaunch_count - len(launches)})"
        )
    return launches


def _benign(b: _TraceBuilder) -> int:
    """N_PUBLISHERS publisher instances on .5 streaming topic batches to the
    subscriber on .4, each instance relaunching on a fresh port every cycle;
    returns the subscriber's port."""
    sub_port = b.ephemeral_port(4)
    for i in range(N_PUBLISHERS):
        t_us = int(round(i * 0.1 * 1e6))
        while t_us < b.duration_us:
            end_us = t_us + int(round(_cycle(b) * 1e6))
            n_topics = _draw_topics(b)
            jitter = _jitter(b)
            _session(b, t_us, 5, b.ephemeral_port(5), 4, sub_port, n_topics, end_us, jitter)
            t_us = end_us + int(RELAUNCH_DOWNTIME_S * 1e6)
    return sub_port


def _publisher_attack(b: _TraceBuilder) -> None:
    """dos and clone: the benign fleet, joined at each launch by the
    attacker as one more publisher.  The dos floods the subscriber; the
    clone matches the genuine rate, and some launches push the fixed
    256-byte filler while the rest forge a topic batch with false values
    that mirrors the announced slice, as a genuine publisher's would."""
    launches = _attack_launches(b.cfg)
    sub_port = _benign(b)
    for t_us in launches:
        port = b.ephemeral_port(ATTACKER_HOST)
        n_topics = _draw_topics(b)
        if b.cfg.scenario == "dos":
            _session(b, t_us, ATTACKER_HOST, port, 4, sub_port, n_topics)
            b.flood(t_us + 10_000, t_us + int(round(DOS_ACTIVE_S * 1e6)), ATTACKER_HOST, port, 4, sub_port,
                    DOS_PAYLOAD, int(round(DOS_GAP_S * 1e6)))
        else:
            end_us = t_us + int(round(_cycle(b) * 1e6))
            payload = DOS_PAYLOAD if float(b.rng.uniform()) < CLONE_FILLER_FRACTION else n_topics * TOPIC_BYTES
            _session(b, t_us, ATTACKER_HOST, port, 4, sub_port, n_topics, end_us, _jitter(b), payload)


def _malsub(b: _TraceBuilder) -> None:
    """The publisher on .4 opens one session per subscriber session: the
    genuine subscriber on .5, re-served each cycle with all topics, and the
    malicious one, which joins after a delay, harvests 50..60 of the topics
    for a limited window and leaves before the trace ends.  Router chatter,
    removed later by preprocessing, runs alongside."""
    launches = _attack_launches(b.cfg)
    mgmt_port = b.ephemeral_port(4)
    t_us = 0
    while t_us < b.duration_us:
        cycle_s = _cycle(b)
        jitter = _jitter(b)
        _session(b, t_us, 4, b.ephemeral_port(4), 5, b.ephemeral_port(5), TOPICS_PER_PUBLISHER,
                 t_us + int(round(cycle_s * 1e6)), jitter)
        t_us += int(round((cycle_s + RELAUNCH_DOWNTIME_S) * 1e6))

    join_delay_us = int(round(MALSUB_JOIN_DELAY_S * 1e6))
    for t_us in launches:
        t_us += join_delay_us
        active = min(_cycle(b), (b.duration_us - t_us) / 1e6 - 0.05)
        if active <= 0:
            active = 0.05
        n_topics = int(b.rng.integers(50, 61))
        jitter = _jitter(b)
        _session(b, t_us, 4, b.ephemeral_port(4), ATTACKER_HOST, b.ephemeral_port(ATTACKER_HOST), n_topics,
                 t_us + int(round(active * 1e6)), jitter)

    t_us = 0
    while t_us < b.duration_us:
        pa = b.ephemeral_port(2)
        pb = b.ephemeral_port(3)
        b.discovery(t_us, 2, pa, 3, pb)
        t = t_us + 50_000
        end = t_us + int(round(BENIGN_RELAUNCH_PERIOD_S * 1e6))
        sent = 0
        while t < end and b.emit(t, 2, pa, 3, pb, 48):
            sent += 1
            if sent % 4 == 0:
                b.emit(t + 3000, 3, pb, 2, pa, 48)
            t += 1_000_000
        pc = b.ephemeral_port(3)
        b.emit(t_us + 7_000, 3, pc, 4, mgmt_port, 64)
        b.emit(t_us + 9_000, 4, mgmt_port, 3, pc, 64)
        t_us = end + int(RELAUNCH_DOWNTIME_S * 1e6)


_SCENARIO_TRAFFIC = {"benign": _benign, "dos": _publisher_attack, "clone": _publisher_attack, "malsub": _malsub}


def generate(config: ScenarioConfig) -> PacketTrace:
    """The packet trace of the config's scenario, a pure function of the config."""
    b = _TraceBuilder(config)
    _SCENARIO_TRAFFIC[config.scenario](b)
    return b.finish()


PACKET_CSV_HEADER = "ts,src_ip,src_port,dst_ip,dst_port,proto,payload_len,header_len,flags"


_PAD = 0xFF  # pads a cell's bytes; no UTF-8 text holds it


def format_once(values, fmt) -> np.ndarray:
    """The cells (see `write_rows`) of ``fmt(v)`` for each value, each
    distinct value formatted once: the texts are the only Python objects made
    per value, and only per distinct value.  Floats are told apart by their
    bits, so -0.0 and every NaN payload keep their own text.  The texts are
    encoded by one join, as UTF-8 with surrogates passed, which decodes back
    to every str."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    texts = list(map(fmt, distinct.view(values.dtype).tolist()))
    joined = "".join(texts)
    data = np.frombuffer(joined.encode("utf-8", "surrogatepass"), np.uint8)
    lengths = map(len, texts) if len(data) == len(joined) else (len(t.encode("utf-8", "surrogatepass")) for t in texts)
    lengths = np.fromiter(lengths, np.int64, len(texts))
    width = int(lengths.max(initial=0))
    table = np.full((len(texts), width), _PAD, np.uint8)
    table[np.arange(width) >= width - lengths[:, None]] = data
    return table[inverse].reshape(*values.shape, width)


def _digits(magnitudes: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each uint64 as ASCII, right-aligned,
    the zeros before its first digit replaced by _PAD (0 keeps its digit)."""
    out = np.empty((len(magnitudes), width), np.uint8)
    for k in range(width - 1, -1, -1):
        quotient = magnitudes // np.uint64(10)
        out[:, k] = magnitudes - quotient * np.uint64(10) + np.uint64(ord("0"))
        if k < width - 1:
            np.copyto(out[:, k], _PAD, where=magnitudes == 0)
        magnitudes = quotient
    return out


def _width(magnitudes: np.ndarray) -> int:
    """The decimal digits of the largest uint64."""
    return len(str(int(magnitudes.max(initial=0))))


def _decimal_cells(values: np.ndarray, sep: str) -> np.ndarray:
    """The cells (see `write_rows`) of ``f"{v}{sep}"`` for each int64, by
    digit arithmetic, with no Python object per value."""
    negative = values < 0
    # -(-2**63) wraps to itself, whose bits read as the uint64 2**63.
    magnitudes = np.where(negative, -values, values).view(np.uint64)
    width = _width(magnitudes)
    cells = np.empty((len(values), 1 + width + len(sep)), np.uint8)
    cells[:, 0] = np.where(negative, ord("-"), _PAD)  # the padding between sign and digits drops out
    cells[:, 1 : width + 1] = _digits(magnitudes, width)
    cells[:, width + 1 :] = np.frombuffer(sep.encode(), np.uint8)
    return cells


def _seconds_cells(ts: np.ndarray) -> np.ndarray:
    """The cells (see `write_rows`) of ``f"{t:.6f},"`` for each float.

    A time t of n = rint(t * 1e6) microseconds with n / 1e6 == t, t >= 0
    without a sign bit and t < 2**33 s is written as ``<n // 10**6>.<n %
    10**6:06d>`` by digit arithmetic: t is then the double nearest n / 10**6,
    within half an ulp (at most 2**-21 s) of it, so rounding t's exact value
    to six decimals gives n, with no tie.  Every other time is formatted once
    per distinct value (`format_once`)."""
    fast = (ts >= 0) & (ts < 2.0**33) & ~np.signbit(ts)  # NaN fails the comparisons
    micros = np.rint(np.where(fast, ts, 0.0) * 1e6)
    fast &= micros / 1e6 == ts
    micros = micros.astype(np.uint64)
    seconds = micros // np.uint64(10**6)
    width = _width(seconds)
    cells = np.empty((len(ts), width + 8), np.uint8)
    cells[:, :width] = _digits(seconds, width)
    cells[:, width] = ord(".")
    cells[:, width + 1 : -1] = _digits(micros % np.uint64(10**6) + np.uint64(10**6), 7)[:, 1:]  # zero-padded
    cells[:, -1] = ord(",")
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = format_once(ts[slow], "{:.6f},".format)
        cells = np.pad(cells, ((0, 0), (max(0, texts.shape[1] - cells.shape[1]), 0)), constant_values=_PAD)
        cells[slow] = _PAD
        cells[slow, cells.shape[1] - texts.shape[1] :] = texts
    return cells


def write_rows(fh, columns: Sequence[tuple], block: int) -> None:
    """Write the rows of `columns`, `block` rows at a time, to the text file
    `fh`.  A column pairs a sequence, one entry (or, in a 2-D array, one row
    of entries) per row, with the function that turns a block of it into
    cells: a uint8 array with one more axis than the block, holding each
    entry's text, its separator included, as UTF-8 bytes among _PAD bytes.
    A block is its cells in row order with the padding dropped, decoded into
    one string and written at once: no Python object is made per cell."""
    for lo in range(0, len(columns[0][0]), block):
        cells = [cells_of(values[lo : lo + block]) for values, cells_of in columns]
        chars = np.concatenate([c.reshape(len(c), -1) for c in cells], axis=1)
        fh.write(str(chars[chars != _PAD], "utf-8", "surrogatepass"))


def write_packet_csv(trace: PacketTrace, path) -> None:
    # Each address is formatted once per trace; a block's address cells are rows of that table.
    address = format_once(np.arange(len(trace.addresses)), [a + "," for a in trace.addresses].__getitem__).__getitem__
    number = partial(_decimal_cells, sep=",")
    cells = [_seconds_cells, address, number, address, number, number, number, number, partial(_decimal_cells, sep="\n")]
    try:
        with open(path, "w") as fh:
            fh.write(PACKET_CSV_HEADER + "\n")
            write_rows(fh, [(getattr(trace, name), c) for name, c in zip(PACKET_COLUMNS, cells)], _ROW_BLOCK)
    except OSError as exc:
        raise OSError(f"cannot write packet csv {path}: {exc}") from exc


def _line_stats(path) -> tuple[int, int, bool]:
    """(lines, bytes in the longest line, whether a carriage return or a NUL
    occurs) of a file, read 1 MiB at a time."""
    lines = longest = start = size = 0  # `start`: the offset of the line being read
    odd = False
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + (size + 1)
            if len(ends):
                longest = max(longest, int(ends[0]) - start, int(np.diff(ends).max(initial=0)))
                start, lines = int(ends[-1]), lines + len(ends)
            size += len(chunk)
            odd = odd or b"\r" in chunk or b"\0" in chunk
    if size > start:
        lines, longest = lines + 1, max(longest, size - start)
    return lines, longest, odd


def tokenized_rows(lines: list[str], dtype: np.dtype, quotechar: str | None = None) -> np.ndarray | None:
    """A block of text lines read by numpy's C tokenizer into a structured
    array of `dtype`; None where that read could differ from the csv
    module's.  Its quoting is the csv module's (a quote opens a quoted field
    only as the field's first character), and it raises on a field count off
    the dtype's, a cell that is no number and an integer beyond 64 bits.  It
    skips blank lines and reads a quoted field on over a newline, so the rows
    must number the lines, and the last line must not end inside a quoted
    field, which the next block would go on with."""
    if quotechar:
        try:
            next(csv.reader(lines[-1:], quotechar=quotechar, strict=True), None)
        except csv.Error:
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of input with no rows
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=quotechar, ndmin=1)
    except (ValueError, UserWarning):
        return None
    return rows if len(rows) == len(lines) else None


def _gathered(blocks, dtype: np.dtype, rows: int) -> tuple[dict[str, np.ndarray], dict[str, list[str]]] | None:
    """The structured arrays of `dtype` in `blocks`, `rows` rows in all,
    written block by block into one contiguous array per field, and the
    table of each text field's distinct texts in the order they first show,
    the field's cells coded as int64 indices into it; None at a block that
    is None.  No cell's text outlives its block but as a table entry."""
    columns = {name: np.empty((rows, *dtype[name].shape), np.int64 if dtype[name] == object else dtype[name].base)
               for name in dtype.names}
    tables: dict[str, dict[str, int]] = {name: {} for name in dtype.names if dtype[name] == object}
    lo = 0
    for block in blocks:
        if block is None:
            return None
        for name, column in columns.items():
            cells = block[name]
            if name in tables:
                table = tables[name]
                for text in dict.fromkeys(cells):
                    table.setdefault(text, len(table))
                cells = np.fromiter(map(table.__getitem__, cells), np.int64, len(cells))
            column[lo : lo + len(block)] = cells
        lo += len(block)
    return columns, {name: list(table) for name, table in tables.items()}


_CELL_BLOCK = 1 << 12  # cells parsed at a time: few, so the csv module's row lists die young
_TEXT_BLOCK = 1 << 18  # bytes of whole lines the tokenizer reads at a time, _ROW_BLOCK lines at most
PORTS = range(1 << 16)
INT64 = range(-(1 << 63), 1 << 63)
LENGTHS = range(INT64.stop)


@contextmanager
def open_text(path, newline: str | None = None):
    """`path` open for reading as text; a byte that does not decode ends the
    read with a ValueError naming the path and the byte's line."""
    try:
        with open(path, newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _not_decoded(path, exc) from None


def _not_decoded(path, exc: UnicodeDecodeError) -> ValueError:
    """The rejection of a file that `exc` stopped decoding: the line, byte
    and column of its first byte that does not decode.  Lines end as the
    text readers end them, at a line feed, a carriage return or both."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        try:
            line.decode(exc.encoding)
        except UnicodeDecodeError as bad:
            return ValueError(f"{path}: line {lineno}: not UTF-8, byte 0x{line[bad.start]:02x} at column {bad.start + 1}")
    return ValueError(f"{path}: {exc}")


def _csv_reader(fh, quotechar: str | None):
    return csv.reader(fh, quotechar=quotechar) if quotechar else csv.reader(fh, quoting=csv.QUOTE_NONE)


def _column_views(rows, dtype: np.dtype) -> list[np.ndarray]:
    """One view per CSV column, in file order, into `rows`: a structured
    array of `dtype` or a mapping from its field names to arrays."""
    return [column for name in dtype.names
            for column in rows[name].reshape(len(rows[name]), math.prod(dtype[name].shape)).T]


def _row_fault(row: list[str], header: list[str], dtype: np.dtype, bounds: dict) -> tuple[int | None, str] | None:
    """(column, reason) of the first cell of a row of text that the readers
    reject, (None, "") for a field count off the header's, or None.  An
    integer column is bounded by its declared range or else by int64; a text
    column by its declared tuple of allowed values, if any."""
    if len(row) != len(header):
        return None, ""
    for c, (name, column, cell) in enumerate(zip(header, _column_views(np.zeros(0, dtype), dtype), row)):
        kind = column.dtype.kind
        bound = bounds.get(name, INT64 if kind == "i" else None)
        try:
            value = np.array([cell], column.dtype)[0]
        except ValueError:
            return c, "not an integer" if kind == "i" else "not a number"
        except OverflowError:  # an integer beyond 64 bits
            value = int(cell)
        if kind == "f" and not np.isfinite(value):
            return c, "non-finite value"
        if isinstance(bound, tuple) and value not in bound:
            return c, f"not one of {', '.join(bound)}"
        if isinstance(bound, range) and not bound.start <= value < bound.stop:
            return c, f"outside {bound.start}..{bound.stop - 1}"


def _first_bad_row(columns: dict[str, np.ndarray], texts: dict[str, list[str]], header: list[str], dtype: np.dtype,
                   bounds: dict) -> int | None:
    """The first row of `_gathered` columns with a non-finite float or a
    value outside its column's bound, or None."""
    fields = [name for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    bad = np.zeros(len(columns[dtype.names[0]]), bool)
    for name, field, column in zip(header, fields, _column_views(columns, dtype)):
        bound = bounds.get(name)
        if column.dtype.kind == "f":
            bad |= ~np.isfinite(column)
        if isinstance(bound, tuple):
            bad |= np.array([text not in bound for text in texts[field]], bool)[column]
        elif bound is not None:
            bad |= (column < bound.start) | (column >= bound.stop)
    return int(np.argmax(bad)) if bad.any() else None


def _parsed_rows(reader, header: list[str], dtype: np.dtype, bounds: dict) -> tuple[np.ndarray, int | None]:
    """The rows of the csv reader `reader` in a structured array of `dtype`,
    _CELL_BLOCK cells at a time (numpy parses a number cell as Python's int
    or float does), and None; at a block that does not parse, the rows
    before it and the first of its rows that `_row_fault` rejects."""
    width = len(header)
    blocks = [np.zeros(0, dtype)]
    while cells := list(islice(reader, max(1, _CELL_BLOCK // width))):
        flat = list(chain.from_iterable(cells))
        block = np.zeros(len(cells), dtype)  # zeros, not empty: much faster with object fields
        try:
            if set(map(len, cells)) != {width}:
                raise ValueError("a field count off the header's")
            for c, column in enumerate(_column_views(block, dtype)):
                column[:] = flat[c::width]
        except (ValueError, OverflowError):
            rows = np.concatenate(blocks)
            return rows, len(rows) + next(r for r, row in enumerate(cells) if _row_fault(row, header, dtype, bounds))
        blocks.append(block)
    return np.concatenate(blocks), None


def read_rows(path, row_type, quotechar: str | None, bounds: dict[str, range | tuple[str, ...]]
              ) -> tuple[list[str], dict[str, np.ndarray], dict[str, list[str]]]:
    """The header and the rows of the CSV file `path` (`quotechar` None: no
    quoting), the rows as the columns and text tables of `_gathered`, by the
    fields of the structured dtype (a text, float64 or int64 field per column
    or run of columns) that `row_type(path, header)` gives or raises for the
    header.  numpy's C tokenizer reads the rows a block of lines at a time
    (as many lines as `_TEXT_BLOCK` bytes hold at the longest line's length,
    `_ROW_BLOCK` at most) where it reads every block as the csv module would,
    else the csv module reads the file.  A rejection names the path and line,
    and the column, reason and text of a cell `_row_fault` rejects under the
    bounds `bounds` declares, or the line of the first byte that is not
    UTF-8."""
    lines, longest, odd = _line_stats(path)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or sys.maxsize
    # The csv module asks for newline="", but a file with no carriage return
    # (`odd` flags one, or a NUL) reads the same in the default mode, in
    # which numpy's tokenizer is faster.
    with open_text(path, newline="" if odd else None) as fh:
        reader = _csv_reader(fh, quotechar)
        try:
            header = next(reader, [])
            dtype = row_type(path, header)
            read, r = None, None
            # A carriage return ends a line for the tokenizer too, and a NUL
            # is rejected by the csv module before Python 3.11; a line beyond
            # the csv field size or Python's int digit limit is the csv
            # module's to reject.
            if not odd and longest <= min(csv.field_size_limit(), digits):
                block_lines = max(1, min(_ROW_BLOCK, _TEXT_BLOCK // longest))
                blocks = iter(lambda: list(islice(fh, block_lines)), [])
                read = _gathered((tokenized_rows(block, dtype, quotechar) for block in blocks), dtype,
                                 lines - reader.line_num)
            if read is None:
                fh.seek(0)
                reader = _csv_reader(fh, quotechar)
                rows, r = _parsed_rows(islice(reader, 1, None), header, dtype, bounds)
                read = _gathered([rows], dtype, len(rows))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        columns, texts = read
        bad = _first_bad_row(columns, texts, header, dtype, bounds)
        r = r if bad is None else bad
        if r is not None:
            # Found only now, as the tokenizer keeps neither lines nor text;
            # on the files it reads, row r sits on line header_lines + 1 + r.
            fh.seek(0)
            reader = _csv_reader(fh, quotechar)
            next(islice(reader, r + 1, r + 1), None)  # the header and the rows before row r
            line, row = reader.line_num + 1, next(reader)
            c, reason = _row_fault(row, header, dtype, bounds)
            if c is None:
                raise ValueError(f"{path}: line {line} has {len(row)} fields, expected {len(header)}")
            raise ValueError(f"{path}: line {line}, column {header[c]!r}: {reason} {row[c]!r}")
    return header, columns, texts


def _packet_row(path, header: list[str]) -> np.dtype:
    if header != PACKET_CSV_HEADER.split(","):
        raise ValueError(f"{path}: unexpected packet csv header {','.join(header)!r}")
    return np.dtype([(name, object if name in ColumnTable.ADDRESS_COLUMNS else dtype)
                     for name, dtype in zip(PACKET_COLUMNS, PacketTrace.DTYPES)])


def read_packet_csv(path) -> PacketTrace:
    """Inverse of write_packet_csv, through read_rows; ports lie in 0..65535
    and lengths are non-negative."""
    bounds = {"src_port": PORTS, "dst_port": PORTS, "payload_len": LENGTHS, "header_len": LENGTHS}
    _, columns, texts = read_rows(path, _packet_row, None, bounds)
    return PacketTrace.from_coded(columns, texts)


def parsed(text: str, kind=float, finite: bool = True):
    """`kind(text)` for kind str, int, float or float.fromhex, rejected with
    the reasons the CSV readers give: not an integer, not a number, non-finite."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"not {'an integer' if kind is int else 'a number'} {text!r}") from None
    if finite and isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def load_scenario_config(path) -> ScenarioConfig:
    """Parse a key = value scenario file; '#' starts a comment.  Each key is
    a ScenarioConfig field, read by its declared type; a rejection names the
    path, and the line and field of a value that does not parse, a
    non-finite float, an unknown or repeated key and a byte that is not
    UTF-8."""
    types = {f.name: {"str": str, "int": int, "float": float}[f.type] for f in fields(ScenarioConfig)}
    kwargs: dict = {}
    lines: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                if key not in types:
                    raise ValueError(f"unknown scenario field {key!r}")
                if key in lines:
                    raise ValueError(f"repeated, first set on line {lines[key]}")
                lines[key], kwargs[key] = lineno, parsed(value, types[key])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}, field {key!r}: {exc}") from None
    missing = [f.name for f in fields(ScenarioConfig) if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise ValueError(f"{path}: missing field {missing[0]!r}")
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_scenario_config(config: ScenarioConfig, path) -> None:
    """Writes each field of the config, in declaration order."""
    with open(path, "w") as fh:
        for f in fields(ScenarioConfig):
            value = getattr(config, f.name)
            fh.write(f"{f.name} = {value!r}\n" if isinstance(value, float) else f"{f.name} = {value}\n")
