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

import math
from array import array
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .parallel import spread_rows
from .tables import (IPV4, LENGTHS, PORTS, ROW_BLOCK, ColumnTable, _decimal_cells, _seconds_cells, create_text,
                     format_once, open_text, parsed, read_rows, write_rows)

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
        holds at most ROW_BLOCK batches, which bounds its memory.  Needs
        jitter_scale < 1, which keeps every step positive.
        """
        limit = min(end_us, self.duration_us)
        longest = math.ceil(interval_s * (1.0 + jitter_scale) * 1e6) + 1
        t_us = start_us
        sent = 0
        while 0 <= t_us < limit:
            k = min((limit - 1 - t_us) // longest + 1, ROW_BLOCK)
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


def write_packet_csv(trace: PacketTrace, path) -> None:
    # Each address is formatted once per trace; a block's address cells are rows of that table.
    address = format_once(np.arange(len(trace.addresses)), [a + "," for a in trace.addresses].__getitem__).__getitem__
    number = partial(_decimal_cells, sep=",")
    cells = [_seconds_cells, address, number, address, number, number, number, number, partial(_decimal_cells, sep="\n")]
    try:
        with create_text(path) as fh:
            fh.write(PACKET_CSV_HEADER + "\n")
            write_rows(fh, [(getattr(trace, name), c) for name, c in zip(PACKET_COLUMNS, cells)], ROW_BLOCK,
                       spread_rows)
    except OSError as exc:
        raise OSError(f"cannot write packet csv {path}: {exc}") from exc


def _packet_row(path, header: list[str]) -> np.dtype:
    if header != PACKET_CSV_HEADER.split(","):
        raise ValueError(f"{path}: unexpected packet csv header {','.join(header)!r}")
    return np.dtype([(name, object if name in ColumnTable.ADDRESS_COLUMNS else dtype)
                     for name, dtype in zip(PACKET_COLUMNS, PacketTrace.DTYPES)])


def read_packet_csv(path) -> PacketTrace:
    """Inverse of write_packet_csv, through read_rows; addresses are IPv4,
    ports lie in 0..65535 and lengths are non-negative."""
    bounds = {"src_ip": IPV4, "dst_ip": IPV4, "src_port": PORTS, "dst_port": PORTS, "payload_len": LENGTHS,
              "header_len": LENGTHS}
    _, columns, texts = read_rows(path, _packet_row, None, bounds, spread_rows)
    return PacketTrace.from_coded(columns, texts)


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
    with create_text(path) as fh:
        for f in fields(ScenarioConfig):
            value = getattr(config, f.name)
            fh.write(f"{f.name} = {value!r}\n" if isinstance(value, float) else f"{f.name} = {value}\n")
