"""Per-packet reference for the simulator's topic streams and DoS flood.

These are the loops `ddsids.simnet._TraceBuilder` ran before it drew its
jitters in blocks: a stream sends one batch, sends its ack on every
ACK_EVERY-th batch and draws the next step's jitter, one batch per turn; a
flood sends one datagram per turn.  The loop bodies are kept verbatim as
functions to be set on `_TraceBuilder` in place of its `stream` and `flood`
methods; they reach the builder only through its `emit`, `rng` and
`duration_us`.  `generate` run with them is the reference every trace is
checked against, column by column.
"""

from __future__ import annotations

ACK_EVERY = 8
ACK_PAYLOAD = 16


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
    ack_from_dst: bool = True,
) -> int:
    """Emit one topic batch per interval from start to end; the receiver
    acknowledges every ACK_EVERY-th batch.  Returns batches emitted."""
    t_us = start_us
    sent = 0
    while t_us < min(end_us, self.duration_us):
        if not self.emit(t_us, src, sport, dst, dport, payload):
            break
        sent += 1
        if ack_from_dst and sent % ACK_EVERY == 0:
            self.emit(t_us + 2000, dst, dport, src, sport, ACK_PAYLOAD)
        eps = float(self.rng.uniform(-jitter_scale, jitter_scale))
        t_us += int(round(interval_s * (1.0 + eps) * 1e6))
    return sent


def flood(self, start_us: int, end_us: int, src: int, sport: int, dst: int, dport: int, payload: int,
          gap_us: int) -> None:
    """One datagram every gap_us from start to end, as the DoS launch loop
    sent them."""
    t = start_us
    end = end_us
    while t < end:
        if not self.emit(t, src, sport, dst, dport, payload):
            break
        t += gap_us
