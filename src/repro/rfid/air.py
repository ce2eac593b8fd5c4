"""Air-interface requests and the engines that execute them.

Every batchable protocol in this repository — BFCE's probe → rough →
plan → accurate sequence, LOF, ZOE and SRC — is written exactly once, as a
**protocol generator**: it yields one :class:`AirRequest` per reader↔tag
exchange (a BFCE bit-slot frame, a run of lottery frames, a framed-ALOHA
frame, a batch of ZOE zero/one slots), receives the observation, and
returns its result.  All adaptive rules (probe steps, retry budgets,
re-planning) live in the generator; no engine re-implements them.

Three engines drive the same generators:

* **serial** — :func:`run_protocol` on an event
  :class:`~repro.rfid.reader.Reader`: each request runs on its own
  (:meth:`AirRequest.run`) against the real tag population;
* **analytic** — :func:`run_protocol` on an
  :class:`~repro.rfid.occupancy.AnalyticReader`: each request samples its
  observation from the exact distribution (:meth:`AirRequest.run_analytic`)
  in time independent of n;
* **batched** — :func:`run_lockstep` holds one generator per trial, each
  with its own event reader (seed stream + ledger), and executes every
  step's requests that share a :meth:`~AirRequest.batch_key` as one call to
  a batched kernel (:meth:`AirRequest.run_batch`).

Bit-equivalence of batched to serial holds because ``run_batch`` meters the
same messages on each trial's ledger, and draws the same values from each
trial's seed stream in the same order, as ``run`` would — only the
population-sized work is fused.  A request kind without a batched kernel
inherits the default ``run_batch``, which simply runs each trial's request
in turn.  Protocols never hold a trace span open across a ``yield``: the
drivers open the ``frame`` / ``frame.batch`` spans around each execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Hashable, Sequence

import numpy as np

from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from .frames import run_bfce_frame_batch
from .tags import TagPopulation

if TYPE_CHECKING:  # pragma: no cover - import cycle (core imports rfid)
    from ..core.config import BFCEConfig

__all__ = ["AirRequest", "BFCEFrame", "Protocol", "run_lockstep", "run_protocol"]

#: A protocol generator: yields requests, receives observations, returns a result.
Protocol = Generator["AirRequest", object, object]


class AirRequest:
    """One reader↔tag exchange yielded by a protocol generator.

    Subclasses are frozen dataclasses carrying the exchange's parameters
    and a ``phase`` label (used for ledger attribution and tracing).
    """

    phase: str

    def batch_key(self) -> Hashable:
        """Requests with equal keys may run as one :meth:`run_batch` call."""
        return (type(self), self.phase)

    def run(self, reader):
        """Execute on an event :class:`~repro.rfid.reader.Reader`."""
        raise NotImplementedError

    def run_analytic(self, reader):
        """Execute on an :class:`~repro.rfid.occupancy.AnalyticReader`."""
        return self.run(reader)

    @classmethod
    def run_batch(
        cls, population: TagPopulation, readers: Sequence, requests: Sequence
    ) -> list:
        """Execute many trials' same-key requests; one observation per trial.

        The default has no batched kernel and runs each request in turn.
        """
        return [request.run(reader) for reader, request in zip(readers, requests)]

    def trace_attrs(self, observation) -> dict:
        """Tags for the ``frame`` span around this request's execution."""
        return {}

    @classmethod
    def batch_trace_attrs(cls, requests: Sequence, observations: Sequence) -> dict:
        """Tags for the ``frame.batch`` span around one :meth:`run_batch` call."""
        return {}


@dataclass(frozen=True)
class BFCEFrame(AirRequest):
    """One BFCE round: the phase broadcast, ``k`` fresh seeds and a frame.

    The frame is announced at ``config.w`` slots with persistence
    ``pn / config.pn_denom`` and sensed for its first ``observe_slots``
    slots.  Observation: the number of idle slots seen (ρ̄ is that count
    over ``observe_slots``).
    """

    config: "BFCEConfig"
    pn: int
    observe_slots: int
    phase: str

    def batch_key(self) -> Hashable:
        cfg = self.config
        return (BFCEFrame, cfg.w, cfg.k, self.observe_slots, self.phase)

    def run(self, reader) -> int:
        cfg = self.config
        reader.broadcast(cfg.phase_message, phase=self.phase)
        frame = reader.sense_frame(
            w=cfg.w,
            seeds=reader.fresh_seeds(cfg.k),
            p_n=self.pn,
            observe_slots=self.observe_slots,
            phase=self.phase,
        )
        return frame.ones

    @classmethod
    def run_batch(cls, population, readers, requests) -> list[int]:
        cfg = requests[0].config
        slots = requests[0].observe_slots
        seeds = np.array([reader.fresh_seeds(cfg.k) for reader in readers], dtype=np.uint64)
        pns = np.array([request.pn for request in requests], dtype=np.int64)
        batch = run_bfce_frame_batch(
            population, w=cfg.w, seeds=seeds, p_n=pns, observe_slots=slots
        )
        for reader, request in zip(readers, requests):
            reader.broadcast(request.config.phase_message, phase=request.phase)
            reader.ledger.record_uplink(slots, phase=request.phase, label="frame")
        ones = batch.blooms.sum(axis=1)
        idle = int(ones.sum())
        _metrics.inc("frame.count", len(readers))
        _metrics.inc("frame.slots.idle", idle)
        _metrics.inc("frame.slots.busy", len(readers) * slots - idle)
        return ones.tolist()

    def trace_attrs(self, observation: int) -> dict:
        return {
            "pn": self.pn,
            "slots": self.observe_slots,
            "idle_slots": observation,
            "rho": observation / self.observe_slots,
        }

    @classmethod
    def batch_trace_attrs(cls, requests, observations) -> dict:
        return {"slots": requests[0].observe_slots, "idle_slots": sum(observations)}


def run_protocol(protocol: Protocol, reader):
    """The serial and analytic engines: run ``protocol`` on one reader.

    Each yielded request executes through ``reader.execute`` — the event
    :class:`~repro.rfid.reader.Reader` or the
    :class:`~repro.rfid.occupancy.AnalyticReader` — and its observation is
    sent back; the generator's return value is returned.
    """
    observation = None
    while True:
        try:
            request = protocol.send(observation)
        except StopIteration as done:
            return done.value
        with _span("frame", phase=request.phase) as sp:
            observation = reader.execute(request)
            if sp:
                sp.set(**request.trace_attrs(observation))


def run_lockstep(
    protocols: Sequence[Protocol], readers: Sequence, population: TagPopulation
) -> list:
    """The batched engine: advance one protocol per trial in lockstep.

    ``protocols[t]`` runs against ``readers[t]`` (an event reader over
    ``population`` holding trial ``t``'s seed stream and ledger).  Each step
    executes the waiting requests of one batch key as a single
    :meth:`AirRequest.run_batch` call: the key first seen earliest goes
    first, so trials that finished a phase wait for the rest (BFCE's probe
    rounds all batch before any rough frame, rough before accurate).  Each
    trial's observations — and so its whole execution — are identical to
    :func:`run_protocol` on its reader.  Returns the results in trial order.
    """
    results: list = [None] * len(protocols)
    first_seen: dict[Hashable, int] = {}
    waiting: dict[Hashable, list[tuple[int, AirRequest]]] = {}

    def advance(t: int, observation) -> None:
        try:
            request = protocols[t].send(observation)
        except StopIteration as done:
            results[t] = done.value
            return
        key = request.batch_key()
        first_seen.setdefault(key, len(first_seen))
        waiting.setdefault(key, []).append((t, request))

    for t in range(len(protocols)):
        advance(t, None)
    while waiting:
        group = waiting.pop(min(waiting, key=first_seen.__getitem__))
        requests = [request for _, request in group]
        kind = type(requests[0])
        with _span(
            "frame.batch", kind=kind.__name__, phase=requests[0].phase, trials=len(group)
        ) as sp:
            observations = kind.run_batch(
                population, [readers[t] for t, _ in group], requests
            )
            if sp:
                sp.set(**kind.batch_trace_attrs(requests, observations))
        for (t, _), observation in zip(group, observations):
            advance(t, observation)
    return results
