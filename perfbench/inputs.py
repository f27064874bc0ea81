"""Seeded input generators: every input a workload feeds the program is
a pure function of the benchmark's ``--seed``.

* the WATERS corpus of ``corpus_sweep`` (``repro.synth.corpus``);
* the deep-window family of ``deep_window``, built here;
* the systems, arrival schedule and cold/warm mix of ``daemon_mixed``;
* the soak system of ``sim_soak`` (``repro.synth.soak``).

Each generator also returns a digest of what it produced, which the
report records so two runs can be shown to have measured the same
inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro import PeriodicModel, SporadicModel, SystemBuilder
from repro.analysis import analyze_latency
from repro.model import System
from repro.model.serialization import canonical_system_json, system_to_dict, system_to_json
from repro.synth.corpus import CorpusSpec, generate_corpus, generate_entry
from repro.synth.soak import soak_system


def digest_texts(texts: Sequence[str]) -> str:
    """SHA-256 over a sequence of texts (length-framed)."""
    hasher = hashlib.sha256()
    for text in texts:
        data = text.encode("utf-8")
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# corpus_sweep
# ----------------------------------------------------------------------
def write_corpus(seed: int, count: int, root: Path) -> str:
    """Generate the WATERS corpus under ``root``; returns its manifest
    digest (the corpus identity)."""
    spec = CorpusSpec(count=count, seed=seed, family="waters")
    return generate_corpus(spec, str(root)).manifest_digest


# ----------------------------------------------------------------------
# deep_window
# ----------------------------------------------------------------------
#: Sporadic overload ISRs per system, cycled so every family has the
#: same mix of shallow and deep combination spaces.
ISR_COUNTS = (6, 7, 8, 9)


def _deep_system(params: Dict, deadline: float) -> System:
    builder = SystemBuilder(params["name"], allow_shared_priorities=True)
    builder.chain("victim", PeriodicModel(params["period"]), deadline=deadline)
    builder.task("victim.a", priority=2, wcet=params["wcet_a"])
    builder.task("victim.b", priority=3, wcet=params["wcet_b"])
    builder.chain("heavy", PeriodicModel(params["heavy_period"]), deadline=params["heavy_period"])
    builder.task("heavy.a", priority=5, wcet=params["heavy_wcet"])
    for index, (min_distance, wcet) in enumerate(params["isrs"]):
        name = f"isr{index:02d}"
        builder.chain(name, SporadicModel(min_distance), overload=True)
        builder.task(f"{name}.t", priority=10 + index, wcet=wcet)
    return builder.build()


#: Fractional part of the golden ratio: successive multiples spread the
#: victims' deadlines evenly between their typical and full WCL.
_GOLDEN = 0.6180339887498949


def deep_window_system(
    rng: random.Random, index: int, place: float
) -> Tuple[System, float, float]:
    """One deep-window system: a periodic victim, one heavy
    long-period interferer that keeps its busy window open for dozens
    of activations, and 6-9 sporadic overload ISRs.  The victim's
    deadline lies strictly between its typical WCL (overload abstracted
    away) and its full WCL, so it misses some deadlines but only
    boundedly many: it classifies ``weakly-hard``.  ``place`` in [0, 1)
    sets where: 0.05 of the way from the typical WCL up to 0.95.

    Returns ``(system, typical_wcl, full_wcl)``.
    """
    while True:
        heavy_period = rng.randint(10, 14) * 1000
        isr_count = ISR_COUNTS[index % len(ISR_COUNTS)]
        params = {
            "name": f"deep-{index:03d}",
            "period": rng.choice((90, 100, 110, 120)),
            "wcet_a": rng.randint(18, 30),
            "wcet_b": rng.randint(10, 20),
            "heavy_period": heavy_period,
            "heavy_wcet": int(heavy_period * rng.uniform(0.38, 0.44)),
            "isrs": [
                (rng.randint(50, 80) * 1000 + 500 * i, rng.randint(15, 40))
                for i in range(isr_count)
            ],
        }
        probe = _deep_system(params, math.inf)
        victim = probe["victim"]
        typical = analyze_latency(probe, victim, include_overload=False).wcl
        full = analyze_latency(probe, victim, include_overload=True).wcl
        if full - typical >= 1.0:
            break
    deadline = round(typical + (full - typical) * (0.05 + 0.9 * place), 3)
    return _deep_system(params, deadline), typical, full


def deep_window_family(seed: int, count: int) -> List[System]:
    """``count`` deep-window systems; the ISR counts cycle through
    :data:`ISR_COUNTS` and the deadline placements follow a golden-ratio
    sequence from a seeded start, so every family covers the same
    range of difficulty and only the details differ between seeds."""
    rng = random.Random(f"deep-window:{seed}")
    start = rng.random()
    return [
        deep_window_system(rng, index, (start + index * _GOLDEN) % 1.0)[0]
        for index in range(count)
    ]


def write_systems(systems: Sequence[System], root: Path) -> List[str]:
    """Write one JSON file per system under ``root``; returns their
    paths relative to the working directory, as the program is given
    them (the batch export labels jobs with these paths)."""
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, system in enumerate(systems):
        path = root / f"{index:03d}.json"
        path.write_text(system_to_json(system) + "\n", encoding="utf-8")
        paths.append(os.path.relpath(path))
    return paths


# ----------------------------------------------------------------------
# daemon_mixed
# ----------------------------------------------------------------------
#: Requests per stratum; exactly one of them is cold.
COLD_EVERY = 4

#: A warm request resends a system whose cold request was scheduled at
#: least this many requests earlier, so it has been answered already.
WARM_LAG = 8


@dataclass(frozen=True)
class Request:
    cold: bool
    system: int  # index into the daemon's system list
    due: float  # seconds after the open loop starts; 0.0 in the closed loop


def _mix(
    rng: random.Random,
    count: int,
    first_system: int,
    answered: List[Tuple[int, int]],
    position: int,
) -> Tuple[List[Tuple[bool, int]], int]:
    """``count`` requests, one cold per stratum of :data:`COLD_EVERY`
    at a random slot; warm ones pick uniformly among systems whose cold
    request lies :data:`WARM_LAG` positions back.  ``answered`` holds
    ``(position, system)`` of every cold request so far and grows."""
    out: List[Tuple[bool, int]] = []
    next_system = first_system
    cold_slot = 0
    eligible = 0
    for offset in range(count):
        if offset % COLD_EVERY == 0:
            cold_slot = rng.randrange(COLD_EVERY)
        here = position + offset
        while eligible < len(answered) and answered[eligible][0] <= here - WARM_LAG:
            eligible += 1
        if offset % COLD_EVERY == cold_slot or eligible == 0:
            out.append((True, next_system))
            answered.append((here, next_system))
            next_system += 1
        else:
            out.append((False, answered[rng.randrange(eligible)][1]))
    return out, next_system


def daemon_schedule(
    seed: int, open_count: int, closed_count: int, rate: float
) -> Tuple[List[Request], List[Request], int]:
    """The open-loop schedule (Poisson arrivals at ``rate`` req/s), the
    closed-loop request sequence, and how many distinct systems they
    need."""
    rng = random.Random(f"daemon-mixed:{seed}")
    answered: List[Tuple[int, int]] = []
    open_mix, used = _mix(rng, open_count, 0, answered, 0)
    closed_mix, used = _mix(rng, closed_count, used, answered, open_count)
    due = 0.0
    open_requests = []
    for cold, system in open_mix:
        due += rng.expovariate(rate)
        open_requests.append(Request(cold, system, due))
    closed_requests = [Request(cold, system, 0.0) for cold, system in closed_mix]
    return open_requests, closed_requests, used


def daemon_systems(seed: int, count: int) -> List[System]:
    """Distinct UUniFast corpus systems, one per cold request."""
    spec = CorpusSpec(count=count, seed=seed, family="uunifast")
    return [generate_entry(spec, index) for index in range(count)]


def request_body(system: System) -> bytes:
    """The wire body of one ``POST /analyze``: the system inline, every
    other request field (window sizes, backend, ...) at its default."""
    return json.dumps({"system": system_to_dict(system)}).encode("utf-8")


def schedule_digest(open_requests: Sequence[Request], closed_requests: Sequence[Request]) -> str:
    texts = [f"{int(r.cold)}:{r.system}:{r.due!r}" for r in open_requests]
    texts += [f"{int(r.cold)}:{r.system}" for r in closed_requests]
    return digest_texts(texts)


# ----------------------------------------------------------------------
# sim_soak
# ----------------------------------------------------------------------
def soak_input(seed: int, events: int) -> Tuple[System, int]:
    """The soak system (utilization drawn around the module default of
    0.08) and a horizon releasing about ``events`` activations under
    the critical-instant streams ``repro simulate`` uses."""
    rng = random.Random(f"sim-soak:{seed}")
    system = soak_system(utilization=round(rng.uniform(0.075, 0.085), 4))
    rate = sum(chain.activation.rate() for chain in system.chains)
    return system, int(round(events / rate))


def systems_digest(systems: Sequence[System]) -> str:
    return digest_texts([canonical_system_json(system) for system in systems])
