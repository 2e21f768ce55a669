"""The workloads: which calculators a session builds and which queries it asks.

Inputs come from ``--seed`` alone.  Every query a seed can produce is in
the population recorded in ``data/digests.json`` (one digest per query,
recorded by record.py), so any seed's outputs can be checked.  Session ``k``
of a run draws its queries from ``Random("<workload>/<seed>/<k>")``, so a
run's medians average over several draws of the seed's stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"

# qh-product-cold: each type is seen once per session, in a fresh process.
COLD_LADDER = ["A3", "B3", "C3", "G2"]


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS) as fh:
        return json.load(fh)["workloads"]


def word_length(word: str) -> int:
    return word.count("s")


def _by_kind(population: list[str], prefix: str) -> list[str]:
    return sorted(q for q in population if q.startswith(prefix))


def table_queries(population: list[str], rng: random.Random) -> list[str]:
    """All products of the table, then the Toda relations.

    Pairs go row by row in length order, as ``multiplication_table`` takes
    them; the seed orders the elements within each length.  A uniformly
    random order would make per-query latency depend on the seed through
    which memo entries happen to be filled first: the median query's work
    then varied by 2x between orders.
    """
    stars = _by_kind(population, "star|")
    elements = sorted({w for q in stars for w in q.split("|")[2:]})
    rank = {w: rng.random() for w in elements}

    def key(w: str) -> tuple[int, float]:
        return word_length(w), rank[w]

    stars.sort(key=lambda q: (*key(q.split("|")[2]), *key(q.split("|")[3])))
    return stars + _by_kind(population, "relation|")


def cold_queries(population: list[str], rng: random.Random) -> list[str]:
    """One product per type of the ladder."""
    return [rng.choice(_by_kind(population, f"star|{label}|")) for label in COLD_LADDER]


def sweep_queries(population: list[str], rng: random.Random) -> list[str]:
    """One commutator per affine element, then every curve neighborhood.

    Each element gets a seeded pair (i, j) and elements go in length order,
    seeded within a length; the neighborhoods go in a seeded order.  Every
    session so covers the same elements and neighborhoods, which keeps the
    median and tail latency from depending on which ones were drawn.
    """
    comms: dict[str, list[str]] = {}
    for q in _by_kind(population, "commutator|"):
        comms.setdefault(q.split("|")[2], []).append(q)
    rank = {w: rng.random() for w in comms}
    chosen = [rng.choice(comms[w])
              for w in sorted(comms, key=lambda w: (word_length(w), rank[w]))]
    nbhds = _by_kind(population, "nbhd|")
    rng.shuffle(nbhds)
    return chosen + nbhds


@dataclass(frozen=True)
class Workload:
    setup: tuple[str, ...]
    draw: Callable[[list[str], random.Random], list[str]]

    def queries(self, name: str, population: list[str], seed: int, index: int) -> list[str]:
        return self.draw(population, random.Random(f"{name}/{seed}/{index}"))


WORKLOADS = {
    "qh-table": Workload(("quantum|A3",), table_queries),
    "qh-product-cold": Workload(tuple(f"quantum|{t}" for t in COLD_LADDER), cold_queries),
    "affine-sweep": Workload(("affine|A3", "affine|F4"), sweep_queries),
}
