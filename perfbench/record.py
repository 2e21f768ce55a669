"""Record every query a seed can draw, with the digest of its output.

Run from the repository root after a change that is meant to alter outputs
(none should):

    python3 perfbench/record.py

Each output is also put through its oracle, and nothing is written unless
all of them pass.
"""

from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import session  # noqa: E402
import workloads  # noqa: E402
from qaff import affine, quantum, toda  # noqa: E402

PAIRS = ((1, 2), (1, 3), (2, 3))


def table_population() -> list[str]:
    """The products ``multiplication_table`` computes for A3, and the A3 relations."""
    FW = quantum.quantum_aff("A", 3).FW
    elts = sorted(FW.elements, key=lambda w: (FW.length[w], FW.word[w]))
    out = [f"star|A3|{FW.format(u)}|{FW.format(v)}" for i, u in enumerate(elts) for v in elts[i:]]
    rels, _status = toda.relations_for("A", 3)
    return out + [f"relation|A3|{rel.name}" for rel in rels]


def cold_population() -> list[str]:
    """Ordered pairs with ``l(u) = l(v) = l(w0) // 2`` for each type of the ladder."""
    out = []
    for label in workloads.COLD_LADDER:
        FW = quantum.quantum_aff(*session.parse_lie_type(label)).FW
        half = sorted(FW.by_length[FW.length[FW.w0] // 2], key=FW.word.get)
        out += [f"star|{label}|{FW.format(u)}|{FW.format(v)}" for u in half for v in half]
    return out


def sweep_population() -> list[str]:
    """A3 commutators on ``l(w) <= 3``, A3 neighborhoods of ``l(u) <= 1`` with
    ``0 < |d| <= 3`` and entries at most 2, and F4 neighborhoods of the
    identity and the simple reflections in unit degrees."""
    W = affine.affine_coh("A", 3).W
    layers = W.enumerate_up_to(3)
    out = [f"commutator|A3|{W.format(w)}|{i}|{j}"
           for ws in layers.values() for w in ws for i, j in PAIRS]
    degrees = [d for d in product(range(3), repeat=4) if 0 < sum(d) <= 3]
    out += [f"nbhd|A3|{W.format(u)}|{','.join(map(str, d))}"
            for ell in range(2) for u in layers[ell] for d in degrees]
    WF = affine.affine_coh("F", 4).W
    starts = [WF.identity] + [WF.simple(i) for i in range(5)]
    units = [",".join("1" if k == i else "0" for k in range(5)) for i in range(5)]
    out += [f"nbhd|F4|{WF.format(u)}|{d}" for u in starts for d in units]
    return out


POPULATIONS = {
    "qh-table": table_population,
    "qh-product-cold": cold_population,
    "affine-sweep": sweep_population,
}


def main() -> int:
    recorded = {}
    for name, population in POPULATIONS.items():
        sess = session.Session(list(workloads.WORKLOADS[name].setup))
        table = {}
        for query in population():
            out = sess.run(query)
            if not sess.oracle(query, out):
                print(f"oracle rejects {query}; nothing written", file=sys.stderr)
                return 1
            table[query] = session.digest(sess.canonical(query, out))
        recorded[name] = table
        print(f"{name}: {len(table)} queries", file=sys.stderr)
    workloads.DIGESTS.parent.mkdir(exist_ok=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump({"workloads": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
