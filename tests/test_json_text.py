"""``cli.json_text`` writes exactly what ``json.dumps(obj, indent=2)`` writes.

Every JSON print of the CLI goes through ``cli.print_json``, whose indented
form is ``json_text``.  The reference is the standard library: on every
object the CLI golden calls print, and on seeded nested objects that reach
each branch (empty containers, negative and large ints, bools, None, floats,
non-str keys, and strings that need escaping or are not ASCII).
"""

import contextlib
import io
import json
import random

import pytest

from qaff import cli
from qaff.polynomials import SCHEMA_VERSION
from qaff.quantum import quantum_aff
from test_cli_golden import CALLS

ODD_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "/", "é", "ß", "☃", "\U0001F600", " "]


def random_str(rng):
    return "".join(rng.choice(ODD_CHARS + list("azAZ09_-")) for _ in range(rng.randint(0, 6)))


def random_scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return random_str(rng)
    if kind == 1:
        return rng.randint(-10**20, 10**20) if rng.random() < 0.2 else rng.randint(-9, 9)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([0.5, -2.25, 1e300, -0.0, float("inf"), float("nan")])
    return rng.randint(-3, 3)


def random_key(rng):
    if rng.random() < 0.8:
        return random_str(rng)
    return rng.choice([rng.randint(-5, 5), 2.5, True, False, None])


def random_json(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    kind = rng.randrange(3)
    if kind == 0:
        return [random_json(rng, depth - 1) for _ in range(size)]
    if kind == 1:
        return tuple(random_json(rng, depth - 1) for _ in range(size))
    return {random_key(rng): random_json(rng, depth - 1) for _ in range(size)}


def test_matches_json_dumps_on_seeded_objects():
    for seed in range(300):
        obj = random_json(random.Random(seed), 5)
        assert cli.json_text(obj) == json.dumps(obj, indent=2), seed


@pytest.mark.parametrize("obj", [[], {}, [[]], {"": {}}, [{}, [], ""], -1, "é\n\"", None])
def test_matches_json_dumps_on_edge_cases(obj):
    assert cli.json_text(obj) == json.dumps(obj, indent=2)


def test_refuses_the_keys_json_refuses():
    with pytest.raises(TypeError):
        json.dumps({(1, 2): 0}, indent=2)
    with pytest.raises(TypeError):
        cli.json_text({(1, 2): 0})


def test_matches_json_dumps_on_every_golden_json_call(monkeypatch):
    printed = []
    monkeypatch.setattr(cli, "print_json", lambda obj, indent=True: printed.append((obj, indent)))
    for argv in CALLS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
    # ``table --format json`` streams its entries instead (the test below)
    json_calls = [c for c in CALLS if ("json" in c and c[0] != "table")
                  or (c[0] == "present" and "latex" not in c)]
    assert len(printed) == len(json_calls) == 13
    for obj, indent in printed:
        if indent:
            assert cli.json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("lt", ["A2", "B2", "A3", "G2"])
def test_streamed_table_is_json_text_of_the_whole_record(capsys, lt):
    # the record the table command built, all at once, before it streamed its entries
    ring = quantum_aff(lt[0], int(lt[1]))
    table = cli.multiplication_table(ring)
    FW = ring.FW
    order = sorted(table, key=lambda uv: (FW.length[uv[0]], FW.word[uv[0]],
                                          FW.length[uv[1]], FW.word[uv[1]]))
    record = {"schema_version": SCHEMA_VERSION, "type": lt, "entries": [
        {"u": list(FW.word[u]), "v": list(FW.word[v]), "product": table[(u, v)].to_json_obj()}
        for u, v in order]}
    assert cli.main(["table", "--type", lt, "--format", "json"]) == 0
    assert capsys.readouterr().out == cli.json_text(record) + "\n"
    assert cli.json_text(record) == json.dumps(record, indent=2)
