"""Mutated problem documents end in exit 0, 2, 3 or 4 in bounded time.

Each example takes one of the shipped `problems/*.json`, drops or retypes
keys, puts extreme numbers in, duplicates list items, or appends valid
points up to MAX_POINTS in all, and runs `check`,
`matrix`, `value`, `oracle` and `schedule --K 20` in-process.  An uncaught
exception or an alarm fails the example.  Explicit examples given as bytes
are written to the document file as they are.
"""

import contextlib
import copy
import io
import json
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgame.cli import main

PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))
DOCS = {p.stem: json.loads(p.read_text()) for p in PROBLEMS}
COMMANDS = (["check"], ["matrix"], ["value"], ["oracle"], ["schedule", "--K", "20"])
SECONDS_PER_EXAMPLE = 30
MAX_POINTS = 30

EXTREMES = ["1e400", "-1e400", "1e-400", "1e308", 1e308, -1e308, 1e-308, 5e-324, 0, -1,
            2**70, "inf", "-inf", "nan", "1/0", "", "x", True, None, [], {}, 0.5]


def paths(node, prefix=()):
    """Every path (a tuple of keys and indices) below the node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(doc, path, op, value):
    """Drop, retype or (in a list) duplicate the node at path, in place."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = value
    elif isinstance(parent, list):  # "dup"
        parent.insert(key, copy.deepcopy(parent[key]))


def add_points(doc, count, order):
    """Append up to `count` points (MAX_POINTS in all), each with a fresh id
    n >= 0, the coordinate -(n+1)/(2n+3) in [-1/2, -1/3] that no shipped
    point has, and a series of order+1 coefficients; each is placed in component 0 of every
    archimedean place with a placement and gets a zero row and column in
    every extra place.  Parts that earlier mutations retyped are left alone."""
    def items(key):
        value = doc.get(key)
        return value if isinstance(value, list) else []

    points = items("points")
    ids = [p.get("id") for p in points if isinstance(p, dict)]
    fresh = 1 + max((i for i in ids if type(i) is int), default=-1)
    for pid in range(fresh, fresh + min(count, MAX_POINTS - len(points))):
        points.append({"id": pid, "coordinate": f"{-(pid + 1)}/{2 * pid + 3}"})
        items("series").append({"point": pid, "coefficients": [str(pid - c) for c in range(order + 1)]})
        for place in items("arch_places"):
            if isinstance(place, dict) and isinstance(place.get("placement"), dict):
                place["placement"][str(pid)] = 0
        for place in items("extra_places"):
            rows = place.get("entries") if isinstance(place, dict) else None
            if isinstance(rows, list) and all(isinstance(r, list) for r in rows):
                for r in rows:
                    r.append(0)
                rows.append([0] * len(rows[0]) if rows else [0])


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        choices = list(paths(doc))
        op = draw(st.sampled_from(("drop", "retype", "dup", "add")))
        if op == "add":
            add_points(doc, draw(st.integers(1, MAX_POINTS)), draw(st.integers(0, 2)))
        elif choices:
            mutate(doc, draw(st.sampled_from(choices)), op, draw(st.sampled_from(EXTREMES)))
    return doc


def with_changes(name, change):
    doc = copy.deepcopy(DOCS[name])
    change(doc)
    return doc


def _label_not_a_string(doc):
    doc["extra_places"][0]["label"] = 7


def _point_beyond_float_range(doc):
    doc["points"][1]["coordinate"] = "1e400"
    doc["series"][1]["coefficients"] = doc["series"][1]["coefficients"][:4]


def _disk_beyond_float_range(doc):
    doc["points"][0]["coordinate"] = "1e400"
    doc["arch_places"][0]["domain"]["center"] = "1e400"


# documents json.loads cannot read: not UTF-8, nested past the recursion
# limit, and an integer literal past int()'s 4,300-digit limit
NOT_UTF8 = b"\xff\xfe{"
NESTED_100000_DEEP = b"[" * 100_000 + b"]" * 100_000
ID_OF_5001_DIGITS = json.dumps(DOCS["borel_dwork"]).replace('"id": 0', '"id": 1' + "0" * 5000, 1).encode()


class Alarm(Exception):
    pass


def _ring(signum, frame):
    raise Alarm(f"a command ran longer than {SECONDS_PER_EXAMPLE} s")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(mutated_documents())
@example(with_changes("infinite_interaction", _label_not_a_string))
@example(with_changes("two_point_interval", _point_beyond_float_range))
@example(with_changes("borel_dwork", _disk_beyond_float_range))
@example(NOT_UTF8)
@example(NESTED_100000_DEEP)
@example(ID_OF_5001_DIGITS)
def test_mutated_documents_exit_cleanly(doc):
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(SECONDS_PER_EXAMPLE)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.json"
            path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
            for command in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([command[0], str(path), *command[1:]])
                assert code in (0, 2, 3, 4), (command, code)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
