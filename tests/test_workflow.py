"""The CI workflow's steps, read line by line: CI installs no YAML library."""

import re
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"

KEY = re.compile(r"([A-Za-z_][\w-]*):(?:\s|$)")


def steps(text: str) -> list[list[tuple[str, str, int]]]:
    """Each step of every ``steps:`` list as its (key, value, line number)
    triples: a step starts at a "- " one level under ``steps:``, its keys
    are the lines at the indent of the key after that dash, and deeper
    lines belong to a value."""
    found, top, dash = [], None, None
    for number, line in enumerate(text.splitlines(), 1):
        body = line.lstrip(" ")
        depth = len(line) - len(body)
        if not body or body.startswith("#"):
            continue
        if top is not None and depth <= top:
            top = None
        if body == "steps:":
            top, dash = depth, None
            continue
        if top is None:
            continue
        if body.startswith("- ") and dash in (None, depth):
            dash = depth
            found.append([])
            body, depth = body[2:], depth + 2
        if depth == dash + 2:
            match = KEY.match(body)
            assert match, f"line {number}: not a key: {body!r}"
            found[-1].append((match[1], body[match.end():].strip(), number))
    return found


def problems(text: str) -> list[str]:
    """A step that repeats a key, that has neither run nor uses, or that
    shares its name with another step."""
    out, names = [], {}
    for step in steps(text):
        keys = [key for key, _, _ in step]
        first = step[0][2]
        out += [f"line {first}: step repeats {key}:" for key in sorted(set(keys)) if keys.count(key) > 1]
        if "run" not in keys and "uses" not in keys:
            out.append(f"line {first}: step has neither run: nor uses:")
        for key, value, number in step:
            if key == "name":
                if value in names:
                    out.append(f"line {number}: name {value!r} is also on line {names[value]}")
                names.setdefault(value, number)
    return out


def test_the_workflow_has_well_formed_steps():
    text = WORKFLOW.read_text()
    assert len(steps(text)) > 20
    assert problems(text) == []


FRAGMENT = """\
jobs:
  tier1:
    steps:
      - uses: actions/checkout@v4
      - name: One
        run: |
          echo one
          - name: inside a block, not a step
      - name: Two
        run: echo two
"""


@pytest.mark.parametrize("edit, want", [
    # a step's name line lost above a second run: key
    (("      - name: Two\n", ""), ["line 5: step repeats run:"]),
    (("        run: echo two\n", "        env: {}\n"), ["line 9: step has neither run: nor uses:"]),
    (("name: Two", "name: One"), ["line 9: name 'One' is also on line 5"]),
])
def test_each_fault_is_found(edit, want):
    assert problems(FRAGMENT) == []
    assert [[key for key, _, _ in step] for step in steps(FRAGMENT)] == [
        ["uses"], ["name", "run"], ["name", "run"],
    ]
    assert problems(FRAGMENT.replace(*edit)) == want
