"""JSON lines: the one writer, line reader and field checks behind every file
this package reads or writes (reports, traces and table fixtures).

Writing sorts keys and refuses NaN and Infinity, so equal objects give equal
bytes (a trace's step lines are formatted to the same bytes without building
the objects, see stepwise.trace_to_lines).  Reading turns any malformed line
into one ``ValueError`` that names the kind of file and the line, which the
CLI prints as a one-line error.
"""

from __future__ import annotations

import json
import sys


def dumps(obj: dict) -> str:
    """One JSON line: sorted keys, floats via repr, no NaN or Infinity."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def integer(value, name: str) -> int:
    """value itself if it is an int (a bool is not one); ValueError otherwise."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def number(value, name: str, kinds=(int, float)) -> float:
    """value as a float if it is finite and of one of kinds, by default an
    int or float (a bool is neither); ValueError otherwise."""
    # compares exactly, so it also rejects an int too large for a float
    if type(value) in kinds and abs(value) <= sys.float_info.max:
        return float(value)
    kind = "/".join(k.__name__ for k in kinds)
    raise ValueError(f"{name} must be a finite {kind}, got {value!r}")


def exact_float(text: str) -> float:
    """The float a JSON number's text names, if repr writes it back as that
    text; ValueError otherwise (0.50, 1E-3 and 1e999 among them)."""
    if repr(value := float(text)) != text:
        raise ValueError(f"{text} does not write back as read, but as {value!r}")
    return value


def read_lines(lines, what: str, parse, parse_float=float) -> list:
    """parse(obj) for the JSON object obj on every non-blank line of lines,
    in order, its float texts read by parse_float.

    A line that is not a JSON object, a missing field (KeyError) and any
    TypeError, ValueError or OverflowError raised while parsing become one
    ValueError that names ``what`` and the line number.
    """
    parsed = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_float=parse_float)
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            parsed.append(parse(obj))
        except KeyError as exc:
            raise ValueError(f"{what} line {lineno} lacks field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{what} line {lineno}: {exc}") from None
    return parsed
