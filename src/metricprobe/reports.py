"""Report serialization and console rendering.

Reports are plain nested dicts whose numeric leaves carry explicit unit
tags, {"value": x, "units": "..."}.  The JSON writer is deterministic:
insertion order is preserved, floats print with 17 significant digits so
a round-trip reproduces the double exactly, infinities serialize as the
bare tokens Infinity / -Infinity that json.loads accepts, and nothing
time- or host-dependent is ever written.
"""
from __future__ import annotations

import math


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"  # "-0" would read back as the int 0
    return format(x, ".17g")


def _dump(obj, out, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(pad_in)
            out.append(f'"{key}": ')
            _dump(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            _dump(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        import json
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def dumps_report(report: dict) -> str:
    out = []
    _dump(report, out, 0)
    out.append("\n")
    return "".join(out)


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_report(report))


# ---------------------------------------------------------------------------
# console rendering
# ---------------------------------------------------------------------------

def _leaf_text(val) -> str:
    if isinstance(val, dict) and set(val) == {"value", "units"}:
        v = val["value"]
        num = _format_float(float(v)) if isinstance(v, float) else str(v)
        units = val["units"]
        return num if units in ("count", "dimensionless") else f"{num}  [{units}]"
    if isinstance(val, bool):
        return "yes" if val else "no"
    if isinstance(val, float):
        return _format_float(val)
    return str(val)


def _walk(node: dict, prefix: str, rows: list):
    for key, val in node.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict) and set(val) != {"value", "units"}:
            _walk(val, name + ".", rows)
        elif isinstance(val, (list, tuple)):
            if not val:
                continue
            for item in val:
                rows.append((name, str(item)))
        else:
            rows.append((name, _leaf_text(val)))


def render_summary(report: dict) -> str:
    """Aligned key/value listing of everything except the config echo."""
    rows = []
    _walk({key: val for key, val in report.items() if key != "scenario"}, "", rows)
    width = max(len(name) for name, _ in rows)
    lines = [f"{name.ljust(width)}  {text}" for name, text in rows]
    return "\n".join(lines) + "\n"
