"""The TSV format of every table the toolkit writes, and its JSON files and values.

Floats are written in shortest round-trip form, infinities as inf/-inf,
and absent values as empty fields (null in JSON). JSON files are indented
by two spaces and end with a newline.
"""

import json
import math
from pathlib import Path


def format_field(value) -> str:
    """Render one TSV cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(float(value))
    return str(value)


def write_tsv(path, header, rows, comment=None) -> None:
    """Write a UTF-8 TSV: an optional "# comment" line, the header, rows of format_field cells."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append("\t".join(header))
    lines += ["\t".join(format_field(cell) for cell in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path, payload) -> None:
    """Write payload as UTF-8 JSON text, indented by two spaces, with a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def parse_optional_float(text: str):
    """Parse a float field where the empty string means absent."""
    if text == "":
        return None
    return float(text)


def json_value(value):
    """JSON-safe rendering; infinities become the strings inf/-inf."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value
