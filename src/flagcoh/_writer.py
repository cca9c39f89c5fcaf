"""The one JSON writer: byte for byte ``json.dumps(..., indent=2)``, without loading json.

Every JSON byte, query or report, comes from here: ``cli`` writes the query
objects through ``_json`` and ``verify.emit_report`` writes the reports
through ``_json`` and ``_json_str``.  This module imports no engine module,
so a JSON query does not run ``verify``.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=1024)  # a report repeats a few keys and labels many times
def _json_str(s: str) -> str:
    if not isinstance(s, str):  # checked on cache misses only
        raise TypeError(f"keys and labels must be str, got {s!r}")
    # json.dumps escapes '"', '\\' and whatever lies outside U+0020..U+007E, and nothing else
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    from json.encoder import encode_basestring_ascii  # only strings that need escaping load json
    return encode_basestring_ascii(s)


@lru_cache(maxsize=1024)  # the studiopesi sweep repeats each pair's lowest weights under every twist
def _json_ints(coords: tuple[int, ...], pad: str) -> str:
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(str, coords)) + f"\n{pad}]"


def _json(value: object, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` puts it at ``pad``: str, int, bool, None, list, tuple, dict."""
    if isinstance(value, str):
        return _json_str(value)
    if type(value) is list and {*map(type, value)} == {int}:  # weight coordinates (type(True) is bool)
        return _json_ints(tuple(value), pad)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_json_str(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep = ",\n" + inner
    return f"[\n{inner}{sep.join([_json(v, inner) for v in value])}\n{pad}]" if value else "[]"


def pieces_json(pieces) -> list[dict]:
    """The JSON form of ``h0_twisted_cotangent`` pieces, one dict per level."""
    return [
        {"level": level, "fw_coords": list(mu.fw_coords) if mu is not None else None, "dim": str(dim)}
        for level, mu, dim in pieces
    ]
