"""Text encodings: graph6 and a plain edge-list format.

graph6 is a header encoding ``n`` followed by the upper triangle of the
adjacency matrix in column-major order, packed six bits per byte (each byte
offset by 63). The short-form header is one byte ``n + 63`` for n <= 62; the
long form is ``~`` plus ``n`` in three such 6-bit bytes, for
63 <= n <= 258047. Both forms are emitted and parsed.
Parsing is strict: bad characters, truncated or oversized payloads, and
nonzero padding bits are all rejected with the byte offset of the problem,
so a parsed graph keeps its input as its graph6 (see :func:`parse_graph6`).

The edge-list format is one ``n m`` line followed by ``m`` lines ``u v``.
"""

from __future__ import annotations

import binascii
import math

from .errors import FormatError, InvalidGraphError
from .graphs import Graph

_G6_MAX_N = 258047
# base64 and graph6 both write 6-bit groups, one alphabet symbol each.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_SYMBOLS = bytes(range(63, 127))
_BASE64_TO_G6 = bytes.maketrans(_BASE64, _G6_SYMBOLS)
# Classes of payload bytes: 0 for "?" (six zero bits), 1 for the other
# symbols, 2 for bytes that are no symbol. ``find`` on the classes is a
# memchr, so zero runs cost next to nothing.
_G6_CLASSES = bytes(
    0 if b == 63 else 1 if 63 < b <= 126 else 2 for b in range(256)
)


def _payload_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header allowed).

    The graph keeps the string after the header, without trailing newlines,
    as its graph6: the header form is fixed by ``n``, the payload length is
    exact and padding bits are 0, so it is what :func:`emit_graph6` writes.
    """
    base = 0
    if text.startswith(">>graph6<<"):
        base = len(">>graph6<<")
        text = text[base:]
    text = text.rstrip("\n")
    if not text:
        raise FormatError("empty graph6 string", base)
    head = ord(text[0])
    if head == 126:
        if len(text) < 4:
            raise FormatError("truncated long-form graph6 header", base + len(text))
        n = 0
        for i in range(1, 4):
            val = ord(text[i]) - 63
            if not 0 <= val <= 63:
                raise FormatError(f"bad graph6 header byte {text[i]!r}", base + i)
            n = n << 6 | val
        if not 62 < n <= _G6_MAX_N:
            raise FormatError(
                f"long-form graph6 needs 63 <= n <= {_G6_MAX_N}, got n = {n}", base
            )
        start = 4
    elif 63 <= head <= 125:
        n = head - 63
        start = 1
    else:
        raise FormatError(f"bad graph6 header byte {head!r}", base)
    if n < 1:
        raise FormatError("graph6 with zero vertices not supported", base)
    want = _payload_len(n)
    body = text[start:]
    base += start
    if len(body) < want:
        raise FormatError(
            f"truncated graph6 payload: expected {want} bytes, got {len(body)}",
            base + len(body),
        )
    if len(body) > want:
        raise FormatError(
            f"oversized graph6 payload: expected {want} bytes", base + want
        )
    raw = body.encode("ascii", "replace")
    classes = raw.translate(_G6_CLASSES)
    # Checked in bulk; the loop only finds the first bad byte's offset.
    if not body.isascii() or classes.find(2) >= 0:
        for i, ch in enumerate(body):
            if not 63 <= ord(ch) <= 126:
                raise FormatError(f"bad graph6 payload byte {ch!r}", base + i)
    limit = n * (n - 1) // 2
    edges = []
    at = classes.find(1)
    while at >= 0:
        bits = raw[at] - 63
        for shift in range(6):
            if bits & (32 >> shift):
                i = 6 * at + shift
                if i >= limit:
                    # Padding fills at most the last symbol.
                    raise FormatError("nonzero padding bits", base + want - 1)
                # Bit i is the pair u < v with i = v (v - 1) / 2 + u.
                v = (1 + math.isqrt(8 * i + 1)) // 2
                edges.append((i - v * (v - 1) // 2, v))
        at = classes.find(1, at + 1)
    g = Graph(n, edges)
    object.__setattr__(g, "_g6", text)
    return g


def emit_graph6(g: Graph) -> str:
    """Encode a graph as graph6: short form for n <= 62, long form above.

    The string is kept on the graph, and a parsed graph keeps its input, so
    each graph is encoded at most once.
    """
    cached = g._g6
    if cached is not None:
        return cached
    n = g.n
    if n > _G6_MAX_N:
        raise FormatError(f"graph6 limited to n <= {_G6_MAX_N}, got n = {n}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    for u, v in g.edges:
        i = v * (v - 1) // 2 + u
        bits[i >> 3] |= 128 >> (i & 7)
    body = binascii.b2a_base64(bits, newline=False).translate(_BASE64_TO_G6)
    text = head + body[: _payload_len(n)].decode("ascii")
    object.__setattr__(g, "_g6", text)
    return text


def parse_edge_list(text: str) -> Graph:
    """Decode the ``n m`` / ``u v`` line format."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"expected integers in header, got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(f"header says {m} edges, found {len(lines) - 1} lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v' line, got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"expected integer endpoints, got {ln!r}") from None
    try:
        return Graph(n, edges)
    except InvalidGraphError as exc:
        raise FormatError(str(exc)) from None


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
