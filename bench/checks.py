"""Answer checks that do not go through the library code they check.

Each function recomputes a property from plain edge sets or pair colorings,
so a wrong answer from the library cannot also pass its own check.
"""

from __future__ import annotations

import hashlib
import json
import math


def digest(record) -> str:
    """Short stable hash of a JSON-able record, as stored in golden.json."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def closed_walk_ok(edge_set, r: int, seq, k: int) -> bool:
    """seq is a closed tight walk of the given residue over the sorted-edge set."""
    seq = tuple(seq)
    if len(seq) < 2 * r or seq[:r] != seq[-r:] or (len(seq) - r) % r != k % r:
        return False
    for i in range(len(seq) - r + 1):
        window = seq[i : i + r]
        if len(set(window)) != r or tuple(sorted(window)) not in edge_set:
            return False
    return True


def triangle_counts(n: int, colors: dict) -> tuple[int, int, int]:
    """(green triangles, purple 3-cycles, cherries) with bitset neighbourhoods.

    ``colors`` maps each pair u < v to a census tag tuple: ("green",),
    ("blue",), ("red", tail, head) or ("purple", tail, head).
    """
    green = [0] * n
    red_out = [0] * n
    purple_out = [0] * n
    purple_in = [0] * n
    blues = []
    for (u, v), tag in colors.items():
        kind = tag[0]
        if kind == "green":
            green[u] |= 1 << v
            green[v] |= 1 << u
        elif kind == "blue":
            blues.append((u, v))
        elif kind == "red":
            red_out[tag[1]] |= 1 << tag[2]
        else:
            purple_out[tag[1]] |= 1 << tag[2]
            purple_in[tag[2]] |= 1 << tag[1]
    t_green = 0
    t_purple = 0
    for u in range(n):
        above = ~((1 << (u + 1)) - 1)
        mask = green[u] & above
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            t_green += bin(green[u] & green[v] & ~((1 << (v + 1)) - 1)).count("1")
            mask ^= low
        out = purple_out[u]
        while out:
            low = out & -out
            v = low.bit_length() - 1
            t_purple += bin(purple_out[v] & purple_in[u]).count("1")
            out ^= low
    t_cherry = sum(bin(red_out[y] & red_out[z]).count("1") for y, z in blues)
    return t_green, t_purple // 3, t_cherry


def cyclic_triangles_regular(n: int) -> int:
    """Directed 3-cycles of a regular tournament on odd n vertices."""
    return n * (n * n - 1) // 24


def e_opt_value(n: int) -> int:
    """max over a + b = n of C(a,3)*b + a*C(b,3)."""
    return max(math.comb(a, 3) * (n - a) + a * math.comb(n - a, 3) for a in range(n + 1))
