"""Output checks that share no code with the program being timed.

Graphs are decoded from graph6 here, and nullities are bounded by ranks over
a large prime field: the rank of an integer matrix over F_p never exceeds its
rank over the rationals, so the nullity over F_p is an upper bound on the
rational nullity. Every check returns None when the output is right, or a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import re

import numpy as np

# Both below 2^31, so a product of two residues fits in a signed 64-bit integer.
PRIMES = (2_147_483_647, 1_000_000_007)


def decode_graph6(text: str) -> list[int]:
    """Adjacency rows (one neighbour bitmask per vertex) of a graph6 line."""
    vals = [ord(ch) - 63 for ch in text.strip()]
    if not vals or any(v < 0 or v > 63 for v in vals):
        raise ValueError("not a graph6 string")
    if vals[0] == 63:
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n, body = vals[0], vals[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError("graph6 body length does not match the order")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def encode_graph6(rows: list[int]) -> str:
    """graph6 line of a graph given by adjacency rows (orders up to 258047)."""
    n = len(rows)
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return head + body


def degrees(rows: list[int]) -> set[int]:
    return {r.bit_count() for r in rows}


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        below = a[r + 1:, c]
        hit = np.flatnonzero(below)
        if hit.size:
            sub = r + 1 + hit
            a[sub, c:] = (a[sub, c:] - below[hit, None] * a[r, c:] % p) % p
        r += 1
    return r


def adjacency(rows: list[int], shift: int = 0) -> np.ndarray:
    n = len(rows)
    a = np.array([[r >> j & 1 for j in range(n)] for r in rows], dtype=np.int64)
    return a + shift * np.eye(n, dtype=np.int64)


def nullity_bound(matrix: np.ndarray) -> int:
    """Smallest nullity over the fixed primes: an upper bound on the rational
    nullity, equal to it unless every prime divides some maximal minor."""
    n = matrix.shape[1]
    best = n
    for p in PRIMES:
        best = min(best, n - rank_mod_p(matrix, p))
        if best <= 1:
            break
    return best


# -- per-workload checks ---------------------------------------------------------

def check_construct(expect: dict, code, out: str):
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        payload = json.loads(out)
        rows = decode_graph6(payload["graph6"])
        vec = [int(x) for x in payload["kernel_vector"]]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc}"
    n, d = expect["n"], expect["d"]
    if len(rows) != n or degrees(rows) != {d}:
        return f"graph is not {d}-regular of order {n}"
    if payload.get("nullity") != 1:
        return f"reported nullity {payload.get('nullity')}"
    if len(vec) != n or any(x == 0 for x in vec):
        return "kernel vector has the wrong length or a zero entry"
    for r in rows:
        total = 0
        for j in range(n):
            if r >> j & 1:
                total += vec[j]
        if total:
            return "kernel vector is not annihilated by the adjacency matrix"
    if nullity_bound(adjacency(rows)) > 1:
        return "nullity above 1 over every check prime"
    return None


def check_lemmas(expect: dict, code, out: str):
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    except ValueError as exc:
        return f"unreadable output: {exc}"
    got = [(r.get("operation"), r.get("checked"), r.get("ok")) for r in reports]
    want = [(op, count, True) for op, count in expect["reports"]]
    if got != want:
        return f"reports {got}, expected {want}"
    return None


_COUNT_LINE = re.compile(r"# (classes|witnesses): (\d+)$")


def check_census(expect: dict, code, out: str):
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.splitlines()
    match = _COUNT_LINE.match(lines[-1]) if lines else None
    if match is None:
        return "missing count line"
    count = int(match.group(2))
    if count != expect["count"] or len(lines) - 1 != count:
        return f"{count} graphs over {len(lines) - 1} lines, expected {expect['count']}"
    for line in lines[:-1]:
        try:
            rows = decode_graph6(line)
        except (ValueError, IndexError) as exc:
            return f"unreadable graph6 line: {exc}"
        if len(rows) != expect["n"] or degrees(rows) != {expect["d"]}:
            return f"graph {line} is not {expect['d']}-regular of order {expect['n']}"
    return None


_INT = r"(\d+)"


def check_verify(expect: dict, code, out: str):
    rows = expect["rows"]
    shift = expect["shift"]
    want = nullity_bound(adjacency(rows, shift))
    if expect["input"] == "graph6":
        if shift:
            match = re.fullmatch(rf"shifted nullity: {_INT}", out.strip())
            positive = match is not None and int(match.group(1)) == 1
        else:
            match = re.fullmatch(rf"nut: (true|false)[^,]*, nullity: {_INT}", out.strip())
            positive = match is not None and match.group(1) == "true"
        if match is None:
            return "unreadable output"
        reported = [int(match.group(match.lastindex))]
    else:
        label = "shifted nullity" if shift else "nullity"
        spectral = re.search(rf"^spectral {label}: {_INT};", out, re.M)
        direct = re.search(rf"^direct {label}: {_INT}; agreement: (true|false)$", out, re.M)
        if spectral is None or direct is None:
            return "unreadable output"
        if direct.group(2) != "true":
            return "direct and spectral nullities disagree"
        reported = [int(spectral.group(1)), int(direct.group(1))]
        if shift:
            positive = reported[0] == 1
        else:
            positive = re.search(r"^nut: true$", out, re.M) is not None
    if any(r != want for r in reported):
        return f"reported nullity {reported}, independent nullity {want}"
    if code != (0 if positive else 1):
        return f"exit code {code} does not match the printed verdict"
    if expect["witness"] and shift == 0 and not positive:
        return "family witness not reported as a nut graph"
    return None


CHECKS = {
    "construct": check_construct,
    "lemmas": check_lemmas,
    "census": check_census,
    "verify": check_verify,
}
