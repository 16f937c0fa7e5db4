"""Pure measurement helpers of the vwsdk serve benchmark.

Kept free of I/O so perfbench/test_perfbench.py can pin each rule:
nearest-rank percentiles with failures counted as infinitely slow,
due-time latency, response classification, and span self time.
"""

import json
import math

INF = math.inf

# How every response envelope starts, up to its id.
_ENVELOPE_HEAD = '{"v":1,"id":"'


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100]) of `values`.

    A failed or refused request enters as `INF`, so it counts as missing
    any latency limit: once failures pass the rank, the result is INF.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    """The nearest-rank median (an element of `values`)."""
    return percentile(values, 50)


def due_latency_ns(due_ns, recv_ns):
    """Latency counted from when a request was due, not when it was sent.

    An open-loop generator that runs late sends after the due time; the
    wait it imposed counts against the system, as it would for a user.
    An unanswered request (recv_ns < 0) is infinitely slow.
    """
    if recv_ns < 0:
        return INF
    return recv_ns - due_ns


def lateness_ns(due_ns, sent_ns):
    """How late the generator sent a request (never negative)."""
    return max(0, sent_ns - due_ns)


def split_response(line):
    """(ok, op, payload text, error code) of one response envelope line.

    The payload is the exact bytes between `"result":` and the closing
    brace, so two responses can be compared byte for byte.
    """
    if not line.startswith(_ENVELOPE_HEAD):
        return False, None, None, "unparseable"
    id_end = line.find('"', len(_ENVELOPE_HEAD))
    rest = line[id_end + 1:]
    if rest.startswith(',"op":"'):
        op_end = rest.find('"', 7)
        op = rest[7:op_end]
        head = ',"ok":true,"result":'
        body = rest[op_end + 1:]
        if body.startswith(head) and body.endswith("}"):
            return True, op, body[len(head):-1], None
    try:
        error = json.loads(line).get("error") or {}
    except ValueError:
        return False, None, None, "unparseable"
    return False, None, None, error.get("code", "unknown")


def classify(line, expected_payload):
    """Why a response line counts as failed, or None when it passed.

    Failed: no answer, an error envelope (an `overloaded` refusal
    included), or a payload that differs from the in-process replay's.
    """
    if line is None:
        return "unanswered"
    ok, _, payload, code = split_response(line)
    if not ok:
        return code
    if payload != expected_payload:
        return "payload_mismatch"
    return None


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover.

    `spans` maps span id -> (parent id or None, start, end).  Children of
    one parent may overlap each other (work fanned out to a pool); the
    covered part is their union, clipped to the parent.
    """
    children = {}
    for span_id, (parent, start, end) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, (_, start, end) in spans.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, [])):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result
