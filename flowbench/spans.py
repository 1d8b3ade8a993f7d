"""Span arithmetic for the traced run: totals and self times by name."""

from __future__ import annotations

from collections import defaultdict

#: containment slack in microseconds: span timestamps are wall-anchored
#: floats (~1e15 us) with sub-microsecond rounding
_SLACK_US = 1.0


def span_table(spans) -> dict:
    """``name -> {"count", "total_s", "self_s"}`` over ``spans``.

    ``spans`` are dicts or objects with ``name``, ``ts``, ``dur`` (us),
    ``pid`` and ``tid``.  A span's self time is its duration minus the
    part of it covered by its child spans: spans of one thread nest, so
    that is the summed duration of its direct children.
    """
    def field(span, key):
        return span[key] if isinstance(span, dict) else getattr(span, key)

    lanes = defaultdict(list)
    for span in spans:
        lanes[(field(span, "pid"), field(span, "tid"))].append(
            (float(field(span, "ts")), float(field(span, "dur")),
             field(span, "name")))

    table: dict = {}
    for items in lanes.values():
        # parents before the children that start at the same instant
        items.sort(key=lambda item: (item[0], -item[1]))
        child_us = [0.0] * len(items)
        stack: list = []  # indices of open spans
        for i, (ts, dur, _) in enumerate(items):
            while stack:
                top_ts, top_dur, _ = items[stack[-1]]
                if ts + dur <= top_ts + top_dur + _SLACK_US:
                    break
                stack.pop()
            if stack:
                child_us[stack[-1]] += dur
            stack.append(i)
        for (ts, dur, name), child in zip(items, child_us):
            row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur * 1e-6
            row["self_s"] += max(dur - child, 0.0) * 1e-6
    return table


def total(table: dict, *names: str) -> float:
    return sum(table.get(n, {}).get("total_s", 0.0) for n in names)


def self_time(table: dict, *names: str) -> float:
    return sum(table.get(n, {}).get("self_s", 0.0) for n in names)


def count(table: dict, name: str) -> int:
    return table.get(name, {}).get("count", 0)
