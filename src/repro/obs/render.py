"""Human- and machine-readable renderings of :class:`Profile` objects.

``format_profile`` produces the span tree + counter table printed by
``python -m repro report --profile``; ``profile_to_json`` is the
``--profile-json`` payload and the benchmark harness format.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.profile import Profile

__all__ = ["format_profile", "profile_to_json"]

#: Counter suffixes that mark a cache-traffic counter; ``<prefix>.<suffix>``
#: rows are regrouped into the ``-- caches --`` table.
_CACHE_SUFFIXES = ("hit", "miss", "evict", "stale.detected")


def _format_span_tree(profile: Profile) -> list[str]:
    lines = [f"{'total s':>10}  {'self s':>10}  span"]
    for root in profile.spans:
        for depth, node in root.walk():
            indent = "  " * depth
            lines.append(f"{node.seconds:>10.4f}  {node.self_seconds:>10.4f}"
                         f"  {indent}{node.name}")
    return lines


def _format_counters(profile: Profile) -> list[str]:
    width = max((len(name) for name in profile.counters), default=7)
    width = max(width, len("counter"))
    lines = [f"{'counter':<{width}}  {'value':>12}"]
    for name in sorted(profile.counters):
        lines.append(f"{name:<{width}}  {profile.counters[name]:>12}")
    return lines


def _cache_traffic(profile: Profile) -> dict[str, dict[str, int]]:
    """Cache counters regrouped as ``{prefix: {suffix: value}}``."""
    stats: dict[str, dict[str, int]] = {}
    for name, value in profile.counters.items():
        if "{" in name:  # labeled metric samples render in the counter table
            continue
        for suffix in _CACHE_SUFFIXES:
            tail = "." + suffix
            if name.endswith(tail):
                stats.setdefault(name[:-len(tail)], {})[suffix] = value
                break
    # A lone ``.evict`` counter (topk.evict) is not a cache;
    # only prefixes with lookup traffic qualify.
    return {prefix: row for prefix, row in stats.items()
            if "hit" in row or "miss" in row}


def _format_caches(stats: dict[str, dict[str, int]]) -> list[str]:
    width = max(max(len(prefix) for prefix in stats), len("cache"))
    lines = [f"{'cache':<{width}}  {'hit':>8}  {'miss':>8}  {'evict':>8}"
             f"  {'stale':>8}  {'hit rate':>8}"]
    for prefix in sorted(stats):
        row = stats[prefix]
        hit, miss = row.get("hit", 0), row.get("miss", 0)
        lookups = hit + miss
        rate = f"{hit / lookups:.1%}" if lookups else "n/a"
        lines.append(f"{prefix:<{width}}  {hit:>8}  {miss:>8}"
                     f"  {row.get('evict', 0):>8}"
                     f"  {row.get('stale.detected', 0):>8}  {rate:>8}")
    return lines


def format_profile(profile: Profile, title: str = "Profile") -> str:
    """Render a profile as a span tree plus counter and cache tables."""
    lines = [f"== {title} =="]
    if profile.trace_id:
        lines.append(f"trace: {profile.trace_id}")
    for key in sorted(profile.meta):
        lines.append(f"{key}: {profile.meta[key]}")
    lines.append("")
    lines.append("-- span tree --")
    if profile.spans:
        lines.extend(_format_span_tree(profile))
    else:
        lines.append("(no spans recorded)")
    lines.append("")
    lines.append("-- counters --")
    if profile.counters:
        lines.extend(_format_counters(profile))
    else:
        lines.append("(no counters recorded)")
    caches = _cache_traffic(profile)
    if caches:
        lines.append("")
        lines.append("-- caches --")
        lines.extend(_format_caches(caches))
    if profile.degraded:
        lines.append("")
        lines.append("-- degraded --")
        for event in profile.degraded:
            name = event.get("event", "?")
            detail = ", ".join(f"{k}={v}" for k, v in sorted(event.items())
                               if k != "event")
            lines.append(f"{name}  {detail}" if detail else name)
    return "\n".join(lines)


def profile_to_json(profile: Profile, *,
                    extra: dict[str, Any] | None = None,
                    indent: int | None = 2) -> str:
    """Serialize a profile (plus optional metadata) as a JSON document.

    Output is deterministic: keys are sorted and span order is the
    profile's stable collection/task order, so two structurally equal
    runs diff cleanly (only timings and the trace id vary).
    """
    payload = profile.to_dict()
    if extra:
        for key, value in extra.items():
            if key in payload:
                raise ValueError(f"extra key {key!r} collides with the "
                                 f"profile schema")
            payload[key] = value
    return json.dumps(payload, indent=indent, sort_keys=True)
