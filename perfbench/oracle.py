"""Linear-scan answers for the query DSL and pattern discovery.

Shares no code with the engine: each leaf is a predicate over a plain
row tuple, evaluated by scanning every row; compounds combine the leaf
sets.  The same predicates also judge single rows, which is how the
publish_churn reader check folds the writer's changes into a base answer.
"""

from __future__ import annotations

from typing import Callable

from inputs import DOMAIN, INSTANCE, LAT, LON, PATH, RT

FIELDS = {"domain": DOMAIN, "instance": INSTANCE, "service_path": PATH, "rt": RT}
GEO = {"latitude": LAT, "longitude": LON}

Row = tuple
Pred = Callable[[Row], bool]


def wildcard_match(pattern: str, path: str) -> bool:
    """``*`` is one label; a trailing lone ``*`` is one or more labels."""
    pat, labels = pattern.lower().split("."), path.lower().split(".")
    if pat[-1] == "*":
        pat = pat[:-1]
        if len(labels) <= len(pat):
            return False
        labels = labels[: len(pat)]
    elif len(pat) != len(labels):
        return False
    return all(p == "*" or p == s for p, s in zip(pat, labels))


def _between(lo, hi, include_lo: bool, include_hi: bool) -> Callable[[object], bool]:
    def check(v) -> bool:
        if v is None:
            return False
        above = v >= lo if include_lo else v > lo
        below = v <= hi if include_hi else v < hi
        return above and below

    return check


def predicate(node: dict) -> Pred:
    """Compile one query node into a row predicate."""
    (kind, body), = node.items()
    if kind == "query":
        return predicate(body)
    if kind in ("term", "prefix"):
        (name, value), = body.items()
        col = FIELDS.get(name)
        if col is None:
            return lambda r: False
        if kind == "term":
            return lambda r: r[col] == value
        return lambda r: r[col].startswith(value)
    if kind == "range":
        (name, b), = body.items()
        check = _between(b["from"], b["to"], b.get("include_from", True), b.get("include_to", True))
        col = GEO.get(name, FIELDS.get(name))
        if col is None:
            return lambda r: False
        return lambda r: check(r[col])
    if kind == "geo_range":
        lat = _between(body["latitude"]["from"], body["latitude"]["to"], True, True)
        lon = _between(body["longitude"]["from"], body["longitude"]["to"], True, True)
        return lambda r: lat(r[LAT]) and lon(r[LON])
    if kind == "wildcard":
        return lambda r: wildcard_match(body, r[PATH])
    if kind == "bool":
        must = [predicate(n) for n in body.get("must", [])]
        should = [predicate(n) for n in body.get("should", [])]
        must_not = [predicate(n) for n in body.get("must_not", [])]

        def check(r: Row) -> bool:
            if must:
                if not all(p(r) for p in must):
                    return False
            elif should and not any(p(r) for p in should):
                return False
            return not any(p(r) for p in must_not)

        return check
    if kind == "filtered":
        q = predicate(body["query"]) if "query" in body else (lambda r: True)
        f = predicate(body["filter"]) if "filter" in body else (lambda r: True)
        return lambda r: q(r) and f(r)
    raise ValueError(f"no oracle for {kind!r}")


class Scan:
    """Answers over a fixed row list; leaf scans are memoised by their JSON."""

    def __init__(self, rows: list[Row]) -> None:
        self.rows = rows
        self.universe = frozenset(range(len(rows)))
        self._leaves: dict[str, frozenset[int]] = {}

    def ids(self, node: dict) -> frozenset[int]:
        (kind, body), = node.items()
        if kind == "query":
            return self.ids(body)
        if kind == "bool":
            if body.get("must"):
                out = self.universe
                for n in body["must"]:
                    out &= self.ids(n)
            elif body.get("should"):
                out = frozenset()
                for n in body["should"]:
                    out |= self.ids(n)
            else:
                out = self.universe
            for n in body.get("must_not", []):
                out -= self.ids(n)
            return out
        if kind == "filtered":
            q = self.ids(body["query"]) if "query" in body else self.universe
            f = self.ids(body["filter"]) if "filter" in body else self.universe
            return q & f
        key = repr(node)
        if key not in self._leaves:
            pred = predicate(node)
            self._leaves[key] = frozenset(i for i, r in enumerate(self.rows) if pred(r))
        return self._leaves[key]

    def sorted_rows(self, node: dict) -> list[Row]:
        return sorted((self.rows[i] for i in self.ids(node)), key=sort_key)


def sort_key(row: Row) -> tuple[str, str, str]:
    return (row[DOMAIN], row[INSTANCE], row[PATH])


def hit(row: Row) -> tuple:
    """The fields a query reply shows for one row."""
    return (row[DOMAIN], row[INSTANCE], row[PATH], row[LAT], row[LON])


def reply_hits(results: list[dict]) -> list[tuple]:
    out = []
    for h in results:
        geo = h["geo"]
        out.append((h["domain"], h["instance"], h["service_path"],
                    geo["lat"] if geo else None, geo["lon"] if geo else None))
    return out


def discover(rows: list[Row], pattern: str) -> list[str]:
    """Domains with a live pointer matching the pattern, in name order."""
    return sorted({r[DOMAIN].lower() for r in rows if wildcard_match(pattern, r[PATH])})
