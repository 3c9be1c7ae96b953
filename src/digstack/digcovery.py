"""The global lookup core: domain registry, pointer index, query engine.

Local directories publish pointer summaries here; clients ask either a
JSON query tree (terms, prefixes, ranges, bool combinators, filtered
wrappers, geo boxes, wildcards) or a service-path pattern, and get back
the domains that can answer, with their directory endpoints.  The core
never serves full records; resolution always goes back to the owning
directory.

Filter caching follows the engine convention: term, prefix and range
filters are cached by default; geo filters, numeric ranges over loaded
field data (the coordinate fields), scripts, and the and/or/not
combinators are not.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence, Union

TERM_FIELDS = ("instance", "service_path", "domain", "rt")
GEO_FIELDS = ("latitude", "longitude")


class DigcoveryError(Exception):
    pass


class DuplicateDomain(DigcoveryError):
    pass


class UnknownDomain(DigcoveryError):
    pass


class MalformedQuery(DigcoveryError):
    pass


class MalformedPattern(DigcoveryError):
    pass


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float


@dataclass(frozen=True, slots=True)
class PointerSummary:
    """What a directory publishes per (instance, service path): enough to
    route a query, never the full record set."""

    instance: str
    service_path: str
    domain: str
    rt: str
    geo: GeoPoint | None = None
    revision: int = 0
    removed: bool = False

    def key(self) -> tuple[str, str, str]:
        return (self.domain, self.instance, self.service_path)

    def to_dict(self) -> dict:
        data = {
            "instance": self.instance,
            "service_path": self.service_path,
            "domain": self.domain,
            "rt": self.rt,
            "geo": {"lat": self.geo.lat, "lon": self.geo.lon} if self.geo else None,
            "revision": self.revision,
        }
        if self.removed:
            data["removed"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> PointerSummary:
        if not isinstance(data, dict):
            raise TypeError(f"a pointer summary is a JSON object, not {type(data).__name__}")
        geo = data.get("geo")
        return cls(
            instance=data["instance"],
            service_path=data["service_path"],
            domain=data["domain"],
            rt=data.get("rt", ""),
            geo=GeoPoint(geo["lat"], geo["lon"]) if geo else None,
            revision=int(data.get("revision", 0)),
            removed=bool(data.get("removed", False)),
        )


@dataclass(frozen=True)
class DomainRecord:
    """One registered domain and where its directory listens."""

    domain: str
    host: str
    dns_port: int
    http_port: int = 0
    owner: str = ""

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "host": self.host,
            "dns_port": self.dns_port,
            "http_port": self.http_port,
            "owner": self.owner,
        }

    @classmethod
    def from_dict(cls, data: dict) -> DomainRecord:
        return cls(
            domain=data["domain"],
            host=data["host"],
            dns_port=int(data["dns_port"]),
            http_port=int(data.get("http_port", 0)),
            owner=str(data.get("owner", "")),
        )


# --- query tree -----------------------------------------------------------------


class Query:
    """Base for query tree nodes.  Each node class names its DSL kind and
    whether its result set may live in the filter cache; a frozen node is
    its own cache key."""

    __slots__ = ()
    kind = ""
    cached = False


@dataclass(frozen=True)
class Term(Query):
    kind = "term"
    cached = True
    field: str
    value: str


@dataclass(frozen=True)
class Prefix(Query):
    kind = "prefix"
    cached = True
    field: str
    value: str


@dataclass(frozen=True)
class Range(Query):
    kind = "range"
    cached = True
    field: str
    from_: Union[str, float]
    to_: Union[str, float]
    include_from: bool = True
    include_to: bool = True

    def __post_init__(self) -> None:
        numeric = isinstance(self.from_, (int, float)) and isinstance(self.to_, (int, float))
        textual = isinstance(self.from_, str) and isinstance(self.to_, str)
        if not numeric and not textual:
            raise MalformedQuery("range bounds must be both numeric or both strings")
        if self.field in GEO_FIELDS and not numeric:
            raise MalformedQuery(f"range over {self.field} needs numeric bounds")
        if self.from_ > self.to_:
            raise MalformedQuery(f"range lower bound {self.from_!r} above upper bound {self.to_!r}")


@dataclass(frozen=True)
class Bool(Query):
    kind = "bool"
    must: tuple[Query, ...] = ()
    should: tuple[Query, ...] = ()
    must_not: tuple[Query, ...] = ()

    def __post_init__(self) -> None:
        for name in ("must", "should", "must_not"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))


@dataclass(frozen=True)
class Filtered(Query):
    kind = "filtered"
    query: Query
    filter: Query


@dataclass(frozen=True)
class GeoRange(Query):
    kind = "geo_range"
    lat_from: float
    lat_to: float
    lon_from: float
    lon_to: float

    def __post_init__(self) -> None:
        if self.lat_from > self.lat_to or self.lon_from > self.lon_to:
            raise MalformedQuery("geo box bounds inverted")


@dataclass(frozen=True)
class Wildcard(Query):
    kind = "wildcard"
    pattern: str

    def __post_init__(self) -> None:
        _check_pattern(self.pattern)


def _check_pattern(pattern: str) -> list[str]:
    if not pattern:
        raise MalformedPattern("empty pattern")
    labels = pattern.split(".")
    if any(not label for label in labels):
        raise MalformedPattern(f"empty label in pattern {pattern!r}")
    return labels


def match_service_path(pattern: str, path: str) -> bool:
    """Label-wise pattern match over a dotted service path.

    ``*`` matches exactly one label; a trailing lone ``*`` matches one
    or more labels, so ``*.*`` covers every realistic service path.
    """
    p_labels = _check_pattern(pattern)
    s_labels = path.split(".")
    if p_labels[-1] == "*":
        head = p_labels[:-1]
        if len(s_labels) < len(head) + 1:
            return False
        pairs = zip(head, s_labels)
    else:
        if len(p_labels) != len(s_labels):
            return False
        pairs = zip(p_labels, s_labels)
    return all(p == "*" or p.lower() == s.lower() for p, s in pairs)


# --- cache ---------------------------------------------------------------------------


def node_kind(node: Query) -> str:
    return node.kind


# the policy by kind name; "script" is a kind this engine never evaluates
_CACHEABLE = {cls.kind: cls.cached for cls in (Term, Prefix, Range, Bool, Filtered, GeoRange, Wildcard)}
_CACHEABLE["script"] = False


def cacheability(node: Query | str) -> bool:
    """Whether a node's result set may live in the filter cache.

    Terms, prefixes and index-backed ranges cache.  Geo boxes, numeric
    ranges over the coordinate fields (loaded field data), scripts,
    wildcards and the bool/filtered combinators do not.
    """
    if isinstance(node, str):
        if node not in _CACHEABLE:
            raise MalformedQuery(f"unknown node kind {node!r}")
        return _CACHEABLE[node]
    return node.cached and not (node.kind == "range" and node.field in GEO_FIELDS)


class FilterCache:
    """LRU map from filter nodes to posting sets.

    Ids are positions in one snapshot's order and mean nothing in another,
    so each `_Snapshot` owns its cache: an entry can only be stored by, and
    served to, a reader of the snapshot that computed it.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Query, frozenset[int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, node: Query) -> frozenset[int] | None:
        with self._lock:
            if node not in self._entries:
                return None
            self._entries.move_to_end(node)
            return self._entries[node]

    def put(self, node: Query, ids: frozenset[int]) -> None:
        with self._lock:
            self._entries[node] = ids
            self._entries.move_to_end(node)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class ExecutionStats:
    """Per-execution cache events, in evaluation order."""

    events: list[tuple[Query, bool]] = field(default_factory=list)

    def record(self, node: Query, hit: bool) -> None:
        self.events.append((node, hit))

    @property
    def hits(self) -> int:
        return sum(1 for _, hit in self.events if hit)

    @property
    def misses(self) -> int:
        return sum(1 for _, hit in self.events if not hit)


# --- index snapshot --------------------------------------------------------------------


class _Snapshot:
    """Immutable inverted index over one generation of summaries.

    Ids are positions in (domain, instance, service path) order, the order
    results are promised in, so sorting a result's ids orders its rows.
    Everything valid for this generation only belongs to the snapshot,
    its filter cache included, and goes when the snapshot is replaced.
    """

    def __init__(self, summaries: list[PointerSummary], generation: int) -> None:
        self.generation = generation
        self.summaries = summaries
        self.cache = FilterCache()
        self.universe = frozenset(range(len(summaries)))
        self.postings: dict[str, dict[str, set[int]]] = {f: {} for f in TERM_FIELDS}
        for sid, s in enumerate(summaries):
            for f in TERM_FIELDS:
                self.postings[f].setdefault(getattr(s, f), set()).add(sid)
        self.sorted_values = {f: sorted(vals) for f, vals in self.postings.items()}
        # sort positions by a coordinate list: float compares, not (value, id)
        # tuples; the stable sort keeps equal values in id order
        tagged = [(sid, s.geo) for sid, s in enumerate(summaries) if s.geo]
        self.geo_axis = {}
        for axis, coordinate in zip(GEO_FIELDS, ("lat", "lon")):
            values = [getattr(geo, coordinate) for _, geo in tagged]
            rank = sorted(range(len(values)), key=values.__getitem__)
            self.geo_axis[axis] = ([values[i] for i in rank], [tagged[i][0] for i in rank])

    def page(self, ids: frozenset[int], offset: int, limit: int | None) -> list[PointerSummary]:
        """One page of a result: its rows, in result order."""
        window = sorted(ids)[offset : offset + limit if limit is not None else None]
        return [self.summaries[sid] for sid in window]

    # -- node evaluation over the index, one method per node kind --

    def _term(self, node: Term, stats: ExecutionStats | None) -> frozenset[int]:
        if node.field in self.postings:
            return frozenset(self.postings[node.field].get(node.value, ()))
        return frozenset()

    def _prefix(self, node: Prefix, stats: ExecutionStats | None) -> frozenset[int]:
        if node.field not in self.postings:
            return frozenset()
        keys = self.sorted_values[node.field]
        lo = bisect_left(keys, node.value)
        result: set[int] = set()
        for i in range(lo, len(keys)):
            if not keys[i].startswith(node.value):
                break
            result |= self.postings[node.field][keys[i]]
        return frozenset(result)

    def _range(self, node: Range, stats: ExecutionStats | None) -> frozenset[int]:
        if node.field in GEO_FIELDS:
            values, ids = self.geo_axis[node.field]
            lo = bisect_left(values, node.from_) if node.include_from else bisect_right(values, node.from_)
            hi = bisect_right(values, node.to_) if node.include_to else bisect_left(values, node.to_)
            return frozenset(ids[lo:hi])
        if node.field not in self.postings:
            return frozenset()
        keys = self.sorted_values[node.field]
        lo = bisect_left(keys, node.from_) if node.include_from else bisect_right(keys, node.from_)
        hi = bisect_right(keys, node.to_) if node.include_to else bisect_left(keys, node.to_)
        result: set[int] = set()
        for key in keys[lo:hi]:
            result |= self.postings[node.field][key]
        return frozenset(result)

    def _geo_range(self, node: GeoRange, stats: ExecutionStats | None) -> frozenset[int]:
        lat = self._range(Range("latitude", node.lat_from, node.lat_to), stats)
        lon = self._range(Range("longitude", node.lon_from, node.lon_to), stats)
        return lat & lon

    def _wildcard(self, node: Wildcard, stats: ExecutionStats | None) -> frozenset[int]:
        result: set[int] = set()
        for path, ids in self.postings["service_path"].items():
            if match_service_path(node.pattern, path):
                result |= ids
        return frozenset(result)

    def _bool(self, node: Bool, stats: ExecutionStats | None) -> frozenset[int]:
        if node.must:
            result = self.universe
            for sub in node.must:
                result = result & self.evaluate(sub, stats)
        elif node.should:
            result = frozenset()
            for sub in node.should:
                result = result | self.evaluate(sub, stats)
        else:
            result = self.universe
        for sub in node.must_not:
            result = result - self.evaluate(sub, stats)
        return result

    def _filtered(self, node: Filtered, stats: ExecutionStats | None) -> frozenset[int]:
        return self.evaluate(node.query, stats) & self.evaluate(node.filter, stats)

    def evaluate(self, node: Query, stats: ExecutionStats | None = None) -> frozenset[int]:
        """A node's ids; with `stats`, through this snapshot's filter cache."""
        if stats is None or not cacheability(node):
            return getattr(self, "_" + node.kind)(node, stats)
        result = self.cache.get(node)
        stats.record(node, result is not None)
        if result is None:
            result = getattr(self, "_" + node.kind)(node, stats)
            self.cache.put(node, result)
        return result


# --- the core -------------------------------------------------------------------------


class Digcovery:
    """Domain registry plus pointer index; one writer, many readers.

    `ingest` applies a batch to the pointer table under the writer lock.
    The first query after it builds the next immutable snapshot under
    the same lock, so executors never see a half-applied batch, every
    query sees each batch whose ingest has returned, and a run of
    batches with no query between them costs one build.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._domains: dict[str, DomainRecord] = {}
        # every key ever ingested; a removed row keeps blocking stale replays
        self._pointers: dict[tuple, PointerSummary] = {}
        self._generation = 0
        self._snapshot = _Snapshot([], 0)

    # -- domains --

    def register_domain(self, record: DomainRecord) -> None:
        with self._lock:
            key = record.domain.lower()
            if key in self._domains:
                raise DuplicateDomain(record.domain)
            self._domains[key] = record

    def domains(self) -> list[DomainRecord]:
        return sorted(self._domains.values(), key=lambda d: d.domain)

    # -- ingest --

    def ingest(self, domain: str, summaries: Sequence[PointerSummary]) -> int:
        """Apply a pointer batch from one domain's directory.

        Revision replay is idempotent: a summary at or below the stored
        revision is ignored.  A removal marker drops the pointer and is
        stored in its place, so a stale replay of the pointer is ignored
        too.  A batch with a summary for another domain is refused whole.
        Returns how many summaries changed the set of live pointers.
        """
        with self._lock:
            if domain.lower() not in self._domains:
                raise UnknownDomain(domain)
            for summary in summaries:
                if summary.domain.lower() != domain.lower():
                    raise ValueError(f"summary for {summary.domain!r} in batch for {domain!r}")
            accepted = 0
            for summary in summaries:
                stored = self._pointers.get(key := summary.key())
                if stored is None or summary.revision > stored.revision:
                    self._pointers[key] = summary
                    accepted += not summary.removed or (stored is not None and not stored.removed)
            if accepted:
                self._generation += 1
            return accepted

    def _read(self) -> _Snapshot:
        """The snapshot of the latest ingest, built on first use."""
        snapshot = self._snapshot
        if snapshot.generation != self._generation:
            with self._lock:
                if self._snapshot.generation != self._generation:
                    table = self._pointers
                    rows = [table[key] for key in sorted(table) if not table[key].removed]
                    self._snapshot = _Snapshot(rows, self._generation)
                snapshot = self._snapshot
        return snapshot

    # -- queries --

    def execute(self, query: Query, *, offset: int = 0, limit: int | None = None) -> list[PointerSummary]:
        """Run a query tree; the matching rows in (domain, instance, service
        path) order."""
        snapshot = self._read()
        return snapshot.page(snapshot.evaluate(query), offset, limit)

    def execute_cached(
        self, query: Query, *, offset: int = 0, limit: int | None = None
    ) -> tuple[list[PointerSummary], ExecutionStats]:
        """Same contract as `execute`, with the snapshot's filter cache engaged."""
        snapshot = self._read()
        stats = ExecutionStats()
        return snapshot.page(snapshot.evaluate(query, stats), offset, limit), stats

    def discover(self, pattern: str) -> list[DomainRecord]:
        """Domains with at least one live pointer matching the path pattern."""
        _check_pattern(pattern)
        snapshot = self._read()
        ids = snapshot.evaluate(Wildcard(pattern))
        found = {snapshot.summaries[i].domain.lower() for i in ids}
        return [self._domains[d] for d in sorted(found) if d in self._domains]


# --- JSON query DSL ---------------------------------------------------------------------


def _parse_nodes(body) -> tuple[Query, ...]:
    if isinstance(body, dict):
        return (parse_query(body),)
    if isinstance(body, list):
        return tuple(parse_query(item) for item in body)
    raise MalformedQuery(f"expected a clause or clause list, got {body!r}")


def _coerce_bound(field_name: str, value) -> str | float:
    if field_name in GEO_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedQuery(f"{field_name} bound must be numeric")
        return float(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, str):
        return value
    raise MalformedQuery(f"bad range bound {value!r}")


def parse_query(obj: Union[str, dict]) -> Query:
    """Build a query tree from its JSON form.

    Accepts the conventional shapes: ``{"query": {...}}`` wrapping,
    ``term``/``prefix``/``range`` leaves, ``bool`` with must/should/
    must_not, ``filtered`` with query+filter, ``geo_range``, and
    ``wildcard``.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as err:
            raise MalformedQuery(f"bad JSON: {err}") from None
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MalformedQuery("a query node is a single-key object")
    kind, body = next(iter(obj.items()))
    if kind == "query":
        return parse_query(body)
    if kind in ("term", "prefix"):
        if not isinstance(body, dict) or len(body) != 1:
            raise MalformedQuery(f"{kind} wants a single field: value pair")
        fname, value = next(iter(body.items()))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = str(value)
        if not isinstance(value, str):
            raise MalformedQuery(f"{kind} value must be a string")
        return Term(fname, value) if kind == "term" else Prefix(fname, value)
    if kind == "range":
        if not isinstance(body, dict) or len(body) != 1:
            raise MalformedQuery("range wants a single field")
        fname, bounds = next(iter(body.items()))
        if not isinstance(bounds, dict) or "from" not in bounds or "to" not in bounds:
            raise MalformedQuery("range wants from and to bounds")
        return Range(
            fname,
            _coerce_bound(fname, bounds["from"]),
            _coerce_bound(fname, bounds["to"]),
            include_from=bool(bounds.get("include_from", True)),
            include_to=bool(bounds.get("include_to", True)),
        )
    if kind == "bool":
        if not isinstance(body, dict):
            raise MalformedQuery("bool wants an object")
        unknown = set(body) - {"must", "should", "must_not"}
        if unknown:
            raise MalformedQuery(f"unknown bool clause {sorted(unknown)}")
        return Bool(
            must=_parse_nodes(body.get("must", [])),
            should=_parse_nodes(body.get("should", [])),
            must_not=_parse_nodes(body.get("must_not", [])),
        )
    if kind == "filtered":
        if not isinstance(body, dict):
            raise MalformedQuery("filtered wants an object")
        query = parse_query(body["query"]) if "query" in body else Bool()
        filter_ = parse_query(body["filter"]) if "filter" in body else Bool()
        return Filtered(query, filter_)
    if kind == "geo_range":
        if not isinstance(body, dict) or set(body) != {"latitude", "longitude"}:
            raise MalformedQuery("geo_range wants latitude and longitude bounds")
        lat, lon = body["latitude"], body["longitude"]
        try:
            return GeoRange(float(lat["from"]), float(lat["to"]), float(lon["from"]), float(lon["to"]))
        except (KeyError, TypeError, ValueError):
            raise MalformedQuery("geo_range bounds must be numeric from/to pairs") from None
    if kind == "wildcard":
        if isinstance(body, str):
            return Wildcard(body)
        if isinstance(body, dict) and len(body) == 1:
            (value,) = body.values()
            if isinstance(value, str):
                return Wildcard(value)
        raise MalformedQuery("wildcard wants a pattern string")
    raise MalformedQuery(f"unknown query kind {kind!r}")
