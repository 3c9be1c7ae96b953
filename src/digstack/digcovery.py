"""The global lookup core: domain registry, pointer index, query engine.

Local directories publish pointer summaries here; clients ask either a
JSON query tree (terms, prefixes, ranges, bool combinators, filtered
wrappers, geo boxes, wildcards) or a service-path pattern, and get back
the domains that can answer, with their directory endpoints.  The core
never serves full records; resolution always goes back to the owning
directory.

Filter caching follows the engine convention: term, prefix and range
filters are cached by default; geo filters, numeric ranges over loaded
field data (the coordinate fields), scripts, wildcards and the and/or/not
combinators are not.

A result is an integer bitmask over one snapshot's rows: bit i stands for
row i, and the rows are in result order, so combinators are `&`, `|` and
`& ~`, and a page is the lowest set bits, found without a sort.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Callable, Sequence, Union

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


_NUMBER = (int, float)  # the types of a JSON number; a bool is neither


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    @classmethod
    def from_dict(cls, data) -> GeoPoint | None:
        """A wire `{"lat": ..., "lon": ...}`; None for a missing or empty
        one.  Each coordinate must be a finite JSON number, and a bool is
        not one (Python's `json` reads `1e400` as infinity and takes `NaN`,
        which no reply could carry as JSON)."""
        if not data:
            return None
        lat, lon = data["lat"], data["lon"]
        if type(lat) not in _NUMBER or type(lon) not in _NUMBER:
            raise TypeError("geo lat and lon must be numbers")
        if not all(type(v) is int or math.isfinite(v) for v in (lat, lon)):
            raise ValueError(f"geo lat and lon must be finite ({lat}, {lon})")
        return cls(lat, lon)

    def to_dict(self) -> dict:
        return {"lat": self.lat, "lon": self.lon}


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
    # the row's query-result JSON, rendered by the HTTP front on first use
    # and kept for every later reply; not part of the row's value
    result_json: str | None = field(default=None, init=False, repr=False, compare=False)

    def key(self) -> tuple[str, str, str]:
        return (self.domain, self.instance, self.service_path)

    def to_dict(self) -> dict:
        data = {
            "instance": self.instance,
            "service_path": self.service_path,
            "domain": self.domain,
            "rt": self.rt,
            "geo": self.geo.to_dict() if self.geo else None,
            "revision": self.revision,
        }
        if self.removed:
            data["removed"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> PointerSummary:
        if not isinstance(data, dict):
            raise TypeError(f"a pointer summary is a JSON object, not {type(data).__name__}")
        instance, path, domain, rt = data["instance"], data["service_path"], data["domain"], data.get("rt", "")
        if not (isinstance(instance, str) and isinstance(path, str)
                and isinstance(domain, str) and isinstance(rt, str)):
            raise TypeError("instance, service_path, domain and rt must be strings")
        revision, removed = data.get("revision", 0), data.get("removed", False)
        if type(revision) is not int or type(removed) is not bool:
            raise TypeError("revision must be an integer and removed a bool")
        return cls(instance, path, domain, rt, GeoPoint.from_dict(data.get("geo")), revision, removed)


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
        if not (isinstance(data["domain"], str) and isinstance(data["host"], str)):
            raise TypeError("domain and host must be strings")
        dns_port, http_port = data["dns_port"], data.get("http_port", 0)
        if type(dns_port) is not int or type(http_port) is not int:
            raise TypeError("dns_port and http_port must be integers")
        return cls(
            domain=data["domain"],
            host=data["host"],
            dns_port=dns_port,
            http_port=http_port,
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
    # the pattern, parsed once: whether a service path matches it
    matches: Callable[[str], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matches", path_matcher(self.pattern))


def path_matcher(pattern: str) -> Callable[[str], bool]:
    """Parse a service-path pattern once; the returned function tells
    whether a dotted service path matches it, label by label.

    ``*`` matches exactly one label; a trailing lone ``*`` matches one
    or more labels, so ``*.*`` covers every realistic service path.
    """
    if not pattern:
        raise MalformedPattern("empty pattern")
    labels = pattern.lower().split(".")
    if any(not label for label in labels):
        raise MalformedPattern(f"empty label in pattern {pattern!r}")
    open_ended = labels[-1] == "*"
    if open_ended:
        labels.pop()

    def matches(path: str) -> bool:
        s_labels = path.split(".")
        if open_ended:
            if len(s_labels) <= len(labels):
                return False
        elif len(s_labels) != len(labels):
            return False
        return all(p == "*" or p == s.lower() for p, s in zip(labels, s_labels))

    return matches


def match_service_path(pattern: str, path: str) -> bool:
    """Whether a dotted service path matches a pattern (see `path_matcher`)."""
    return path_matcher(pattern)(path)


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
    """LRU map from filter nodes to result masks.

    Ids are positions in one snapshot's order and mean nothing in another,
    so each `_Snapshot` owns its cache: an entry can only be stored by, and
    served to, a reader of the snapshot that computed it.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Query, int] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, node: Query) -> int | None:
        with self._lock:
            mask = self._entries.get(node)
            if mask is not None:
                self._entries.move_to_end(node)
            return mask

    def put(self, node: Query, mask: int) -> None:
        with self._lock:
            self._entries[node] = mask
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


_MANY_IDS = 512  # from this many ids on, a mask is quicker parsed from binary digits
_BIT = tuple(1 << bit for bit in range(8))
_AXIS_STEP = 128  # ids between two prefix masks of a geo axis
_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits as `compress` selectors
_NONZERO = bytes(1) + b"\1" * 255  # a byte with any bit set → 1
_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256))  # set bits per byte


def _mask(ids: Sequence[int]) -> int:
    """The bitmask with bit i set for each id i in `ids`, in any order."""
    if not ids:
        return 0
    top = max(ids)
    if len(ids) < _MANY_IDS:
        data = bytearray(top // 8 + 1)
        for sid in ids:
            data[sid >> 3] |= _BIT[sid & 7]
        return int.from_bytes(data, "little")
    digits = bytearray(b"0") * (top + 1)  # most significant bit first
    for sid in ids:
        digits[top - sid] = 49  # "1"
    return int(digits, 2)


class _Snapshot:
    """Immutable inverted index over one generation of summaries.

    Ids are positions in (domain, instance, service path) order, the order
    results are promised in, and a result is a mask with bit i set for
    row i, so a result's set bits, lowest first, are its rows in order.
    Each field value keeps the ascending list of its ids; a leaf node
    makes its mask from those lists when it is evaluated.  Everything
    valid for this generation only belongs to the snapshot, its filter
    cache, path and geo-axis masks and path → domain table included, and
    goes when the snapshot is replaced.
    """

    def __init__(self, summaries: list[PointerSummary], generation: int) -> None:
        self.generation = generation
        self.summaries = summaries
        self.cache = FilterCache()
        self._path_domains: dict[str, frozenset[str]] | None = None
        self._path_masks: dict[str, int] | None = None
        self._axis_prefixes: dict[str, list[int]] = {}
        self.universe = (1 << len(summaries)) - 1
        self.postings: dict[str, dict[str, list[int]]] = {f: {} for f in TERM_FIELDS}
        for sid, s in enumerate(summaries):
            for f in TERM_FIELDS:
                self.postings[f].setdefault(getattr(s, f), []).append(sid)
        self.sorted_values = {f: sorted(vals) for f, vals in self.postings.items()}
        # sort positions by a coordinate list: float compares, not (value, id)
        # tuples; the stable sort keeps equal values in id order
        tagged = [(sid, s.geo) for sid, s in enumerate(summaries) if s.geo]
        self.geo_axis = {}
        for axis, coordinate in zip(GEO_FIELDS, ("lat", "lon")):
            values = [getattr(geo, coordinate) for _, geo in tagged]
            rank = sorted(range(len(values)), key=values.__getitem__)
            self.geo_axis[axis] = ([values[i] for i in rank], [tagged[i][0] for i in rank])

    def path_domains(self) -> dict[str, frozenset[str]]:
        """Each service path → the lowercased domains with a row on it;
        built on first use, as the filter cache fills."""
        table = self._path_domains
        if table is None:
            rows = self.summaries
            table = self._path_domains = {
                path: frozenset(rows[sid].domain.lower() for sid in ids)
                for path, ids in self.postings["service_path"].items()
            }
        return table

    def path_masks(self) -> dict[str, int]:
        """Each service path → the mask of its rows, which a wildcard
        unions; built on first use."""
        masks = self._path_masks
        if masks is None:
            masks = self._path_masks = {path: _mask(ids) for path, ids in self.postings["service_path"].items()}
        return masks

    def axis_prefixes(self, axis: str) -> list[int]:
        """Range-encoded masks of a geo axis: item j holds the first
        j * _AXIS_STEP ids in coordinate order; built on first use."""
        prefixes = self._axis_prefixes.get(axis)
        if prefixes is None:
            ids, prefixes = self.geo_axis[axis][1], [0]
            for start in range(0, len(ids) - _AXIS_STEP + 1, _AXIS_STEP):
                prefixes.append(prefixes[-1] | _mask(ids[start : start + _AXIS_STEP]))
            self._axis_prefixes[axis] = prefixes
        return prefixes

    def select(self, node: Query, stats: ExecutionStats | None, offset: int, limit: int | None) -> list[PointerSummary]:
        """One page of a node's rows; with `stats`, through the filter cache.

        A term's rows are its posting list, already in result order, so its
        page is a slice of that list.  With `stats` the term is still looked
        up in, and stored to, the cache: the reply counts the lookup, and a
        later compound reuses the entry.
        """
        if node.kind != "term":
            return self.page(self.evaluate(node, stats), offset, limit)
        if stats is not None:
            self.evaluate(node, stats)
        ids = self._posting(node)
        return [self.summaries[sid] for sid in ids[offset : None if limit is None else offset + limit]]

    def page(self, mask: int, offset: int, limit: int | None) -> list[PointerSummary]:
        """One page of a result: its rows, in result order, without a sort.

        A page that reaches past one row in 32 of the span between the
        result's lowest and highest bit takes the rows whose bit is set in
        one C pass.  Any other page walks the set bits up from the lowest,
        skipping zero bytes in C, until it has `offset + limit` of them.
        """
        rows = self.summaries
        count = mask.bit_count()
        stop = count if limit is None else min(count, offset + limit)
        if stop <= offset:
            return []
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        find = data.translate(_NONZERO).find
        at = find(1)  # the byte of the lowest set bit
        if stop << 2 > len(data) - at:
            flags = bin(mask >> (at << 3))[:1:-1].encode().translate(_FLAGS)
            return list(islice(compress(rows[at << 3 : mask.bit_length()], flags), offset, stop))
        ids: list[int] = []
        append = ids.append
        while len(ids) < stop:
            base = at << 3
            for bit in _BITS[data[at]]:
                append(base + bit)
            at = find(1, at + 1)
        return [rows[sid] for sid in ids[offset:stop]]

    # -- node evaluation over the index, one method per node kind --

    def _posting(self, node: Term) -> Sequence[int]:
        """A term's ids, ascending."""
        return self.postings.get(node.field, {}).get(node.value, ())

    def _term(self, node: Term, stats: ExecutionStats | None) -> int:
        return _mask(self._posting(node))

    def _prefix(self, node: Prefix, stats: ExecutionStats | None) -> int:
        if node.field not in self.postings:
            return 0
        postings, keys = self.postings[node.field], self.sorted_values[node.field]
        ids: list[int] = []
        for i in range(bisect_left(keys, node.value), len(keys)):
            if not keys[i].startswith(node.value):
                break
            ids += postings[keys[i]]
        return _mask(ids)

    def _axis_mask(self, node: Range) -> int:
        """The rows whose coordinate on a geo axis lies in the range: the
        difference of two prefix masks, plus the ids between their steps
        and the range's ends."""
        values, ids = self.geo_axis[node.field]
        lo = bisect_left(values, node.from_) if node.include_from else bisect_right(values, node.from_)
        hi = bisect_right(values, node.to_) if node.include_to else bisect_left(values, node.to_)
        first, last = -(-lo // _AXIS_STEP), hi // _AXIS_STEP
        if first >= last:
            return _mask(ids[lo:hi])
        prefixes = self.axis_prefixes(node.field)
        edges = ids[lo : first * _AXIS_STEP] + ids[last * _AXIS_STEP : hi]
        return prefixes[last] ^ prefixes[first] | _mask(edges)

    def _range(self, node: Range, stats: ExecutionStats | None) -> int:
        if node.field in GEO_FIELDS:
            return self._axis_mask(node)
        if node.field not in self.postings:
            return 0
        postings, keys = self.postings[node.field], self.sorted_values[node.field]
        lo = bisect_left(keys, node.from_) if node.include_from else bisect_right(keys, node.from_)
        hi = bisect_right(keys, node.to_) if node.include_to else bisect_left(keys, node.to_)
        return _mask([sid for key in keys[lo:hi] for sid in postings[key]])

    def _geo_range(self, node: GeoRange, stats: ExecutionStats | None) -> int:
        lat = self._axis_mask(Range("latitude", node.lat_from, node.lat_to))
        return lat & self._axis_mask(Range("longitude", node.lon_from, node.lon_to))

    def _wildcard(self, node: Wildcard, stats: ExecutionStats | None) -> int:
        result = 0
        for path, mask in self.path_masks().items():
            if node.matches(path):
                result |= mask
        return result

    def _bool(self, node: Bool, stats: ExecutionStats | None) -> int:
        if node.must:
            result = self.universe
            for sub in node.must:
                result &= self.evaluate(sub, stats)
        elif node.should:
            result = 0
            for sub in node.should:
                result |= self.evaluate(sub, stats)
        else:
            result = self.universe
        for sub in node.must_not:
            result &= ~self.evaluate(sub, stats)
        return result

    def _filtered(self, node: Filtered, stats: ExecutionStats | None) -> int:
        return self.evaluate(node.query, stats) & self.evaluate(node.filter, stats)

    def evaluate(self, node: Query, stats: ExecutionStats | None = None) -> int:
        """A node's result mask; with `stats`, through this snapshot's filter cache."""
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
                    rows = [table[key] for key in sorted(key for key, row in table.items() if not row.removed)]
                    self._snapshot = _Snapshot(rows, self._generation)
                snapshot = self._snapshot
        return snapshot

    # -- queries --

    def execute(self, query: Query, *, offset: int = 0, limit: int | None = None) -> list[PointerSummary]:
        """Run a query tree; the matching rows in (domain, instance, service
        path) order."""
        snapshot = self._read()
        return snapshot.select(query, None, offset, limit)

    def execute_cached(
        self, query: Query, *, offset: int = 0, limit: int | None = None
    ) -> tuple[list[PointerSummary], ExecutionStats]:
        """Same contract as `execute`, with the snapshot's filter cache engaged."""
        snapshot = self._read()
        stats = ExecutionStats()
        return snapshot.select(query, stats, offset, limit), stats

    def discover(self, pattern: str) -> list[DomainRecord]:
        """Domains with at least one live pointer matching the path pattern,
        in domain order.  Costs the snapshot's distinct paths, not its
        pointers."""
        matches = path_matcher(pattern)
        found: set[str] = set()
        for path, domains in self._read().path_domains().items():
            if matches(path):
                found |= domains
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
        try:
            bound = float(value)
        except OverflowError:  # an integer past the float range
            bound = math.inf
        if not math.isfinite(bound):
            raise MalformedQuery(f"{field_name} bound must be finite")
        return bound
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
        try:
            return GeoRange(*(_coerce_bound(axis, body[axis][end]) for axis in GEO_FIELDS for end in ("from", "to")))
        except (KeyError, TypeError):
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
