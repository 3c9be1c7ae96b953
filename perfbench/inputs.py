"""Seeded input generators for the three workloads.

Everything here is plain data derived from ``(seed, scale)``: corpora as
tuples, query pools as JSON-ready dicts, DNS requests as small records.
The same seed always yields the same inputs, so two runs with one seed
send byte-identical request sequences.  Structure that decides cost
(corpus sizes, kind shares, the kind at each popularity rank, path-size
skew) is fixed; the seed only picks names, values and coordinates, which
keeps run-to-run spread across seeds small.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, replace

# (stem, rt, service paths, weight): one row per kind of smart object.
KINDS = (
    ("light", "light", ("_lamp._sub._coap._udp", "_dimmer._lamp._sub._coap._udp"), 20),
    ("thermo", "temperature-c", ("_thermometer._sub._coap._udp",), 16),
    ("cam", "video", ("_camera._sub._coap._udp", "_camera._http._tcp"), 8),
    ("hygro", "humidity", ("_hygro._sub._coap._udp",), 10),
    ("pir", "presence", ("_pir._sub._coap._udp",), 10),
    ("meter", "power", ("_meter._sub._coap._udp",), 10),
    ("co2", "co2", ("_co2._sub._coap._udp",), 8),
    ("lock", "door", ("_lock._sub._coap._udp", "_lock._http._tcp"), 6),
    ("printer", "printer", ("_printer._http._tcp",), 4),
    ("fan", "fan-speed", ("_fan._coap._udp",), 8),
)
RTS = tuple(k[1] for k in KINDS)
ALL_PATHS = tuple(sorted({p for k in KINDS for p in k[2]}))
CAMPUS_WORDS = (
    "north", "south", "east", "west", "harbour", "hill", "river", "forest",
    "lake", "meadow", "valley", "bridge", "tower", "garden", "market", "field",
    "stone", "cedar", "maple", "willow", "aspen", "birch", "delta", "summit",
)
PATTERNS = (
    "*.*", "_lamp.*", "_dimmer.*", "_camera.*", "_lock.*", "_fan.*", "*._http._tcp",
    "*._coap._udp", "*._sub._coap._udp", "*.*.*.*", "_thermometer._sub._coap._udp",
    "_printer._http._tcp",
)


def discover_patterns() -> list[str]:
    """Service patterns for discovery: every path whole, by its first label,
    by its tail, plus a few broad and a few matching nothing."""
    out = list(PATTERNS) + ["*", "*.*.*", "_nothing.*", "_ghost._sub.*", "*._tcp._udp"]
    for path in ALL_PATHS:
        labels = path.split(".")
        out += [path, labels[0] + ".*", "*." + ".".join(labels[1:])]
    return list(dict.fromkeys(out))


# Row layout shared with the oracle: a pointer summary as a plain tuple.
DOMAIN, INSTANCE, PATH, RT, LAT, LON = range(6)


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def zipf_cdf(n: int, s: float = 1.0) -> list[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    acc, out = 0.0, []
    for w in weights:
        acc += w / total
        out.append(acc)
    out[-1] = 1.0
    return out


GOLDEN = (5 ** 0.5 - 1) / 2


def evenly(seed: int, purpose: str):
    """Endless sequence in [0, 1) that covers the interval evenly: golden-ratio
    steps from a seeded start.  Any stretch of it holds each share of the
    mix almost exactly, so short windows see the same mix on every seed."""
    u = rng_for(seed, purpose).random()
    while True:
        yield u
        u = (u + GOLDEN) % 1.0


def apportion(total: int, weights: list[float], rng: random.Random) -> list[int]:
    """`total` indices, index k appearing in proportion to weights[k]
    (largest remainder), in seeded order."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda k: (counts[k] - weights[k] * scale, k))
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    out = [k for k, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def interleave(groups: dict[str, list]) -> list:
    """Merge per-kind lists so each kind spreads evenly over the ranks.

    Item i of a kind with n items sits at fractional position (i + 0.5) / n;
    the kind at every popularity rank therefore depends only on the
    counts, never on the seed.
    """
    ranked = [
        ((i + 0.5) / len(items), order, item)
        for order, items in enumerate(groups.values())
        for i, item in enumerate(items)
    ]
    ranked.sort(key=lambda r: (r[0], r[1]))
    return [item for _, _, item in ranked]


# --- campus corpus (campus_search, publish_churn) -----------------------------------


@dataclass(frozen=True)
class CampusObject:
    domain: str
    instance: str
    kind: int
    lat: float | None
    lon: float | None

    @property
    def key(self) -> tuple[str, str]:
        return (self.domain, self.instance)

    @property
    def rt(self) -> str:
        return KINDS[self.kind][1]

    @property
    def paths(self) -> tuple[str, ...]:
        return KINDS[self.kind][2]

    def rows(self) -> list[tuple]:
        return [(self.domain, self.instance, p, self.rt, self.lat, self.lon) for p in self.paths]


@dataclass
class Campus:
    domains: list[str]
    centers: dict[str, tuple[float, float]]
    objects: list[CampusObject]

    def rows(self) -> list[tuple]:
        return [row for obj in self.objects for row in obj.rows()]


def campus_domains(seed: int, count: int) -> tuple[list[str], dict[str, tuple[float, float]]]:
    rng = rng_for(seed, "domains")
    words = rng.sample(CAMPUS_WORDS, min(count, len(CAMPUS_WORDS)))
    domains = [f"rd.c{i:02d}-{words[i % len(words)]}.example" for i in range(count)]
    centers = {d: (round(rng.uniform(37.0, 43.0), 4), round(rng.uniform(-8.0, 3.0), 4)) for d in domains}
    return domains, centers


def make_object(rng: random.Random, domain: str, number: int, center: tuple[float, float],
                kind: int | None = None) -> CampusObject:
    if kind is None:
        kind = rng.choices(range(len(KINDS)), weights=[k[3] for k in KINDS])[0]
    lat = lon = None
    if rng.random() < 0.8:
        lat = round(center[0] + rng.uniform(-0.01, 0.01), 6)
        lon = round(center[1] + rng.uniform(-0.01, 0.01), 6)
    return CampusObject(domain, f"{KINDS[kind][0]}{number:05d}", kind, lat, lon)


def campus(seed: int, domains: int, pointers: int) -> Campus:
    """About `pointers` summaries spread evenly over `domains` domains."""
    names, centers = campus_domains(seed, domains)
    rng = rng_for(seed, "campus")
    weights = [k[3] for k in KINDS]
    paths_per_object = sum(w * len(k[2]) for w, k in zip(weights, KINDS)) / sum(weights)
    per_domain = max(1, round(pointers / domains / paths_per_object))
    objects = []
    for domain in names:
        for number, kind in enumerate(apportion(per_domain, weights, rng)):
            objects.append(make_object(rng, domain, number, centers[domain], kind))
    return Campus(names, centers, objects)


# Zipf exponent of query popularity: repeats for the filter cache, without
# letting the few top-ranked queries decide most of a run's cost.  An
# assumption, not fitted to any traffic: the project has no query log.
# It sets the filter-cache hit share.
POOL_ZIPF = 0.8

# Kind counts of the full-size query pool; smaller pools keep the
# proportions.  Also an assumption: enough of each kind for its own
# per-layer timing, with narrow instance lookups the most numerous.
POOL_SHARES = {
    "term_instance": 78,
    "term_rt": 12,
    "term_domain": 15,
    "prefix": 30,
    "range": 24,
    "geo_range": 24,
    "wildcard": 21,
    "bool": 24,
    "filtered": 21,
    "discover": 30,
}


PAGE = 100  # results per query reply, the server's default page


@dataclass(frozen=True)
class PoolEntry:
    """One distinct request: an HTTP query body or a discover pattern."""

    kind: str
    query: dict | None = None
    offset: int = 0
    pattern: str | None = None

    def body(self) -> dict:
        return {"query": self.query, "offset": self.offset, "limit": PAGE}


def _box(rng: random.Random, center: tuple[float, float], half: float) -> dict:
    lat = center[0] + rng.uniform(-0.006, 0.006)
    lon = center[1] + rng.uniform(-0.006, 0.006)
    return {
        "latitude": {"from": round(lat - half, 6), "to": round(lat + half, 6)},
        "longitude": {"from": round(lon - half, 6), "to": round(lon + half, 6)},
    }


def query_pool(seed: int, camp: Campus, size: int) -> list[PoolEntry]:
    """Distinct campus queries in popularity order (rank 0 is the most asked).

    Item i of each kind takes shape i modulo the kind's shapes, so what a
    query at a given rank costs does not depend on the seed; the seed
    only picks the names, values and coordinates inside each shape.
    """
    rng = rng_for(seed, "pool")
    full = sum(POOL_SHARES.values())
    counts = {k: max(1, round(v * size / full)) for k, v in POOL_SHARES.items()}
    instances = sorted({o.instance for o in camp.objects})
    by_stem = {k[0]: [n for n in instances if n.startswith(k[0]) and n[len(k[0])].isdigit()] for k in KINDS}

    def named(i: int) -> str:
        """An instance name whose kind cycles with i; the seed picks the number."""
        return rng.choice(by_stem[KINDS[i % len(KINDS)][0]])

    doms = camp.domains
    patterns = discover_patterns()
    makers = {
        "term_instance": lambda i: PoolEntry("term", {"term": {"instance": named(i)}}),
        "term_rt": lambda i: PoolEntry("term", {"term": {"rt": RTS[i % 6]}}, (0, 100)[i // 6 % 2]),
        "term_domain": lambda i: PoolEntry("term", {"term": {"domain": rng.choice(doms)}}, (0, 0, 200)[i % 3]),
        "prefix": lambda i: _prefix(i, named(i // 5 * 3 + i % 5)),
        "range": lambda i: _range(rng, i, instances, named(i // 4 * 3 + i % 4), doms),
        "geo_range": lambda i: PoolEntry(
            "geo_range", {"geo_range": _box(rng, camp.centers[rng.choice(doms)], (0.002, 0.004)[i % 2])}
        ),
        "wildcard": lambda i: PoolEntry("wildcard", {"wildcard": PATTERNS[i % len(PATTERNS)]},
                                        (0, 100)[i // len(PATTERNS) % 2]),
        "bool": lambda i: _bool(rng, i, camp, named(i // 3)),
        "filtered": lambda i: _filtered(rng, i, camp),
        "discover": lambda i: PoolEntry("discover", pattern=patterns[i % len(patterns)]),
    }
    groups: dict[str, list[PoolEntry]] = {}
    seen: set[str] = set()
    for kind, count in counts.items():
        items: list[PoolEntry] = []
        for _ in range(count * 50):
            if len(items) == count:
                break
            entry = makers[kind](len(items))
            key = repr((entry.query, entry.offset, entry.pattern))
            if key not in seen:
                seen.add(key)
                items.append(entry)
        groups[kind] = items
    return interleave(groups)


def _prefix(i: int, name: str) -> PoolEntry:
    shape = i % 5
    if shape < 3:
        return PoolEntry("prefix", {"prefix": {"instance": name[: len(name) - (1, 2, 1)[shape]]}})
    if shape == 3:
        path = ("_lamp", "_ca", "_lo", "_th", "_p", "_co")[i // 5 % 6]
        return PoolEntry("prefix", {"prefix": {"service_path": path}})
    return PoolEntry("prefix", {"prefix": {"rt": ("li", "te", "po", "pr", "d", "h")[i // 5 % 6]}})


def _range(rng: random.Random, i: int, instances: list[str], name: str, doms: list[str]) -> PoolEntry:
    shape = i % 4
    if shape < 3:
        lo = min(instances.index(name), len(instances) - 31)
        bounds = {"from": instances[lo], "to": instances[lo + (3, 10, 30)[shape]]}
        if i % 7 == 0:
            bounds["include_to"] = False
        return PoolEntry("range", {"range": {"instance": bounds}})
    lo = rng.randrange(len(doms) - 1)
    return PoolEntry("range", {"range": {"domain": {"from": doms[lo], "to": doms[lo + 1]}}}, (0, 100)[i // 4 % 2])


def _bool(rng: random.Random, i: int, camp: Campus, name: str) -> PoolEntry:
    doms = camp.domains
    shape = i % 3
    rt = RTS[i // 3 % len(RTS)]
    if shape == 0:
        body = {"must": [{"term": {"rt": rt}}, {"term": {"domain": rng.choice(doms)}}]}
    elif shape == 1:
        body = {
            "should": [{"term": {"rt": rt}}, {"prefix": {"instance": name[:-2]}}],
            "must_not": [{"term": {"domain": rng.choice(doms)}}],
        }
    else:
        body = {
            "must": [{"wildcard": ("_lamp.*", "*._http._tcp", "_camera.*")[i // 3 % 3]}],
            "must_not": [{"geo_range": _box(rng, camp.centers[rng.choice(doms)], 0.01)}],
        }
    return PoolEntry("bool", {"bool": body}, (0, 0, 0, 100)[i // 3 % 4])


def _filtered(rng: random.Random, i: int, camp: Campus) -> PoolEntry:
    domain = rng.choice(camp.domains)
    center = camp.centers[domain]
    if i % 2 == 0:
        body = {"query": {"term": {"domain": domain}}, "filter": {"geo_range": _box(rng, center, 0.003)}}
    else:
        box = _box(rng, center, 0.005)
        body = {
            "query": {"term": {"rt": RTS[i // 2 % 5]}},
            "filter": {"bool": {"must": [{"range": {"latitude": box["latitude"]}},
                                         {"range": {"longitude": box["longitude"]}}]}},
        }
    return PoolEntry("filtered", {"filtered": body})


def pool_shares(pool: list[PoolEntry]) -> dict[str, float]:
    """Expected share of requests per query kind under the Zipf draw."""
    cdf = zipf_cdf(len(pool), POOL_ZIPF)
    shares: dict[str, float] = {}
    prev = 0.0
    for entry, acc in zip(pool, cdf):
        shares[entry.kind] = shares.get(entry.kind, 0.0) + acc - prev
        prev = acc
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def request_ranks(seed: int, client: int, pool_size: int):
    """Endless deterministic stream of pool ranks for one closed-loop client."""
    cdf = zipf_cdf(pool_size, POOL_ZIPF)
    for u in evenly(seed, f"reader:{client}"):
        yield bisect.bisect_left(cdf, u)


def stream_digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


# --- directory site (site_resolve) ------------------------------------------------


SITE_DOMAIN = "rd.site.example"
SITE_PATHS = 40


def site_labels(rng: random.Random, count: int) -> list[str]:
    """Distinct five-letter labels.  Reply sizes then depend on counts
    alone, whichever label the seed puts on the most popular path."""
    out: dict[str, None] = {}
    while len(out) < count:
        out["".join(rng.choice(a) for a in ("bdfgklmnprstvz", "aeiou", "bdfgklmnprstvz", "aeiou", "lmnrst"))] = None
    return list(out)


VARIANTS = ("status", "onoff", "dimmer", "x10")


@dataclass(frozen=True)
class SiteEntry:
    """What the benchmark expects the directory to hold for one object."""

    instance: str
    paths: tuple[str, ...]
    hostname: str
    port: int
    addr6: bytes
    addr4: bytes | None
    meta: tuple  # (rt, ins, lt, model, if, verbs, extra items)
    origin: str  # journal, lmdns or epcis

    @property
    def key(self) -> str:
        return self.instance

    @property
    def instance_name(self) -> str:
        return f"{self.instance}.{SITE_DOMAIN}"


@dataclass
class Site:
    paths: list[str]  # main service paths, most popular first
    journal: list[dict]  # journal ops, in file order
    entries: dict[str, SiteEntry]  # every live entry by instance, whatever its path in
    withdrawn: list[str]
    lmdns_objects: list[SiteEntry]  # objects that join by probe + handshake
    known_objects: list[SiteEntry]  # journal entries that also answer probes
    epc_tags: dict[str, dict]  # EPC -> capture attributes
    journal_ops: dict[str, int]


def _addr6(tag: int, number: int) -> bytes:
    return bytes.fromhex("20010db8") + tag.to_bytes(4, "big") + number.to_bytes(8, "big")


def _site_meta(rng: random.Random, word: str, number: int) -> tuple:
    verbs = tuple(rng.sample(("status", "onoff", "value", "dim", "reset"), rng.randrange(0, 3)))
    extra = (("area", str(rng.randrange(1, 9))), ("zone", str(rng.randrange(1, 30))))
    if rng.random() < 0.5:
        extra += (("floor", str(rng.randrange(0, 6))),)
    return (word, rng.randrange(1, 4), 86400, f"m{number % 97}", rng.choice(("core.s", "core.a", "EIB", "X10")), verbs, extra)


def site(seed: int, entries: int) -> Site:
    """One directory's worth of objects; journal 80 %, lmdns 10 %, EPCIS 10 %.

    Path sizes follow the Zipf weights exactly (by quota); the journal
    updates, refreshes and withdraws at a fixed cadence.
    """
    rng = rng_for(seed, "site")
    words = site_labels(rng, SITE_PATHS)
    paths = [f"_{w}._sub._coap._udp" for w in words]
    weights = [1.0 / (k + 1) for k in range(len(paths))]
    n_lmdns = n_epc = max(2, entries // 10)
    n_journal = entries - n_lmdns - n_epc
    path_of = {
        "journal": iter(apportion(n_journal, weights, rng)),
        "lmdns": iter(apportion(n_lmdns, weights, rng)),
        "epcis": iter(apportion(n_epc, weights, rng)),
    }

    def new_entry(number: int, origin: str) -> SiteEntry:
        k = next(path_of[origin])
        main = paths[k]
        ptr = (main,)
        if origin == "journal" and number % 5 < 2:
            ptr = (main, f"_{VARIANTS[number % 4]}.{main}")
        instance = f"{words[k]}{number:05d}"
        return SiteEntry(
            instance=instance,
            paths=ptr,
            hostname=f"h{number:05d}.{SITE_DOMAIN}",
            port=5683 + number % 1000,
            addr6=_addr6(0x5173, number),
            addr4=bytes((10, 20, number // 256 % 256, number % 256)) if origin == "journal" else None,
            meta=_site_meta(rng, words[k], number),
            origin=origin,
        )

    journal, live = [], {}
    ops = {"register": 0, "update": 0, "refresh": 0, "withdraw": 0}
    for number in range(n_journal):
        entry = new_entry(number, "journal")
        journal.append(("register", entry))
        live[entry.instance] = entry
        ops["register"] += 1
        if number < 10:
            continue
        if number % 20 == 7:
            victim = live[rng.choice(sorted(live))]
            updated = SiteEntry(**{**victim.__dict__, "port": victim.port + 1})
            journal.append(("register", updated))
            live[updated.instance] = updated
            ops["update"] += 1
        elif number % 20 == 13:
            journal.append(("register", live[rng.choice(sorted(live))]))
            ops["refresh"] += 1
        elif number % 50 == 29:
            victim = rng.choice(sorted(live))
            journal.append(("withdraw", live.pop(victim)))
            ops["withdraw"] += 1
    withdrawn = sorted({e.instance for op, e in journal if op == "withdraw"} - set(live))
    lmdns = [new_entry(n_journal + i, "lmdns") for i in range(n_lmdns)]
    single = sorted((e for e in live.values() if len(e.paths) == 1), key=lambda e: e.instance)
    known = rng.sample(single, min(len(single), max(1, n_lmdns // 10)))
    tags: dict[str, dict] = {}
    for i in range(n_epc):
        k = next(path_of["epcis"])
        epc = f"urn:epc:id:sgtin:0614141.{100000 + i}.{rng.randrange(1, 10**6)}"
        tags[epc] = {
            "rt": words[k],
            "model": f"tag{i % 13}",
            "lt": 86400,
            "service_path": paths[k],
            "port": 5683,
            "verbs": ["status"],
            "lot": str(rng.randrange(1000, 9999)),
        }
    entries_out = {e.instance: e for e in live.values()}
    for e in lmdns:
        entries_out[e.instance] = e
    for epc, attrs in tags.items():
        e = epc_entry(epc, attrs)
        entries_out[e.instance] = e
    return Site(paths, journal, entries_out, withdrawn, lmdns, known, tags, ops)


def epc_entry(epc: str, attrs: dict) -> SiteEntry:
    """What EPCIS sync should make of one tag: a ``tag_`` instance whose
    address is the EPC prefix fd00:6570:6373::/64 plus 8 bytes of SHA-256."""
    instance = "tag_" + epc.split(":")[-1].replace(".", "_")
    return SiteEntry(
        instance=instance,
        paths=(attrs["service_path"],),
        hostname=f"{instance}.{SITE_DOMAIN}",
        port=attrs["port"],
        addr6=bytes.fromhex("fd00657063730000") + hashlib.sha256(epc.encode()).digest()[:8],
        addr4=None,
        meta=(attrs["rt"], 1, attrs["lt"], attrs["model"], "", tuple(attrs["verbs"]), (("lot", attrs["lot"]),)),
        origin="epcis",
    )


# Query types in the DNS request stream, named as the wire types are.
SRV, TXT, AAAA, A, PTR = "SRV", "TXT", "AAAA", "A", "PTR"


@dataclass(frozen=True)
class DnsRequest:
    qid: int
    name: str
    qtype: str
    expect: object  # SiteEntry, a PTR path, or None for NXDOMAIN


def dns_requests(seed: int, client: int, site_data: Site, names: list[str]):
    """Endless stream of resolve-style DNS requests for one client.

    Units are a four-query resolve (SRV, TXT, then AAAA and A on the SRV
    target), a PTR browse, or a query for a name that does not exist;
    unit odds make each of the last two about 5 % of queries.  Unit kinds
    and PTR paths follow `evenly`; names are drawn from the seed.
    """
    rng = rng_for(seed, f"dns:{client}")
    units = evenly(seed, f"dns-unit:{client}")
    path_cdf = zipf_cdf(len(site_data.paths))
    path_draws = evenly(seed, f"dns-path:{client}")
    qids = itertools.count(rng.randrange(0x10000))
    unit_ptr = unit_nx = 0.2 / 1.3
    for roll in units:
        if roll < unit_ptr:
            path = site_data.paths[bisect.bisect_left(path_cdf, next(path_draws))]
            name = path if rng.random() < 0.5 else f"{path}.{SITE_DOMAIN}"
            yield DnsRequest(next(qids) & 0xFFFF, name, PTR, path)
        elif roll < unit_ptr + unit_nx:
            if site_data.withdrawn and rng.random() < 0.5:
                name = f"{rng.choice(site_data.withdrawn)}.{SITE_DOMAIN}"
            else:
                name = f"ghost{rng.randrange(10**6)}.{rng.choice((SITE_DOMAIN, 'elsewhere.example'))}"
            yield DnsRequest(next(qids) & 0xFFFF, name, rng.choice((SRV, TXT, AAAA)), None)
        else:
            entry = site_data.entries[names[rng.randrange(len(names))]]
            yield DnsRequest(next(qids) & 0xFFFF, entry.instance_name, SRV, entry)
            yield DnsRequest(next(qids) & 0xFFFF, entry.instance_name, TXT, entry)
            yield DnsRequest(next(qids) & 0xFFFF, entry.hostname, AAAA, entry)
            yield DnsRequest(next(qids) & 0xFFFF, entry.hostname, A, entry)


def site_sample(site_data: Site) -> list[DnsRequest]:
    """Requests checked once before load: a resolve of every 80th entry
    (every origin), the most and least popular PTR paths, missing names."""
    out: list[DnsRequest] = []
    for instance in sorted(site_data.entries)[::80]:
        e = site_data.entries[instance]
        out += [DnsRequest(0, e.instance_name, SRV, e), DnsRequest(0, e.instance_name, TXT, e),
                DnsRequest(0, e.hostname, AAAA, e), DnsRequest(0, e.hostname, A, e)]
    for i, path in enumerate(site_data.paths[:3] + site_data.paths[-3:]):
        out.append(DnsRequest(0, path if i % 2 else f"{path}.{SITE_DOMAIN}", PTR, path))
    for name in site_data.withdrawn[:5] + ["ghost.elsewhere.example", f"ghost.{SITE_DOMAIN}"]:
        out.append(DnsRequest(0, name if "." in name else f"{name}.{SITE_DOMAIN}", SRV, None))
    return [replace(r, qid=i + 1) for i, r in enumerate(out)]


# --- churn schedule (publish_churn and the freshness phases) -------------------------


@dataclass(frozen=True)
class Change:
    """One directory change: create, update or withdraw of one object."""

    op: str
    before: CampusObject | None
    after: CampusObject | None

    @property
    def obj(self) -> CampusObject:
        return self.after or self.before


def churn(seed: int, camp: Campus, ticks: int) -> list[Change]:
    """A tick schedule over the campus objects: 40 % update, 30 % create,
    30 % withdraw (an assumed mix; the project has no record of real churn)."""
    rng = rng_for(seed, "churn")
    live: dict[tuple[str, str], CampusObject] = {(o.domain, o.instance): o for o in camp.objects}
    order = sorted(live)
    changes = []
    for tick in range(ticks):
        domain = camp.domains[rng.randrange(len(camp.domains))]
        roll = rng.random()
        if roll < 0.3:
            obj = make_object(rng, domain, 90000 + tick, camp.centers[domain])
            obj = CampusObject(domain, f"new{tick:05d}{obj.instance}", obj.kind, obj.lat, obj.lon)
            live[(domain, obj.instance)] = obj
            changes.append(Change("create", None, obj))
            continue
        while True:
            key = order[rng.randrange(len(order))]
            if key in live:
                break
        old = live[key]
        if roll < 0.7:
            center = camp.centers[old.domain]
            new = CampusObject(
                old.domain, old.instance, old.kind,
                round(center[0] + rng.uniform(-0.01, 0.01), 6),
                round(center[1] + rng.uniform(-0.01, 0.01), 6),
            )
            live[key] = new
            changes.append(Change("update", old, new))
        else:
            del live[key]
            changes.append(Change("withdraw", old, None))
    return changes
