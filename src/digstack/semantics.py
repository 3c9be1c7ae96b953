"""Semantic layer: service metadata, TXT key=value serialization, the
single-record compaction for constrained links, the CoRE link format
and its JSON mapping.

The compact form replaces well-known keys by one-letter wildcards and
moves verbs behind a ``|`` marker.  The key table is part of the wire
contract and is documented in the README:

    rt -> r     ins -> i     lt -> l     model -> m     if -> f

Everything else travels verbatim; verbs keep their position after the
bar.  The expander relies on the five core tokens always being emitted
first, in that order, so extra keys may reuse the single letters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .dnscodec import MAX_TXT_STRING

CORE_KEYS = ("rt", "ins", "lt", "model", "if")
WILDCARD_KEYS = {"rt": "r", "ins": "i", "lt": "l", "model": "m", "if": "f"}

_FORBIDDEN_IN_TOKEN = (";", "|")


class SemanticsError(Exception):
    pass


class MissingResourceType(SemanticsError):
    """TXT data carried no rt key."""


class StringTooLong(SemanticsError, ValueError):
    """A rendered TXT character-string exceeds 255 bytes."""


class LinkSyntaxError(SemanticsError):
    """Link-format input rejected, with the byte offset of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _check_token(piece: str, what: str, *, allow_eq: bool = True) -> None:
    for bad in _FORBIDDEN_IN_TOKEN:
        if bad in piece:
            raise ValueError(f"{bad!r} not allowed in {what}: {piece!r}")
    if not allow_eq and "=" in piece:
        raise ValueError(f"'=' not allowed in {what}: {piece!r}")


@dataclass
class ServiceMetadata:
    """What a smart object says about itself.

    `verbs` are bare capability tokens (onoff, status, ...); `extra`
    carries deployment keys (area, zone, ...) in declaration order.
    """

    rt: str
    ins: int = 1
    lt: int = 86400
    model: str = ""
    if_: str = ""
    verbs: list[str] = field(default_factory=list)
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.verbs = list(self.verbs)
        self.extra = dict(self.extra)
        if not self.rt:
            raise ValueError("rt must be non-empty")
        if self.lt <= 0:
            raise ValueError("lt must be positive")
        for piece in (self.rt, self.model, self.if_):
            _check_token(piece, "field value")
        for verb in self.verbs:
            if not verb:
                raise ValueError("empty verb")
            _check_token(verb, "verb", allow_eq=False)
        for k, v in self.extra.items():
            if not k:
                raise ValueError("empty extra key")
            _check_token(k, "extra key", allow_eq=False)
            _check_token(v, "extra value")
            if k in CORE_KEYS:
                raise ValueError(f"extra key {k!r} shadows a core key")

    def to_dict(self) -> dict:
        return {
            "rt": self.rt,
            "ins": self.ins,
            "lt": self.lt,
            "model": self.model,
            "if": self.if_,
            "verbs": list(self.verbs),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> ServiceMetadata:
        """The one constructor from a key map: the meta of an entry file or
        journal line, and what the TXT, compact TXT and EPCIS parsers read.
        `ins` and `lt` must be integers; those parsers read untyped values,
        so they convert them first."""
        rt, model, if_ = data["rt"], data.get("model", ""), data.get("if", "")
        verbs, extra = data.get("verbs", []), data.get("extra", {})
        if not (isinstance(rt, str) and isinstance(model, str) and isinstance(if_, str)):
            raise TypeError("meta rt, model and if must be strings")
        if not isinstance(verbs, list) or not all(isinstance(verb, str) for verb in verbs):
            raise TypeError("meta verbs must be a list of strings")
        if not isinstance(extra, dict) or not all(isinstance(value, str) for value in extra.values()):
            raise TypeError("meta extra values must be strings")
        ins, lt = data.get("ins", 1), data.get("lt", 86400)
        if type(ins) is not int or type(lt) is not int:
            raise TypeError("meta ins and lt must be integers")
        return cls(rt, ins, lt, model, if_, verbs, extra)


def _text_ints(core: dict[str, str]) -> dict:
    """Parsed core pairs with the integer keys read as integers."""
    return {k: int(v) if k in ("ins", "lt") else v for k, v in core.items()}


def _core_pairs(meta: ServiceMetadata) -> list[tuple[str, str]]:
    return [
        ("rt", meta.rt),
        ("ins", str(meta.ins)),
        ("lt", str(meta.lt)),
        ("model", meta.model),
        ("if", meta.if_),
    ]


def to_txt(meta: ServiceMetadata) -> str:
    """Render metadata as one TXT character-string: core pairs, extras,
    verbs, in that order."""
    pairs = [f"{k}={v}" for k, v in _core_pairs(meta)]
    pairs += [f"{k}={v}" for k, v in meta.extra.items()]
    joined = ";".join(pairs + list(meta.verbs))
    if len(joined.encode("utf-8")) > MAX_TXT_STRING:
        raise StringTooLong(f"TXT string of {len(joined.encode())} bytes (limit {MAX_TXT_STRING})")
    return joined


def from_txt(strings: list[str] | tuple[str, ...]) -> ServiceMetadata:
    """Parse TXT strings back into metadata; inverse of `to_txt`.

    The strings may be split at any token boundary, as multi-string TXT
    records from other responders are.  key=value tokens fill the core
    fields or the extra map; bare tokens are verbs.  A missing rt is the
    one hard error.
    """
    core: dict[str, str] = {}
    extra: dict[str, str] = {}
    verbs: list[str] = []
    for s in strings:
        for token in s.split(";"):
            if not token:
                continue
            if "=" in token:
                key, value = token.split("=", 1)
                if key in CORE_KEYS:
                    core[key] = value
                else:
                    extra[key] = value
            else:
                verbs.append(token)
    if "rt" not in core:
        raise MissingResourceType("no rt key in TXT data")
    return ServiceMetadata.from_dict({**_text_ints(core), "verbs": verbs, "extra": extra})


class CompactTxt(NamedTuple):
    data: bytes
    truncated: bool


def compact_txt(meta: ServiceMetadata) -> CompactTxt:
    """Shrink metadata with the wildcard key table; target is one frame.

    Extra entries are dropped from the end (then verbs) if the payload
    would overflow a 255-byte character-string; the flag reports it.
    """
    extras = list(meta.extra.items())
    verbs = list(meta.verbs)
    truncated = False
    while True:
        head = [f"{WILDCARD_KEYS[k]}={v}" for k, v in _core_pairs(meta)]
        head += [f"{k}={v}" for k, v in extras]
        body = ";".join(head)
        if verbs:
            body += "|" + ";".join(verbs)
        data = body.encode("utf-8")
        if len(data) <= MAX_TXT_STRING:
            return CompactTxt(data, truncated)
        truncated = True
        if extras:
            extras.pop()
        elif verbs:
            verbs.pop()
        else:
            return CompactTxt(data, True)


def expand_txt(data: bytes | str) -> ServiceMetadata:
    """Inverse of `compact_txt` (for untruncated payloads)."""
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    main, bar, verb_part = text.partition("|")
    tokens = main.split(";")
    if len(tokens) < 5:
        raise MissingResourceType("compact payload shorter than the core key block")
    core: dict[str, str] = {}
    for expected, token in zip(CORE_KEYS, tokens[:5]):
        short = WILDCARD_KEYS[expected]
        if not token.startswith(short + "="):
            raise MissingResourceType(f"expected {short}= token, got {token!r}")
        core[expected] = token[len(short) + 1 :]
    extra: dict[str, str] = {}
    for token in tokens[5:]:
        if not token:
            continue
        key, _, value = token.partition("=")
        extra[key] = value
    verbs = [v for v in verb_part.split(";") if v] if bar else []
    return ServiceMetadata.from_dict({**_text_ints(core), "verbs": verbs, "extra": extra})


# --- CoRE link format ---------------------------------------------------------


@dataclass
class LinkEntry:
    """One web link: target URI plus ordered attributes.

    A repeated attribute key holds a list of values; a flag attribute
    (no ``=``) holds the empty string.
    """

    href: str
    attrs: dict[str, str | list[str]] = field(default_factory=dict)

    def add_attr(self, key: str, value: str) -> None:
        if key in self.attrs:
            existing = self.attrs[key]
            if isinstance(existing, list):
                existing.append(value)
            else:
                self.attrs[key] = [existing, value]
        else:
            self.attrs[key] = value


_TOKEN_STOP = set(';,"=<> \t\r\n')


def parse_link_format(text: str) -> list[LinkEntry]:
    """Parse an application/link-format payload.

    Tolerates whitespace and newlines between elements and a trailing
    comma; raises `LinkSyntaxError` with the byte offset otherwise.
    """
    entries: list[LinkEntry] = []
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p] in " \t\r\n":
            p += 1
        return p

    pos = skip_ws(pos)
    while pos < n:
        if text[pos] != "<":
            raise LinkSyntaxError("expected '<'", pos)
        close = text.find(">", pos + 1)
        if close < 0:
            raise LinkSyntaxError("unterminated URI reference", pos)
        entry = LinkEntry(href=text[pos + 1 : close])
        pos = skip_ws(close + 1)
        while pos < n and text[pos] == ";":
            pos = skip_ws(pos + 1)
            key_start = pos
            while pos < n and text[pos] not in _TOKEN_STOP:
                pos += 1
            key = text[key_start:pos]
            if not key:
                raise LinkSyntaxError("empty attribute name", key_start)
            pos = skip_ws(pos)
            if pos < n and text[pos] == "=":
                pos += 1
                if pos < n and text[pos] == '"':
                    pos += 1
                    value_chars: list[str] = []
                    while True:
                        if pos >= n:
                            raise LinkSyntaxError("unterminated quoted value", key_start)
                        ch = text[pos]
                        if ch == "\\" and pos + 1 < n:
                            value_chars.append(text[pos + 1])
                            pos += 2
                        elif ch == '"':
                            pos += 1
                            break
                        else:
                            value_chars.append(ch)
                            pos += 1
                    entry.add_attr(key, "".join(value_chars))
                else:
                    value_start = pos
                    while pos < n and text[pos] not in _TOKEN_STOP:
                        pos += 1
                    if pos == value_start:
                        raise LinkSyntaxError("empty attribute value", value_start)
                    entry.add_attr(key, text[value_start:pos])
            else:
                entry.add_attr(key, "")
            pos = skip_ws(pos)
        entries.append(entry)
        if pos < n:
            if text[pos] != ",":
                raise LinkSyntaxError("expected ',' between links", pos)
            pos = skip_ws(pos + 1)
    return entries


_TOKEN_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-~/:")


def render_link_format(entries: list[LinkEntry]) -> str:
    """Serialize link entries; inverse of `parse_link_format`."""
    parts = []
    for entry in entries:
        piece = f"<{entry.href}>"
        for key, value in entry.attrs.items():
            values = value if isinstance(value, list) else [value]
            for v in values:
                if v == "":
                    piece += f";{key}"
                elif all(ch in _TOKEN_SAFE for ch in v):
                    piece += f";{key}={v}"
                else:
                    escaped = v.replace("\\", "\\\\").replace('"', '\\"')
                    piece += f';{key}="{escaped}"'
        parts.append(piece)
    return ",".join(parts)


def link_list_to_json(entries: list[LinkEntry]) -> str:
    """Map a link list to its JSON array form.

    Each link becomes an object with "href" first, then its attributes
    in order; repeated attributes become string arrays.  Attribute
    values are always JSON strings.
    """
    out = []
    for entry in entries:
        obj: dict[str, object] = {"href": entry.href}
        for key, value in entry.attrs.items():
            obj[key] = list(value) if isinstance(value, list) else value
        out.append(obj)
    return json.dumps(out)
