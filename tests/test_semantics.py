"""Metadata serialization, compaction, link format."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digstack import fixtures
from digstack.semantics import (
    LinkEntry,
    LinkSyntaxError,
    MissingResourceType,
    ServiceMetadata,
    StringTooLong,
    compact_txt,
    expand_txt,
    from_txt,
    link_list_to_json,
    parse_link_format,
    render_link_format,
    to_txt,
)
import samples

# --- strategies ---------------------------------------------------------------

_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.", min_size=1, max_size=10)
_value = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.:= ", min_size=0, max_size=12)

_metadata = st.builds(
    ServiceMetadata,
    rt=_token,
    ins=st.integers(0, 10**6),
    lt=st.integers(1, 10**7),
    model=_value,
    if_=_value,
    verbs=st.lists(_token, max_size=4),
    extra=st.dictionaries(
        _token.filter(lambda k: k not in ("rt", "ins", "lt", "model", "if")),
        _value,
        max_size=4,
    ),
)


# --- TXT serialization ----------------------------------------------------------


def test_single_mode_matches_reference_transcript():
    assert to_txt(fixtures.dimmer_metadata()) == fixtures.JOINED_TXT.decode()


def test_multi_mode_matches_reference_transcript():
    assert from_txt([s.decode() for s in fixtures.MULTI_TXT]) == samples.lab_light_metadata()


def test_single_mode_minimal():
    meta = ServiceMetadata(rt="x", ins=1, lt=1, model="m", if_="i")
    assert to_txt(meta) == "rt=x;ins=1;lt=1;model=m;if=i"


def test_from_txt_requires_rt():
    with pytest.raises(MissingResourceType):
        from_txt(["model=a;if=b"])


def test_from_txt_classifies_tokens():
    meta = from_txt(["rt=light;custom=7;onoff"])
    assert meta.rt == "light"
    assert meta.extra == {"custom": "7"}
    assert meta.verbs == ["onoff"]


def test_from_txt_parses_integers():
    meta = from_txt(["rt=light;ins=2;lt=600"])
    assert meta.ins == 2 and meta.lt == 600


def test_to_txt_rejects_oversized_string():
    meta = ServiceMetadata(rt="x", extra={"k": "v" * 300})
    with pytest.raises(StringTooLong):
        to_txt(meta)


def test_metadata_validation():
    with pytest.raises(ValueError):
        ServiceMetadata(rt="")
    with pytest.raises(ValueError):
        ServiceMetadata(rt="x", lt=0)
    with pytest.raises(ValueError):
        ServiceMetadata(rt="a;b")
    with pytest.raises(ValueError):
        ServiceMetadata(rt="x", extra={"rt": "y"})


@settings(max_examples=200, deadline=None)
@given(_metadata)
def test_txt_roundtrip_single(meta):
    assert from_txt([to_txt(meta)]) == meta


@pytest.mark.parametrize(
    "field, value",
    [("verbs", "onoff"), ("verbs", ["onoff", 5]), ("model", 5), ("if", 5), ("extra", {"area": 1}),
     ("ins", True), ("ins", "2"), ("lt", 1.9), ("lt", "600")],
)
def test_metadata_from_dict_refuses_a_mistyped_field(field, value):
    with pytest.raises(TypeError, match=field):
        ServiceMetadata.from_dict({"rt": "light", field: value})


@settings(max_examples=200, deadline=None)
@given(_metadata)
def test_metadata_dict_roundtrip(meta):
    assert ServiceMetadata.from_dict(json.loads(json.dumps(meta.to_dict()))) == meta


# --- compaction ----------------------------------------------------------------


def test_compact_reference_metadata_fits_one_frame():
    data, truncated = compact_txt(fixtures.dimmer_metadata())
    assert not truncated
    assert len(data) <= 80
    assert data == b"r=light;i=2;l=86400;m=dimmer;f=EIB;area=1;zone=2;deviceID=3|value;onoff"


def test_compact_expand_roundtrip_reference():
    meta = fixtures.dimmer_metadata()
    assert expand_txt(compact_txt(meta).data) == meta


def test_compact_truncates_extras_last():
    meta = ServiceMetadata(rt="x", extra={f"k{i}": "v" * 40 for i in range(10)})
    data, truncated = compact_txt(meta)
    assert truncated
    assert len(data) <= 255
    survivor = expand_txt(data)
    # Entries are dropped from the end, so what survives is a prefix.
    assert list(survivor.extra) == list(meta.extra)[: len(survivor.extra)]


@settings(max_examples=200, deadline=None)
@given(_metadata)
def test_compact_roundtrip_and_shrinkage(meta):
    compact = compact_txt(meta)
    if not compact.truncated:
        assert expand_txt(compact.data) == meta
    single = to_txt(meta).encode()
    assert len(compact.data) < len(single)


# --- link format -----------------------------------------------------------------


def test_device_listing_parses_to_nine_entries():
    entries = parse_link_format(samples.DEVICE_LINK_PAYLOAD)
    assert len(entries) == 9
    assert entries[0].href == "/s"
    assert entries[0].attrs == {"rt": "simple.sen", "if": "core.b"}
    assert entries[2].attrs["obs"] == ""  # flag attribute
    assert entries[-1].attrs == {"if": "core.lb"}


def test_empty_payload_parses_to_empty_list():
    assert parse_link_format("") == []


def test_syntax_error_carries_offset():
    with pytest.raises(LinkSyntaxError) as err:
        parse_link_format('</a>;rt="x",oops')
    assert err.value.offset == 12
    with pytest.raises(LinkSyntaxError):
        parse_link_format("<unterminated")


def test_duplicate_attributes_collect_in_order():
    entries = parse_link_format('</r>;rel="a";rel="b";rel="c"')
    assert entries[0].attrs["rel"] == ["a", "b", "c"]


def test_render_parse_roundtrip_fixed():
    entries = parse_link_format(samples.DEVICE_LINK_PAYLOAD)
    assert parse_link_format(render_link_format(entries)) == entries


_attr_key = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=6)
_attr_value = st.text(alphabet='abcdefghijklmnopqrstuvwxyz0123456789 .;,"/\\', max_size=10)
_links = st.lists(
    st.builds(
        lambda href, pairs: _entry(href, pairs),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz/._", min_size=1, max_size=12),
        st.lists(st.tuples(_attr_key, _attr_value), max_size=4),
    ),
    max_size=4,
)


def _entry(href: str, pairs: list[tuple[str, str]]) -> LinkEntry:
    entry = LinkEntry(href=href)
    for key, value in pairs:
        entry.add_attr(key, value)
    return entry


@settings(max_examples=200, deadline=None)
@given(_links)
def test_render_parse_roundtrip(entries):
    assert parse_link_format(render_link_format(entries)) == entries


# --- JSON mapping ------------------------------------------------------------------


def test_sensor_index_maps_to_reference_json():
    entries = parse_link_format(samples.SENSOR_LINK_PAYLOAD)
    produced = link_list_to_json(entries)
    # Equal as ordered JSON structures; whitespace is free.
    pairs = json.loads(produced, object_pairs_hook=list)
    expected = json.loads(samples.SENSOR_LINK_JSON, object_pairs_hook=list)
    assert pairs == expected


def test_unquoted_token_value_becomes_json_string():
    out = json.loads(link_list_to_json(parse_link_format("</sensors>;ct=40")))
    assert out == [{"href": "/sensors", "ct": "40"}]


def test_duplicate_attributes_become_json_arrays():
    out = json.loads(link_list_to_json(parse_link_format('</r>;rel="a";rel="b"')))
    assert out == [{"href": "/r", "rel": ["a", "b"]}]
