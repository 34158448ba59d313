"""FlowKey, a NamedTuple, against the frozen ordered dataclass it replaced.

Flow tables, plugin tables and sorted reports depend on a key's hash,
equality, order and text, so each must match the dataclass's exactly.
"""

from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbz.packet import PROTO_TCP, PROTO_UDP, FlowKey


@dataclass(frozen=True, order=True)
class OracleKey:
    protocol: int
    src: tuple[str, int]
    dst: tuple[str, int]

    def invert(self) -> "OracleKey":
        return OracleKey(self.protocol, self.dst, self.src)

    @property
    def proto_name(self) -> str:
        return {PROTO_TCP: "TCP", PROTO_UDP: "UDP"}.get(self.protocol, str(self.protocol))

    def __str__(self) -> str:
        return "%s %s:%d>%s:%d" % (
            self.proto_name, self.src[0], self.src[1], self.dst[0], self.dst[1])


# few addresses and ports, so that equal keys and shared prefixes are common
endpoints = st.tuples(st.sampled_from(["10.0.0.2", "10.0.0.10", "8.8.8.8", "203.0.113.9"]),
                      st.one_of(st.sampled_from([53, 443, 40001]), st.integers(0, 65535)))
key_fields = st.tuples(st.one_of(st.sampled_from([PROTO_TCP, PROTO_UDP]), st.integers(0, 255)),
                       endpoints, endpoints)


def _same(key: FlowKey, oracle: OracleKey) -> None:
    assert hash(key) == hash(oracle)
    assert str(key) == str(oracle)
    assert key.proto_name == oracle.proto_name
    assert (key.protocol, key.src, key.dst) == (oracle.protocol, oracle.src, oracle.dst)


class TestFlowKeyMatchesDataclass:
    @settings(max_examples=300, deadline=None)
    @given(key_fields)
    def test_hash_str_proto_name_and_invert(self, fields):
        key, oracle = FlowKey(*fields), OracleKey(*fields)
        _same(key, oracle)
        _same(key.invert(), oracle.invert())
        assert type(key.invert()) is FlowKey
        assert repr(key) == repr(oracle).replace("OracleKey", "FlowKey", 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(key_fields, min_size=2, max_size=12))
    def test_equality_and_sort_order(self, many):
        keys = [FlowKey(*f) for f in many]
        oracles = [OracleKey(*f) for f in many]
        for a, oa in zip(keys, oracles):
            for b, ob in zip(keys, oracles):
                assert (a == b) == (oa == ob)
                assert (a < b) == (oa < ob)
        by_key = sorted(range(len(many)), key=keys.__getitem__)
        assert by_key == sorted(range(len(many)), key=oracles.__getitem__)
        assert len(set(keys)) == len(set(oracles))

    @pytest.mark.parametrize("name", ["protocol", "src", "dst"])
    def test_fields_cannot_be_assigned(self, name):
        fields = (PROTO_TCP, ("10.0.0.2", 40001), ("203.0.113.9", 80))
        with pytest.raises(FrozenInstanceError):
            setattr(OracleKey(*fields), name, 0)
        with pytest.raises(AttributeError):
            setattr(FlowKey(*fields), name, 0)

    def test_a_key_is_its_plain_tuple(self):
        fields = (PROTO_UDP, ("10.0.0.2", 40001), ("8.8.8.8", 53))
        assert FlowKey(*fields) == fields
        assert {FlowKey(*fields): 1}[fields] == 1
