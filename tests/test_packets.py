"""Tests for packet classification and the sinkable/nonsinkable split."""

from hypothesis import given
from hypothesis import strategies as st

import dataclasses

from repro.interconnect.packet import (
    NONSINKABLE,
    ROUTE_TO_SEQ,
    MsgType,
    Packet,
    is_sinkable,
    next_pid,
)


def test_requests_are_nonsinkable():
    for t in (MsgType.READ, MsgType.READ_EX, MsgType.UPGRADE,
              MsgType.SPECIAL_READ, MsgType.INTERVENTION,
              MsgType.INTERVENTION_EX, MsgType.PREFETCH):
        assert not is_sinkable(t), t


def test_responses_and_commands_are_sinkable():
    for t in (MsgType.DATA_RESP, MsgType.DATA_RESP_EX, MsgType.ACK_UPGRADE,
              MsgType.INVALIDATE, MsgType.NACK, MsgType.WRITE_BACK,
              MsgType.MULTICAST_DATA, MsgType.INTERRUPT,
              MsgType.BARRIER_WRITE, MsgType.XFER_ACK,
              MsgType.NACK_INTERVENTION, MsgType.NO_DATA):
        assert is_sinkable(t), t


def test_every_message_type_is_classified():
    for t in MsgType:
        # membership is total: each type is exactly one of the two classes
        assert is_sinkable(t) == (t not in NONSINKABLE)


def test_nack_turns_nonsinkable_into_sinkable():
    """The paper's scalable strategy: a NACK (sinkable) answers a blocked
    nonsinkable, so nonsinkables never have to queue unboundedly."""
    assert not is_sinkable(MsgType.READ)
    assert is_sinkable(MsgType.NACK)


def test_packet_ids_unique():
    a = Packet(mtype=MsgType.READ, addr=0, src_station=0, dest_mask=0)
    b = Packet(mtype=MsgType.READ, addr=0, src_station=0, dest_mask=0)
    assert a.pid != b.pid


def test_copy_for_branch_is_independent():
    p = Packet(mtype=MsgType.INVALIDATE, addr=64, src_station=1, dest_mask=7,
               ordered=True, meta={"state": "deliver"})
    c = p.copy_for_branch()
    assert c.pid != p.pid
    assert c.addr == p.addr and c.ordered
    c.meta["state"] = "ascend"
    c.dest_mask = 1
    assert p.meta["state"] == "deliver"
    assert p.dest_mask == 7


def test_copy_for_branch_matches_keyword_copy():
    """The positional copy carries what a keyword-built copy carries:
    payload, routing and credit state, a fresh meta dict; the queue
    stamps and one-shot flags start unset; one pid is drawn."""
    home = object()
    p = Packet(MsgType.INVALIDATE, 64, 1, 7, requester=3, data=[1, 2], flits=3,
               ordered=True, meta={"k": 1}, born=5, route_state=ROUTE_TO_SEQ,
               send_enq=9, arr=9, up_enq=9, down_enq=9, tail_done=True,
               seq_done=True, credit_home=home)
    c = p.copy_for_branch()
    assert next_pid() == c.pid + 1
    ref = Packet(mtype=p.mtype, addr=p.addr, src_station=p.src_station,
                 dest_mask=p.dest_mask, requester=p.requester, data=p.data,
                 flits=p.flits, ordered=p.ordered, meta=dict(p.meta),
                 pid=c.pid, born=p.born, route_state=p.route_state,
                 credit_home=p.credit_home)
    for f in dataclasses.fields(Packet):
        assert getattr(c, f.name) == getattr(ref, f.name), f.name
    assert c.data is p.data and c.credit_home is home
    assert c.meta is not p.meta


@given(st.sampled_from(list(MsgType)), st.integers(0, 2**20))
def test_sinkable_property_matches_helper(mtype, addr):
    p = Packet(mtype=mtype, addr=addr, src_station=0, dest_mask=0)
    assert p.sinkable == is_sinkable(mtype)
