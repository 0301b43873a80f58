"""Packet and message-type definitions (paper §2.2, §2.4).

A *message* is one logical transfer (request, response, invalidation, ...).
Messages that carry a cache line or block occupy several ring slots; the
simulator models a multi-packet message as a single :class:`Packet` object
whose ``flits`` count charges the right number of slots on every link it
crosses (the hardware's tag-based reassembly is folded into this — the
packet handler sees the message once, fully reassembled).

Deadlock avoidance (§2.4) splits messages into two classes:

* **sinkable** — messages that elicit no response and can always be consumed:
  read responses, write-backs, multicasts, invalidation commands, NACKs,
  interrupts.
* **nonsinkable** — messages that elicit responses: all flavours of read /
  write-permission requests and interventions.

Ring interfaces keep the two classes in separate queues, always give
sinkable messages priority and a guaranteed downward path, and bound the
number of nonsinkable messages a station may have in the network.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: ring travel modes, kept in ``Packet.route_state`` (promoted from the old
#: ``meta['state']`` key: it is touched on every ring hop).  DELIVER is the
#: default so a packet that never entered a ring reads as plain delivery.
ROUTE_DELIVER = 0
ROUTE_ASCEND = 1
ROUTE_TO_SEQ = 2


class MsgType(enum.Enum):
    """Every message type exchanged in the machine."""

    # identity hash (enum equality is identity): the default Enum.__hash__
    # is Python-level and measurable in per-packet dispatch lookups
    __hash__ = object.__hash__

    # ---- nonsinkable requests -------------------------------------------
    READ = enum.auto()            # shared read request (cache line fill)
    READ_EX = enum.auto()         # read exclusive (write) request
    UPGRADE = enum.auto()         # write permission for an already-shared line
    SPECIAL_READ = enum.auto()    # ownership granted but data was stale (§4.6)
    INTERVENTION = enum.auto()    # forwarded read to the dirty owner's station
    INTERVENTION_EX = enum.auto() # forwarded read-exclusive to the owner
    PREFETCH = enum.auto()        # software prefetch into the network cache
    BLOCK_COPY_REQ = enum.auto()  # memory-to-memory block copy request (§3.2)

    # ---- sinkable responses / commands ----------------------------------
    DATA_RESP = enum.auto()       # cache line data, shared
    DATA_RESP_EX = enum.auto()    # cache line data + ownership
    ACK_UPGRADE = enum.auto()     # write permission granted, no data
    INVALIDATE = enum.auto()      # ordered multicast invalidation
    KILL = enum.auto()            # software kill (invalidate incl. dirty) command
    NACK = enum.auto()            # negative acknowledgement (locked line) - retry
    WRITE_BACK = enum.auto()      # dirty line written back to home / NC
    MULTICAST_DATA = enum.auto()  # software multicast of data to NCs (§3.2)
    BLOCK_DATA = enum.auto()      # block transfer payload
    INTERRUPT = enum.auto()       # interrupt-register write (possibly multicast)
    BARRIER_WRITE = enum.auto()   # barrier-register write (multicast, no interrupt)
    XFER_ACK = enum.auto()        # ownership-transfer notice to the home memory
    NACK_INTERVENTION = enum.auto()  # owner NC could not supply data; bounce requester
    NO_DATA = enum.auto()         # owner NC reports a write-back already in flight
    DIR_LOCK_READ = enum.auto()   # softctl: atomically lock a line + read its tags
    DIR_INFO = enum.auto()        # softctl: directory-state response
    BLOCK_OP = enum.auto()        # softctl: block kill/invalidate/writeback request
    READ_UNCACHED = enum.auto()   # single-word read, no caching (§3.2 page attr)
    WRITE_UNCACHED = enum.auto()  # single-word write, no caching
    UNCACHED_RESP = enum.auto()   # word value back to the requester


#: Message types that elicit a response (must never be blocked by sinkables).
NONSINKABLE = frozenset(
    {
        MsgType.READ,
        MsgType.READ_EX,
        MsgType.UPGRADE,
        MsgType.SPECIAL_READ,
        MsgType.INTERVENTION,
        MsgType.INTERVENTION_EX,
        MsgType.PREFETCH,
        MsgType.BLOCK_COPY_REQ,
        MsgType.DIR_LOCK_READ,
        MsgType.BLOCK_OP,
        MsgType.READ_UNCACHED,
    }
)


# Precompute a ``sinkable`` attribute on every MsgType member: membership
# tests against NONSINKABLE hash enum members on every packet hop, which
# shows up in profiles; a plain attribute load does not.
for _mt in MsgType:
    _mt.sinkable = _mt not in NONSINKABLE


def dispatch_table(cls, default: str) -> tuple:
    """A coherence engine class's ``DISPATCH`` as a dense tuple indexed by
    ``MsgType._value_``.  Each listed type maps to ``cls``'s handler
    function, a subclass's override included; every other type maps to
    the method named ``default``."""
    table = [getattr(cls, default)] * (max(m._value_ for m in MsgType) + 1)
    for name, fn in cls.DISPATCH:
        table[MsgType[name]._value_] = getattr(cls, fn)
    return tuple(table)


def is_sinkable(mtype: MsgType) -> bool:
    return mtype.sinkable


_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """One logical message travelling through the machine.

    Attributes
    ----------
    mtype:
        Message type.
    addr:
        Cache-line-aligned physical address the message concerns (0 for
        pure interrupt traffic).
    src_station / dest_mask:
        Source station id and destination routing mask (codec-encoded).
    requester:
        Global processor id that initiated the chain (for responses to find
        their way back to the right CPU), or ``None`` for module-originated
        traffic.
    data:
        Cache-line payload (list of words) or other payload; ``None`` for
        dataless messages.
    flits:
        Ring slots this message occupies per link (1 for dataless messages,
        ``1 + line_words/words_per_flit`` for line carriers).
    ordered:
        True for multicasts that must pass the sequencing point of the
        highest ring they reach (invalidations and other SC-ordered traffic).
    meta:
        Protocol scratch fields (e.g. the owner mask an intervention should
        restore, block-transfer progress, monitor phase id).

    The remaining fields are *transit state* touched on every ring hop —
    promoted from ``meta`` to real slots so the interconnect's hottest code
    does attribute loads instead of string-keyed dict operations:
    ``route_state`` (travel mode), the four queue-entry timestamps
    (``send_enq``/``arr``/``up_enq``/``down_enq``, ``-1`` = unset), the
    ``tail_done``/``seq_done`` one-shot flags, and ``credit_home`` (the
    station interface owed a nonsinkable credit when this packet sinks).
    """

    mtype: MsgType
    addr: int
    src_station: int
    dest_mask: int
    requester: Optional[int] = None
    data: Any = None
    flits: int = 1
    ordered: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)
    pid: int = field(default_factory=lambda: next(_packet_ids))
    #: engine tick when the message was first injected (latency accounting)
    born: int = -1
    # ---- hot transit state (see class docstring) ----
    route_state: int = ROUTE_DELIVER
    send_enq: int = -1
    arr: int = -1
    up_enq: int = -1
    down_enq: int = -1
    tail_done: bool = False
    seq_done: bool = False
    credit_home: Any = None

    @property
    def sinkable(self) -> bool:
        return self.mtype.sinkable

    def copy_for_branch(self) -> "Packet":
        """Duplicate for a multicast branch (descending copies share payload
        but are distinct packets with their own ids).

        Built positionally, in field order (every multicast delivery makes
        one): the pid is drawn as the default factory would draw it, and
        the queue timestamps and one-shot flags start unset."""
        return Packet(
            self.mtype, self.addr, self.src_station, self.dest_mask,
            self.requester, self.data, self.flits, self.ordered,
            dict(self.meta), next(_packet_ids), self.born, self.route_state,
            -1, -1, -1, -1, False, False, self.credit_home,
        )

    def __repr__(self) -> str:  # compact for debug traces
        return (
            f"Pkt#{self.pid}({self.mtype.name} addr={self.addr:#x} "
            f"src=S{self.src_station} mask={self.dest_mask:#06b} req={self.requester})"
        )


def next_pid() -> int:
    """A fresh packet id — used when a packet is re-issued so every network
    attempt is distinguishable (tracers and debug traces key per-attempt
    state off the pid, never off object identity)."""
    return next(_packet_ids)
