"""Message and mailbox abstractions for node-to-node communication."""

from dataclasses import dataclass, field
from enum import Enum
from itertools import count

from repro.sim.stores import Store

#: Size in bytes of a message header / control-only message.
HEADER_BYTES = 32

_message_ids = count()


class MessageKind(Enum):
    """The message types used by the file-system protocols."""

    #: traditional caching: CP asks IOP for (part of) a block
    READ_REQUEST = "read_request"
    #: traditional caching: IOP replies with data
    READ_REPLY = "read_reply"
    #: traditional caching: CP sends data to be written
    WRITE_REQUEST = "write_request"
    #: traditional caching: IOP acknowledges a write
    WRITE_REPLY = "write_reply"
    #: disk-directed I/O: collective request multicast from one CP to all IOPs
    COLLECTIVE_REQUEST = "collective_request"
    #: disk-directed I/O: IOP tells the requesting CP it has finished
    COLLECTIVE_DONE = "collective_done"
    #: disk-directed I/O: IOP deposits data directly into CP memory
    MEMPUT = "memput"
    #: disk-directed I/O: IOP asks a CP to send it data
    MEMGET_REQUEST = "memget_request"
    #: disk-directed I/O: CP's DMA engine replies to a Memget
    MEMGET_REPLY = "memget_reply"
    #: two-phase I/O: permutation-phase data exchange between CPs
    PERMUTE_DATA = "permute_data"
    #: generic completion notification
    DONE = "done"


@dataclass(slots=True)
class Message:
    """A single network message.

    ``data_bytes`` is the amount of bulk data carried (0 for control
    messages); the wire size adds a fixed header.  ``payload`` carries
    model-level metadata (request descriptors etc.), never simulated data.
    ``session_id`` tags protocol traffic with the collective session it
    belongs to; the network tallies per-session message wire bytes from it
    (``TransferResult.counters["message_wire_bytes"]``) without digging
    through protocol-specific payloads.  The disk layer receives the same
    id through ``DiskRequest.session_id``.
    """

    kind: MessageKind
    src: int
    dst: int
    data_bytes: int = 0
    payload: object = None
    session_id: object = None
    #: how many modeled protocol messages this object stands for.  The
    #: simulator batches back-to-back messages between one (src, dst) pair
    #: into a single event (see ``Network.transfer``'s ``count``); the wire
    #: carries one header per modeled message either way.
    n_messages: int = 1
    message_id: int = field(default_factory=lambda: next(_message_ids))

    @property
    def wire_bytes(self):
        """Total bytes that cross the network (one header per modeled message)."""
        return self.n_messages * HEADER_BYTES + self.data_bytes


class Mailbox:
    """Per-node queue of delivered messages, with tag-based sub-queues.

    Protocol code usually wants "the next request" or "the reply to *my*
    request"; tags (arbitrary hashable keys) keep those streams separate
    without each consumer having to filter the other's traffic.
    """

    def __init__(self, env, name=""):
        self.env = env
        self.name = name
        self._queues = {}

    def store(self, tag="default"):
        """The :class:`~repro.sim.stores.Store` behind *tag* (created on first use).

        A server that waits on the store itself, rather than through
        :meth:`receive`, holds no reference to this mailbox or its node.
        """
        if tag not in self._queues:
            self._queues[tag] = Store(self.env, name=f"{self.name}:{tag}")
        return self._queues[tag]

    def deliver(self, message, tag="default"):
        """Deposit *message* into the sub-queue for *tag*."""
        return self.store(tag).put(message)

    def receive(self, tag="default"):
        """Event yielding the next message delivered under *tag*."""
        return self.store(tag).get()

    def pending(self, tag="default"):
        """Number of undelivered messages waiting under *tag*."""
        if tag not in self._queues:
            return 0
        return len(self._queues[tag])

    def discard(self, tag):
        """Drop the sub-queue for *tag* (no-op if absent).

        Protocols that mint per-session tags (e.g. disk-directed completion
        notifications) call this once the tag is drained, so a long request
        stream does not accumulate one dead queue per collective.
        """
        self._queues.pop(tag, None)
