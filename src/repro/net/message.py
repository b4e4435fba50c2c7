"""Network message envelope, and the record every protocol payload is."""

from __future__ import annotations

from collections import _tuplegetter
from dataclasses import dataclass, field
from typing import Any

#: Fixed wire overhead of an RPC message (framing, routing metadata).
MESSAGE_OVERHEAD_BYTES = 96


@dataclass(frozen=True, slots=True, init=False)
class Message:
    """What one ``send`` or ``broadcast`` put on the wire, built once.

    ``channel`` namespaces the traffic (e.g. ``"fl/0"`` for FireLedger worker
    0, ``"hotstuff"`` for the baseline) so several protocol instances can share
    one network.  ``kind`` is the protocol-level message type (``"HEADER"``,
    ``"VOTE"`` ...), and ``payload`` the protocol's :class:`Record` (the
    network itself carries any object);
    ``route`` is the ``(channel, kind)`` key an endpoint's routing table is
    looked up by.

    An envelope names no receiver: every receiver of a broadcast is handed
    the *same* object (the network carries the receiver id beside it), so it
    is immutable — n - 1 mailboxes alias it.  One is built per send, so the
    constructor writes the seven slots straight through their member
    descriptors (:data:`_SLOT_SETTERS`); assignment after construction still
    raises ``FrozenInstanceError``.
    """

    sender: int
    channel: str
    kind: str
    payload: Any
    size_bytes: int = MESSAGE_OVERHEAD_BYTES
    sent_at: float = 0.0
    route: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __init__(self, sender: int, channel: str, kind: str, payload: Any,
                 size_bytes: int = MESSAGE_OVERHEAD_BYTES,
                 sent_at: float = 0.0) -> None:
        if size_bytes < MESSAGE_OVERHEAD_BYTES:
            size_bytes = MESSAGE_OVERHEAD_BYTES
        (set_sender, set_channel, set_kind, set_payload, set_size, set_sent_at,
         set_route) = _SLOT_SETTERS
        set_sender(self, sender)
        set_channel(self, channel)
        set_kind(self, kind)
        set_payload(self, payload)
        set_size(self, size_bytes)
        set_sent_at(self, sent_at)
        set_route(self, (channel, kind))


#: The ``__set__`` of each slot's member descriptor, in field order.
_SLOT_SETTERS = tuple(vars(Message)[name].__set__ for name in Message.__slots__)


#: The fields a message record starts with — what the context, the mailbox
#: and the network read: its ``kind``, the ``bucket`` a receiver's mailbox
#: files it under (``(kind, instance)``), the ``round`` ordinal
#: :meth:`~repro.core.mailbox.Mailbox.discard_below` compares (``None``:
#: never dropped by round) and its wire ``size_bytes``.
HEAD = ("kind", "bucket", "round", "size_bytes")


class Record(tuple):
    """An immutable record: a tuple whose items :attr:`FIELDS` names.

    Every protocol payload is one, declared once next to the protocol that
    sends it.  A *message* record starts with the :data:`HEAD` fields and
    lists in :attr:`KINDS` the kinds it is sent as (kinds of one shape share
    a record, such as BBC's ``EST`` / ``COORD`` / ``AUX``); its ``of``
    classmethod is its one builder and states its wire-size rule.  Other
    records (a signed header, a panic proof) are values inside a message.

    A tuple, not a slotted dataclass: it is immutable without a Python
    ``__setattr__`` (every receiver of a broadcast aliases one), a field read
    is a C-level item getter, the one ``namedtuple`` fields use, and it
    pickles and unpickles without a Python-level call (the realtime backend
    frames every payload).  A builder is the one Python frame a record costs.
    """

    __slots__ = ()
    #: The names of the items, in order.
    FIELDS: tuple[str, ...] = ()
    #: The message kinds sent with this shape (none for a value record).
    KINDS: tuple[str, ...] = ()
    #: A record riding on this one, which a receiving mailbox files first as
    #: a message of its own: OBBC's ``Vote`` declares it as a field (the next
    #: header, Section 5.1); every other record carries none.
    piggyback = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for index, name in enumerate(cls.FIELDS):
            setattr(cls, name, _tuplegetter(index, None))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.FIELDS, self))
        return f"{type(self).__name__}({fields})"


class Control(Record):
    """A message record naming one round and nothing more, at a fixed
    ``SIZE``: a request served on arrival, an acknowledgement."""

    __slots__ = ()
    FIELDS = HEAD
    SIZE = MESSAGE_OVERHEAD_BYTES

    @classmethod
    def of(cls, kind: str, round_number: int) -> "Control":
        return tuple.__new__(cls, (kind, (kind, round_number), round_number,
                                   cls.SIZE))
