"""BGP messages.

The four RFC 4271 message types.  UPDATE carries withdrawn prefixes plus a
set of announced prefixes sharing one attribute bundle, exactly as on the
wire.  Messages are immutable value objects.
"""

from __future__ import annotations

import enum
import itertools
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.bgp.attributes import PathAttributes
from repro.net.addresses import Prefix
from repro.net.asn import ASN, validate_asn


class MessageType(enum.Enum):
    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4


class Message:
    """Base class; carries a monotonically increasing id for tracing."""

    _ids = itertools.count(1)

    __slots__ = ("msg_id",)

    type: MessageType

    def __init__(self) -> None:
        object.__setattr__(self, "msg_id", next(Message._ids))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # The immutability guard (__setattr__ raises) breaks default pickling
    # of slotted instances; state is restored through object.__setattr__,
    # mirroring the attribute classes' __reduce__ approach.  Warm-start
    # snapshots pickle in-flight link messages through this path.
    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for klass in type(self).__mro__
            for name in getattr(klass, "__slots__", ())
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


class OpenMessage(Message):
    """Session establishment: advertises the sender's ASN and hold time."""

    __slots__ = ("asn", "hold_time", "router_id")

    type = MessageType.OPEN

    def __init__(self, asn: ASN, hold_time: float = 90.0, router_id: int = 0) -> None:
        super().__init__()
        if hold_time < 0:
            raise ValueError(f"hold time must be non-negative, got {hold_time}")
        object.__setattr__(self, "asn", validate_asn(asn))
        object.__setattr__(self, "hold_time", float(hold_time))
        object.__setattr__(self, "router_id", int(router_id))

    def __repr__(self) -> str:
        return f"Open(asn={self.asn}, hold={self.hold_time})"


class UpdateMessage(Message):
    """Route advertisement and/or withdrawal.

    ``announced`` prefixes share the single ``attributes`` bundle;
    ``withdrawn`` prefixes carry no attributes.  An UPDATE must do at least
    one of the two.
    """

    __slots__ = ("announced", "attributes", "withdrawn")

    type = MessageType.UPDATE

    def __init__(
        self,
        announced: Iterable[Prefix] = (),
        attributes: Optional[PathAttributes] = None,
        withdrawn: Iterable[Prefix] = (),
    ) -> None:
        super().__init__()
        announced_set = frozenset(announced)
        withdrawn_set = frozenset(withdrawn)
        if not announced_set and not withdrawn_set:
            raise ValueError("UPDATE must announce or withdraw at least one prefix")
        if announced_set and attributes is None:
            raise ValueError("announced prefixes require path attributes")
        if announced_set & withdrawn_set:
            overlap = sorted(str(p) for p in announced_set & withdrawn_set)
            raise ValueError(f"prefixes both announced and withdrawn: {overlap}")
        object.__setattr__(self, "announced", announced_set)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "withdrawn", withdrawn_set)

    @property
    def is_withdrawal_only(self) -> bool:
        return not self.announced

    def __repr__(self) -> str:
        ann = ",".join(sorted(str(p) for p in self.announced))
        wd = ",".join(sorted(str(p) for p in self.withdrawn))
        return f"Update(announce=[{ann}], withdraw=[{wd}], attrs={self.attributes})"


class KeepaliveMessage(Message):
    __slots__ = ()

    type = MessageType.KEEPALIVE

    def __repr__(self) -> str:
        return "Keepalive()"


class NotificationMessage(Message):
    """Error notification; closes the session."""

    __slots__ = ("code", "subcode", "reason")

    type = MessageType.NOTIFICATION

    # RFC 4271 error codes (the subset the simulator generates).
    CEASE = 6
    UPDATE_ERROR = 3
    HOLD_TIMER_EXPIRED = 4

    def __init__(self, code: int, subcode: int = 0, reason: str = "") -> None:
        super().__init__()
        object.__setattr__(self, "code", int(code))
        object.__setattr__(self, "subcode", int(subcode))
        object.__setattr__(self, "reason", reason)

    def __repr__(self) -> str:
        return f"Notification(code={self.code}, reason={self.reason!r})"
