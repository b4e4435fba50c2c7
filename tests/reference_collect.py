"""The per-message collection loop the quorum drain replaced, kept as a test
oracle.

Until the drain, every quorum step — ``ProtocolContext.collect_messages``,
OBBC's vote loop, OBBC's evidence loop — was a generator loop around
``wait_message``: one process wake-up per message, also for messages already
buffered, whose only wait is their ``message_processing_cpu`` hold.
:func:`reference_collect` is that loop, verbatim.  :func:`use_reference`
turns the drain into a no-op, which leaves exactly that loop in *every*
collection site of ``src/`` ("drain what is buffered, then wait for one"
minus the drain), so a whole cluster can run the old way.  The drain claims
to be unobservable: same finish times, same senders in the same order, same
mailbox leftovers, same CPU occupancy at every instant, same result rows.
"""

from __future__ import annotations


def reference_collect(context, kind, key, count, timeout=None):
    """``ProtocolContext.collect_messages`` as it was before the drain."""
    collected = {}
    deadline = None if timeout is None else context.env.now + timeout
    while len(collected) < count:
        remaining = (None if deadline is None
                     else max(0.0, deadline - context.env.now))
        message = yield from context.wait_message(kind, key, timeout=remaining)
        if message is None:
            break
        collected.setdefault(message.sender, message)
    return list(collected.values())


def _no_drain(self, kind, key, collected, count):
    return
    yield  # pragma: no cover - makes this a generator


def use_reference(monkeypatch) -> None:
    """Collect one wake-up per message everywhere for the rest of a test."""
    monkeypatch.setattr("repro.core.context.ProtocolContext.drain_messages",
                        _no_drain)
