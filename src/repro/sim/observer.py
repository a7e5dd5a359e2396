"""The one observer seam of the packet path.

Every packet-path component — :class:`~repro.sim.simulator.Simulator`,
:class:`~repro.sim.events.EventQueue`, :class:`~repro.net.link.Link`,
:class:`~repro.queues.base.QueueDiscipline` (TAQ included),
:class:`~repro.tcp.sender.TCPSender`,
:class:`~repro.core.tracker.FlowTracker` and
:class:`~repro.core.tracker.FlowRecord` — carries one ``observer`` slot,
``None`` by default, and reports its lifecycle as typed calls on
whatever :class:`Observer` sits there.  Each hook site makes a single
``is None`` test, so an unobserved run executes the uninstrumented
code path.

Observers are passive: they never schedule or cancel events, draw
randomness or mutate the component, so an observed run pops the same
events in the same order as an unobserved one.  The span recorder,
telemetry, the invariant monitors, TAQ's reverse tap and the goodput
collector are all observers.

Two slots inherit: a :class:`~repro.tcp.sender.TCPSender` starts with
its simulator's observer and a ``FlowRecord`` with its tracker's, so
flows spawned mid-run and flows a tracker meets later are watched too.

:func:`observing` pushes an observer onto the *ambient* stack;
:func:`repro.build.build_simulation` attaches every ambient observer to
everything it constructs (``recording()`` is a thin push onto this
stack).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple, Type, TypeVar

__all__ = [
    "HOOKS",
    "Fanout",
    "Observer",
    "ambient",
    "attach",
    "detach",
    "innermost",
    "observers_of",
    "observing",
]


class Observer:
    """Base class: every lifecycle call is a no-op; override what you need.

    Link calls carry the link, because one observer often watches
    several links; the other calls come from a component that already
    tells its owner apart (a queue, a sender, a flow record).
    """

    __slots__ = ()

    # -- EventQueue -------------------------------------------------------
    def on_event_pop(self, event) -> None:
        """A live event left the queue for dispatch (the clock has not
        advanced to it yet)."""

    # -- Simulator --------------------------------------------------------
    def on_run_start(self, now: float) -> None:
        """``Simulator.run`` begins."""

    def on_run_end(self, now: float) -> None:
        """``Simulator.run`` returns (or raises)."""

    # -- Link ---------------------------------------------------------------
    def on_arrive(self, link, packet, now: float) -> None:
        """*packet* reached *link*, before the queue may drop it."""

    def on_enqueue(self, link, packet, now: float) -> None:
        """The queue of *link* accepted *packet*."""

    def on_tx_start(self, link, packet, now: float) -> None:
        """*packet* left the queue and began serializing."""

    def on_deliver(self, link, packet, now: float) -> None:
        """*packet* came out of the far end of *link*."""

    # -- QueueDiscipline -------------------------------------------------
    def on_drop(self, packet, now: float) -> None:
        """The queue rejected or evicted *packet* (every discipline)."""

    def on_refuse(self, packet, now: float) -> None:
        """TAQ admission control refused this SYN (``on_drop`` follows)."""

    def on_penalize(self, packet, now: float, recent_drops: int) -> None:
        """TAQ classified *packet* OVER_PENALIZED."""

    def on_evict(self, evicted, packet, now: float) -> None:
        """TAQ pushed *evicted* out to admit *packet* (``on_drop`` of
        *evicted* follows)."""

    # -- TCPSender ------------------------------------------------------
    def on_sent(self, packet, now: float) -> None:
        """The sender put *packet* (SYN, DATA or FIN) on the data path."""

    def on_syn_retry(self, flow_id: int, now: float, attempt: int,
                     waited: float) -> None:
        """A SYN went unanswered for *waited* seconds and is re-sent."""

    def on_established(self, flow_id: int, now: float) -> None:
        """The handshake completed."""

    def on_rto(self, flow_id: int, now: float, backoff: int, rto: float,
               seq: int) -> None:
        """A retransmission timeout fired (*backoff* is the new exponent)."""

    def on_fast_retransmit(self, flow_id: int, now: float, seq: int) -> None:
        """Three duplicate ACKs triggered a fast retransmit of *seq*."""

    def on_flow_done(self, flow_id: int, now: float) -> None:
        """The last segment was acknowledged."""

    # -- FlowTracker / FlowRecord -------------------------------------
    def on_state_change(self, flow_id: int, time: float, prev, state) -> None:
        """A tracked flow's epoch closed at *time* in a new TAQ state."""


#: Every lifecycle call, in declaration order.
HOOKS: Tuple[str, ...] = tuple(name for name in vars(Observer) if name.startswith("on_"))


class Fanout(Observer):
    """Several observers in one slot, called in attach order."""

    __slots__ = ("observers",)

    def __init__(self, *observers: Observer) -> None:
        self.observers = observers


def _fan(name: str):
    def fan(self: Fanout, *args: Any) -> None:
        for observer in self.observers:
            getattr(observer, name)(*args)

    fan.__name__ = name
    return fan


for _name in HOOKS:
    setattr(Fanout, _name, _fan(_name))


def observers_of(component: Any) -> Tuple[Observer, ...]:
    """The observers in *component*'s slot, in attach order."""
    current = component.observer
    if current is None:
        return ()
    if isinstance(current, Fanout):
        return current.observers
    return (current,)


def _store(component: Any, observers: Tuple[Observer, ...]) -> None:
    if not observers:
        component.observer = None
    elif len(observers) == 1:
        component.observer = observers[0]
    else:
        component.observer = Fanout(*observers)


def attach(component: Any, observer: Observer) -> None:
    """Add *observer* to *component*'s slot (a no-op if already there)."""
    present = observers_of(component)
    if not any(member is observer for member in present):
        _store(component, present + (observer,))


def detach(component: Any, observer: Observer) -> None:
    """Remove *observer* from *component*'s slot (a no-op if absent)."""
    _store(component, tuple(m for m in observers_of(component) if m is not observer))


# ----------------------------------------------------------------------
# The ambient stack (what build_simulation consults)
# ----------------------------------------------------------------------
_AMBIENT: List[Observer] = []

O = TypeVar("O", bound=Observer)


def ambient() -> Tuple[Observer, ...]:
    """The ambient observers, outermost first."""
    return tuple(_AMBIENT)


def innermost(kind: Type[O]) -> Optional[O]:
    """The innermost ambient observer of type *kind*, or None."""
    for observer in reversed(_AMBIENT):
        if isinstance(observer, kind):
            return observer
    return None


@contextmanager
def observing(observer: O) -> Iterator[O]:
    """``with observing(obs):`` — every simulation built inside the
    block is observed by *obs*."""
    _AMBIENT.append(observer)
    try:
        yield observer
    finally:
        _AMBIENT.pop()
