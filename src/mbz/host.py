"""Plugin host: registration, permissioned verdict chain, resource governor.

Plugins are in-process callback objects invoked synchronously on the
engine's event context, in registration order. The host enforces the
declared permission set (a verdict beyond a plugin's grant is downgraded
to Pass and logged), meters CPU per callback plus self-reported memory
and emitted bytes, and disables plugins that overrun their budgets. CPU
is the engine's scheduler time a callback takes: real time under the
wall clock, and zero under replay's virtual clock, so machine speed
cannot change a replay.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from . import dnswire, tlswire
from .clock import Scheduler
from .packet import FlowKey
from .upstream import UpstreamNetwork


class Permission(enum.Flag):
    OBSERVE = enum.auto()
    MODIFY_PAYLOAD = enum.auto()
    BLOCK_FLOW = enum.auto()
    REDIRECT_FLOW = enum.auto()
    INJECT_PACKETS = enum.auto()


PERMISSION_NAMES = {
    "observe": Permission.OBSERVE,
    "modify_payload": Permission.MODIFY_PAYLOAD,
    "block_flow": Permission.BLOCK_FLOW,
    "redirect_flow": Permission.REDIRECT_FLOW,
    "inject_packets": Permission.INJECT_PACKETS,
}


def permissions_from_names(names: list[str]) -> Permission:
    perms = Permission(0)
    for name in names:
        try:
            perms |= PERMISSION_NAMES[name]
        except (KeyError, TypeError):  # TypeError: not hashable
            raise MalformedPermissions(f"unknown permission {name!r}") from None
    return perms


@dataclass(frozen=True)
class ResourceBudget:
    max_cpu_us_per_packet: int = 500
    max_mem_bytes: int = 16 * 1024 * 1024
    max_emitted_bytes_per_min: int = 65536
    violation_grace: int = 3

    def __post_init__(self):
        for name in ("max_cpu_us_per_packet", "max_mem_bytes",
                     "max_emitted_bytes_per_min", "violation_grace"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:  # a bool is not a count
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


class HostError(Exception):
    pass


class DuplicateId(HostError):
    pass


class MalformedPermissions(HostError, ValueError):
    pass


@dataclass(frozen=True)
class PluginDescriptor:
    """A plugin's id, kind (`name`) and grants; frozen, so hosts can share one."""
    id: str
    name: str
    requested: Permission
    budget: ResourceBudget = field(default_factory=ResourceBudget)
    wifi_only_export: bool = False

    def __post_init__(self):
        if self.requested & ~Permission.OBSERVE and not self.requested & Permission.OBSERVE:
            raise MalformedPermissions("any permission implies observe")


# --- verdicts ---------------------------------------------------------------

class BlockMode(enum.Enum):
    DROP_SILENT = "drop_silent"
    RESET_APP = "reset_app"
    INJECT_RESPONSE = "inject_response"


@dataclass(frozen=True)
class Pass:
    pass


@dataclass(frozen=True)
class Modify:
    payload: bytes


@dataclass(frozen=True)
class Block:
    mode: BlockMode
    response: bytes = b""


@dataclass(frozen=True)
class Redirect:
    dst: tuple[str, int]


Verdict = Pass | Modify | Block | Redirect
PASS = Pass()


class Connectivity(enum.Enum):
    WIFI = "wifi"
    CELLULAR = "cellular"
    NONE = "none"


@dataclass(frozen=True)
class DeviceContext:
    connectivity: Connectivity = Connectivity.WIFI
    battery_percent: int = 100

    def __post_init__(self):
        if not 0 <= self.battery_percent <= 100:
            raise ValueError(f"battery_percent must be from 0 to 100, got {self.battery_percent}")


# frozen, so every host can start from the same one
_DEFAULT_DEVICE = DeviceContext()


class EventKind(enum.Enum):
    FLOW_OPEN = "flow_open"
    PACKET_OUT = "packet_out"
    PACKET_IN = "packet_in"
    FLOW_CLOSE = "flow_close"

    # members are singletons compared by identity; Enum's own __hash__
    # hashes the name in Python on every chain lookup
    __hash__ = object.__hash__


DIR_OUT = "out"
DIR_IN = "in"


class PluginContext(NamedTuple):
    """Immutable per-invocation snapshot."""
    key: FlowKey | None
    app_label: str
    direction: str
    kind: EventKind
    device: DeviceContext
    now_us: int
    throttle: bool = False


@dataclass
class PluginEvent:
    """The traffic event under consideration. `payload` reflects prior
    plugins' Modify verdicts as the chain advances.

    `dns()` and `sni()` parse the current payload once for the whole
    chain; a Modify that sets a new payload makes the next call parse
    again. Every plugin gets the same parsed object: treat it as
    read-only and copy what you keep."""
    kind: EventKind
    payload: bytes = b""
    tcp_flags: int | None = None
    tcp_seq: int | None = None
    # (payload parsed, result), keyed on the payload object; plain class
    # attributes, not fields, so building an event does not set them
    _dns = (None, None)
    _sni = (None, None)

    def dns(self) -> dnswire.DnsMessage | None:
        """The payload as a DNS message, or None when it is not one."""
        payload = self.payload
        if self._dns[0] is not payload:
            self._dns = (payload, dnswire.parse_message(payload))
        return self._dns[1]

    def sni(self) -> str | None:
        """The server name of a TLS ClientHello payload, else None."""
        payload = self.payload
        if self._sni[0] is not payload:
            self._sni = (payload, tlswire.extract_sni(payload))
        return self._sni[1]


@dataclass(slots=True)
class EffectiveAction:
    """Outcome of a chain pass in which a verdict took effect: the final
    short-circuiting verdict (Pass when only Modify verdicts composed)
    plus the payload after all composed Modify verdicts. `block` and
    `redirect` are the verdict when it is a Block or a Redirect, else
    None: fields set once here, since the engine reads them two or three
    times per packet."""
    verdict: Verdict
    payload: bytes
    modified: bool = False
    decided_by: str | None = None
    block: Block | None = field(init=False, repr=False, compare=False)
    redirect: Redirect | None = field(init=False, repr=False, compare=False)

    def __init__(self, verdict: Verdict, payload: bytes, modified: bool = False,
                 decided_by: str | None = None):
        self.verdict = verdict
        self.payload = payload
        self.modified = modified
        self.decided_by = decided_by
        self.block = verdict if isinstance(verdict, Block) else None
        self.redirect = verdict if isinstance(verdict, Redirect) else None


class TrafficPlugin:
    """Base class for plugins; override the callbacks you need. The host
    never calls a callback inherited unchanged from this class.

    Callbacks return a Verdict or None (None means Pass). They must be
    bounded-time and must not block on I/O; asynchronous work goes
    through the host services and re-enters as events.
    """

    def on_flow_open(self, event: PluginEvent, ctx: PluginContext) -> Verdict | None:
        return None

    def on_packet_out(self, event: PluginEvent, ctx: PluginContext) -> Verdict | None:
        return None

    def on_packet_in(self, event: PluginEvent, ctx: PluginContext) -> Verdict | None:
        return None

    def on_flow_close(self, event: PluginEvent, ctx: PluginContext) -> Verdict | None:
        return None

    def memory_estimate(self) -> int | None:
        return None

    def finalize(self, ctx: PluginContext) -> None:
        pass


_CALLBACKS = {
    EventKind.FLOW_OPEN: "on_flow_open",
    EventKind.PACKET_OUT: "on_packet_out",
    EventKind.PACKET_IN: "on_packet_in",
    EventKind.FLOW_CLOSE: "on_flow_close",
}

# module globals: reading an Enum member off its class takes about ten
# times as long on Python 3.11 (some 150 ns)
_PACKET_IN = EventKind.PACKET_IN
_INJECT_RESPONSE = BlockMode.INJECT_RESPONSE
_CELLULAR = Connectivity.CELLULAR

# permission bits as plain ints: enum.Flag arithmetic runs in Python
_INJECT_PACKETS = Permission.INJECT_PACKETS.value
_VERDICT_PERMISSION = {
    Modify: Permission.MODIFY_PAYLOAD.value,
    Block: Permission.BLOCK_FLOW.value,
    Redirect: Permission.REDIRECT_FLOW.value,
}

_EMIT_WINDOW_US = 60_000_000


def _overridden(plugin: TrafficPlugin, name: str):
    """The plugin's bound callback `name`, or None when it is the
    TrafficPlugin no-op. Looked up on the instance, so an instance
    attribute or a wrapper set on the class counts as an override."""
    callback = getattr(plugin, name)
    if getattr(callback, "__func__", None) is getattr(TrafficPlugin, name):
        return None
    return callback


@dataclass
class _PluginSlot:
    descriptor: PluginDescriptor
    plugin: TrafficPlugin
    granted: int  # descriptor.requested as an int
    enabled: bool = True
    disabled_reason: str | None = None
    invocations: int = 0
    cpu_overruns: int = 0
    mem_overruns: int = 0
    emit_overruns: int = 0
    violations: int = 0
    # (ts_us, n) for the last minute, oldest first, and the sum of the n
    emitted_window: deque = field(default_factory=deque)
    emitted_in_window: int = 0


class PluginHost:
    def __init__(
        self,
        scheduler: Scheduler,
        upstream: UpstreamNetwork | None = None,
        low_battery_threshold: int | None = None,
        events=None,
    ):
        self._scheduler = scheduler
        # how a probe opens its upstream handle: the upstream's own open
        # until an engine replaces it with its budget gate (`Engine._open`)
        self.open_datagram = None if upstream is None else upstream.open_datagram
        self._low_battery_threshold = low_battery_threshold
        # by id, in registration order
        self._slots: dict[str, _PluginSlot] = {}
        # per event kind, the enabled observing slots in registration order,
        # each with its overridden callback for the kind or None
        self._chains: dict[EventKind, tuple] = dict.fromkeys(_CALLBACKS, ())
        # the enabled slots whose plugin reports its memory (overrides
        # memory_estimate): what governor_tick samples
        self.memory_sampled: tuple[_PluginSlot, ...] = ()
        self.device = _DEFAULT_DEVICE
        self._throttle = self._throttled()  # kept in step with `device`
        self.violations: list[dict] = []
        self.governor_events: list[dict] = []
        # the run's event log, if any (see `Engine.events`): where
        # `record_probe` writes
        self.events = events

    # -- registration ------------------------------------------------------

    def register(self, descriptor: PluginDescriptor, plugin: TrafficPlugin) -> str:
        if descriptor.id in self._slots:
            raise DuplicateId(f"plugin id {descriptor.id!r} already registered")
        req = descriptor.requested
        slot = _PluginSlot(descriptor=descriptor, plugin=plugin, granted=req.value)
        self._slots[descriptor.id] = slot
        if _overridden(plugin, "memory_estimate"):
            self.memory_sampled += (slot,)
        if req & Permission.OBSERVE:
            for kind, name in _CALLBACKS.items():
                self._chains[kind] += ((slot, _overridden(plugin, name)),)
        return descriptor.id

    # -- device context ------------------------------------------------------

    def update_context(self, device: DeviceContext) -> None:
        self.device = device
        self._throttle = self._throttled()

    def _throttled(self) -> bool:
        return (self._low_battery_threshold is not None
                and self.device.battery_percent < self._low_battery_threshold)

    # -- the chain -----------------------------------------------------------

    def dispatch(self, kind: EventKind, key: FlowKey | None, app_label: str,
                 payload: bytes = b"", tcp_flags: int | None = None,
                 tcp_seq: int | None = None) -> EffectiveAction | None:
        """Offer one event to the plugins in registration order, with a
        context whose direction is `in` for PACKET_IN and `out` otherwise.
        Modify verdicts compose; the first permitted Block or Redirect
        short-circuits. The outcome is an EffectiveAction only when a
        verdict took effect (a Modify, a Block or a Redirect); None means
        the event goes on untouched, with its own payload. Verdicts a
        plugin lacks permission for, malformed verdicts, callbacks that
        raise, and Redirect or an injected response on PACKET_IN all
        downgrade to Pass with a violation record. Every enabled observing
        plugin the event reaches counts an invocation, but only the
        callbacks a plugin overrides run, and the event and its context are
        built only when one does.

        CPU is metered on the scheduler clock, k + 1 reads for k callbacks:
        the read that stamps the context starts the first callback's meter
        and each callback's end read starts the next one's. So the first
        callback also pays for building the event and context, and each
        later one for the previous verdict's bookkeeping, about 1 us
        against a 500 us budget."""
        ctx = None
        modified = False
        scheduler = self._scheduler
        for slot, callback in self._chains[kind]:
            if not slot.enabled:  # disabled earlier in this same event
                continue
            slot.invocations += 1
            if callback is None:
                continue
            if ctx is None:
                now = start = scheduler.now_us()
                event = PluginEvent(kind, payload, tcp_flags, tcp_seq)
                ctx = PluginContext(key, app_label,
                                    DIR_IN if kind is _PACKET_IN else DIR_OUT,
                                    kind, self.device, now, self._throttle)
            else:
                event.payload = payload
            try:
                verdict = callback(event, ctx)
            except Exception as exc:  # plugin failure must not hurt the packet path
                self._violation(slot, "callback-error", now, detail=repr(exc))
                verdict = None
            end = scheduler.now_us()
            budget = slot.descriptor.budget
            if end - start <= budget.max_cpu_us_per_packet:
                slot.cpu_overruns = 0
            elif slot.enabled:  # not disabled during its own callback
                slot.cpu_overruns += 1
                if slot.cpu_overruns > budget.violation_grace:
                    self._disable(slot, "CpuOverrun",
                                  f"{end - start}us > {budget.max_cpu_us_per_packet}us "
                                  f"for {slot.cpu_overruns} consecutive packets")
            start = end
            if verdict is None or isinstance(verdict, Pass):
                continue
            needed = _VERDICT_PERMISSION.get(type(verdict))
            if needed is None or not slot.granted & needed:
                self._violation(slot, "permission-denied", now, verdict)
                continue
            if isinstance(verdict, Modify):
                payload = verdict.payload
                modified = True
                continue
            if kind is _PACKET_IN:
                # bytes from upstream can be neither sent elsewhere nor answered
                # in the upstream's place; the verdict past Redirect is a Block
                if isinstance(verdict, Redirect):
                    self._violation(slot, "redirect-on-inbound", now, verdict)
                    continue
                if verdict.mode is _INJECT_RESPONSE:
                    self._violation(slot, "inject-on-inbound", now, verdict)
                    continue
            return EffectiveAction(verdict, payload, modified, slot.descriptor.id)
        if modified:
            return EffectiveAction(PASS, payload, True)
        return None

    def _violation(self, slot: _PluginSlot, kind: str, now_us: int,
                   verdict: Verdict | None = None, detail: str = "") -> None:
        slot.violations += 1
        self.violations.append({
            "ts_us": now_us,
            "plugin": slot.descriptor.id,
            "kind": kind,
            "detail": detail or (type(verdict).__name__ if verdict else ""),
        })

    # -- resource governor -----------------------------------------------------

    def _meter_emitted(self, slot: _PluginSlot, n_bytes: int) -> None:
        budget = slot.descriptor.budget
        now = self._scheduler.now_us()
        # scheduler time never goes back, so the oldest entries sit on the left
        window = slot.emitted_window
        window.append((now, n_bytes))
        slot.emitted_in_window += n_bytes
        cutoff = now - _EMIT_WINDOW_US
        while window[0][0] < cutoff:
            slot.emitted_in_window -= window.popleft()[1]
        rate = slot.emitted_in_window
        if rate > budget.max_emitted_bytes_per_min:
            on_cellular = self.device.connectivity is _CELLULAR
            if slot.descriptor.wifi_only_export and on_cellular:
                self._disable(slot, "EmittedOverrunOnCellular",
                              f"{rate}B/min > {budget.max_emitted_bytes_per_min}B/min")
            else:
                slot.emit_overruns += 1
                if slot.emit_overruns > budget.violation_grace:
                    self._disable(slot, "EmittedOverrun",
                                  f"{rate}B/min > {budget.max_emitted_bytes_per_min}B/min")
        else:
            slot.emit_overruns = 0

    def governor_tick(self) -> None:
        """Sample the self-reported memory of each plugin in
        `memory_sampled` (the engine's run loop calls this at each sweep)."""
        for slot in self.memory_sampled:
            budget = slot.descriptor.budget
            try:
                mem = slot.plugin.memory_estimate()
            except Exception:
                mem = None
            if mem is not None:
                if mem > budget.max_mem_bytes:
                    slot.mem_overruns += 1
                    if slot.mem_overruns > budget.violation_grace:
                        self._disable(slot, "MemOverrun",
                                      f"{mem}B > {budget.max_mem_bytes}B")
                else:
                    slot.mem_overruns = 0

    def _disable(self, slot: _PluginSlot, reason: str, detail: str) -> None:
        if not slot.enabled:
            return
        slot.enabled = False
        slot.disabled_reason = reason
        self._chains = {kind: tuple(entry for entry in chain if entry[0] is not slot)
                        for kind, chain in self._chains.items()}
        self.memory_sampled = tuple(entry for entry in self.memory_sampled if entry is not slot)
        now = self._scheduler.now_us()
        self.governor_events.append({
            "ts_us": now,
            "plugin": slot.descriptor.id,
            "kind": "disabled",
            "detail": f"{reason}: {detail}",
        })
        ctx = PluginContext(key=None, app_label="", direction=DIR_OUT,
                            kind=EventKind.FLOW_CLOSE, device=self.device, now_us=now,
                            throttle=self._throttle)
        try:
            slot.plugin.finalize(ctx)
        except Exception:
            pass

    # -- host-mediated services -------------------------------------------------

    def call_later(self, delay_us: int, fn) -> None:
        """Run `fn` on the engine's event loop after `delay_us`; timers
        that fall due together run in the order they were set."""
        self._scheduler.call_later(delay_us, fn)

    def probe_datagram(self, plugin_id: str, dst: tuple[str, int], payload: bytes,
                       on_reply, timeout_us: int) -> bool:
        """Send a plugin-originated datagram probe and deliver the reply
        (or None on timeout) back as an event. Requires InjectPackets.
        False, with nothing sent, for a disabled plugin, a missing grant or
        a full socket budget; a probe the budget refuses is not metered.
        A send that raises (a destination the upstream cannot parse)
        closes the probe's handle and propagates to the plugin."""
        slot = self._slots[plugin_id]
        if not slot.enabled:
            return False
        if not slot.granted & _INJECT_PACKETS:
            self._violation(slot, "permission-denied", self._scheduler.now_us(),
                            detail="probe_datagram")
            return False
        if self.open_datagram is None:
            return False
        handle = self.open_datagram()
        if handle is None:  # the socket budget is full: nothing sent or metered
            return False
        self._meter_emitted(slot, len(payload))
        if not slot.enabled:
            handle.close()
            return False
        done = {"fired": False}

        def finish(reply: bytes | None):
            if done["fired"]:
                return
            done["fired"] = True
            handle.close()
            on_reply(reply)

        handle.set_callback(lambda _addr, data: finish(data))
        try:
            handle.send_to(dst, payload)
        except BaseException:
            handle.close()
            raise
        self._scheduler.call_later(timeout_us, lambda: finish(None))
        return True

    def record_probe(self, plugin_id: str, probe: dict) -> None:
        """Log one finished probe of a plugin to the event log."""
        if self.events is not None:
            self.events.append({**probe, "event": "probe", "plugin": plugin_id})

    # -- reporting ----------------------------------------------------------------

    def plugin_states(self) -> list[dict]:
        return [
            {
                "id": s.descriptor.id,
                "enabled": s.enabled,
                "disabled_reason": s.disabled_reason,
                "invocations": s.invocations,
                "violations": s.violations,
            }
            for s in self._slots.values()
        ]
