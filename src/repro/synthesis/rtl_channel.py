"""The executable RT-level method channel.

This is what a global-object connection group becomes after
communication synthesis: a clocked module with per-client REQ/GNT/DONE
handshakes, a registered arbiter policy and a server FSM that invokes
the (behavioural) method bodies — the "mixed RT-behavioural" output of
the ODETTE tool. It runs on the same kernel as the original model, so
pre- and post-synthesis platforms can be simulated and compared.

Handshake (all sampled/driven on the rising clock edge):

1. client drives ``req=1`` with the request payload;
2. the arbiter grants one eligible client (request pending AND guard
   true on the shared state): ``gnt=1``;
3. the server spends ``body_cycles`` clocks executing the method body,
   then drives ``done=1`` with the return payload;
4. the client samples ``done``, drops ``req``; the server clears and
   returns to IDLE.

An uncontended call therefore costs a handful of clocks, and contention
adds arbitration wait — the temporal behaviour the paper defers to
"evaluation after synthesis", reproduced by the EXP-TIME bench.
"""

from __future__ import annotations

import typing

from ..errors import SynthesisError
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..instrument.probes import METHOD_CALL, METHOD_COMPLETE, METHOD_GRANT
from ..kernel.event import Event
from ..kernel.simulator import Simulator
from ..osss.global_object import GlobalObject, SharedStateSpace
from ..osss.request import MethodRequest
from .arbiter_synth import RtlArbiterPolicy, lower_arbiter
from .ir import RtlModule

#: Server FSM state encodings (mirrored onto a trace signal).
ST_IDLE, ST_EXEC, ST_DONE = 0, 1, 2
STATE_NAMES = {ST_IDLE: "IDLE", ST_EXEC: "EXEC", ST_DONE: "DONE"}


class ChannelCallRecord:
    """Cycle-level log entry for one serviced call."""

    def __init__(
        self,
        client: str,
        method: str,
        request_time: int,
        grant_time: int,
        done_time: int,
    ) -> None:
        self.client = client
        self.method = method
        self.request_time = request_time
        self.grant_time = grant_time
        self.done_time = done_time

    @property
    def wait_time(self) -> int:
        return self.grant_time - self.request_time

    @property
    def total_time(self) -> int:
        return self.done_time - self.request_time


class RtlMethodChannel(Module):
    """RT-level implementation of one connection group's communication.

    :param space: the shared state space being lowered (its behavioural
        server must already be stopped by the synthesizer).
    :param handles: the client handles, one hardware port set each.
    :param clk: the synthesis clock.
    :param body_cycles: clocks charged for each method-body execution.

    :class:`~repro.compile.channel.CompiledChannel` subclasses it and
    replaces only the server process and its core, what a client waits
    on between DONE polls (``_done_wait``) and :meth:`bind_netlist`.
    """

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        space: SharedStateSpace,
        handles: typing.Sequence[GlobalObject],
        clk: Signal,
        body_cycles: int = 1,
    ) -> None:
        super().__init__(parent, name)
        if body_cycles < 1:
            raise SynthesisError("body_cycles must be >= 1")
        if not handles:
            raise SynthesisError("a channel needs at least one client")
        self.space = space
        self.clk = clk
        self.body_cycles = body_cycles
        self.clients = sorted(handles, key=lambda h: h.path)
        self.client_paths = [handle.path for handle in self.clients]
        self._index_of = {id(h): i for i, h in enumerate(self.clients)}
        n = len(self.clients)
        self.method_names = sorted(space.methods)
        self.policy: RtlArbiterPolicy = lower_arbiter(
            space.arbiter, n, self.client_paths
        )
        # Per-client wires.
        self.req = [self.signal(f"req_{i}", width=1, init=0) for i in range(n)]
        self.gnt = [self.signal(f"gnt_{i}", width=1, init=0) for i in range(n)]
        self.done = [self.signal(f"done_{i}", width=1, init=0) for i in range(n)]
        self.payload: list[Signal] = [
            self.signal(f"payload_{i}", init=None) for i in range(n)
        ]
        self.result: list[Signal] = [
            self.signal(f"result_{i}", init=None) for i in range(n)
        ]
        # Observability.
        self.state_sig = self.signal("server_state", width=2, init=ST_IDLE)
        self.grant_sig = self.signal("grant_index", width=max(1, (n - 1).bit_length() or 1), init=0)
        # Client-side mutexes (one outstanding call per hardware port).
        self._port_busy = [False] * n
        self._port_free = [self.event(f"port_free_{i}") for i in range(n)]
        self.call_log: list[ChannelCallRecord] = []
        self.calls_serviced = 0
        self.idle_cycles = 0
        self.busy_cycles = 0
        #: What a calling client waits on before each look at its DONE
        #: wire: every rising edge here.
        self._done_wait = [clk.posedge] * n
        self._start_server()

    def _start_server(self) -> None:
        """Register the server process (a clocked thread here)."""
        self.thread(self._server, "server")

    def bind_netlist(self, module: RtlModule) -> None:
        """Attach the group's channel IR; this server models it
        behaviourally and keeps nothing."""

    # -- client side -----------------------------------------------------------

    def client_index(self, handle: GlobalObject) -> int:
        try:
            return self._index_of[id(handle)]
        except KeyError:
            raise SynthesisError(
                f"{handle.path} is not a client of channel {self.path}"
            ) from None

    def client_call(
        self,
        handle: GlobalObject,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: int | None = None,
        client: str | None = None,
        priority: int = 0,
    ):
        """The lowered blocking call (generator; substituted for
        :meth:`GlobalObject.call` after synthesis)."""
        if timeout is not None:
            raise SynthesisError(
                "call timeouts are not supported on a synthesized channel"
            )
        index = self.client_index(handle)
        self.space.descriptor(method)  # validate the method name early
        # One outstanding call per hardware port: serialize extra processes.
        while self._port_busy[index]:
            yield self._port_free[index]
        self._port_busy[index] = True
        try:
            request = MethodRequest(
                client=client or handle.path,
                method=method,
                args=args,
                kwargs=kwargs,
                arrival_time=self.sim.time,
                done_event=Event(self.sim.scheduler, f"{self.path}.unused"),
                priority=priority,
            )
            self.payload[index].write(request)
            self.req[index].write(1)
            self.space.stats.total_requests += 1
            probes = self.sim._probes
            if probes is not None:
                probes.emit(METHOD_CALL, self.sim.time, self.space, request)
            while True:
                yield self._done_wait[index]
                if self.done[index].read().to_int_default(0):
                    break
            outcome = self.result[index].read()
            self.req[index].write(0)
            # Let the server observe the dropped request before this port
            # can issue again (DONE must clear between calls).
            yield self.clk.posedge
        finally:
            self._port_busy[index] = False
            self._port_free[index].notify()
        error = typing.cast("BaseException | None", outcome[1])
        if error is not None:
            raise error
        return outcome[0]

    # -- server side -------------------------------------------------------------
    #
    # The behavioural effects of the handshake, shared by every server
    # core: each runs once per call, at the edge that grants, completes
    # or retires it. Signal writes other than the result stay with the
    # caller, which keeps its own order within the edge.

    def _granted(self, current: MethodRequest) -> None:
        current.grant_time = self.sim.time
        self.space.stats.record_grant(current, self.sim.time)
        probes = self.sim._probes
        if probes is not None:
            probes.emit(METHOD_GRANT, self.sim.time, self.space, current)

    def _complete(self, grant: int, current: MethodRequest) -> None:
        """Run the method body and drive its outcome onto ``result``."""
        space = self.space
        descriptor = space.descriptor(current.method)
        try:
            value = descriptor.invoke(space.state, *current.args, **current.kwargs)
            outcome: tuple = (value, None)
        except Exception as error:
            current.error = error
            outcome = (None, error)
        current.result = outcome[0]
        current.completed = True
        current.complete_time = self.sim.time
        space.stats.record_completion(current)
        probes = self.sim._probes
        if probes is not None:
            probes.emit(METHOD_COMPLETE, self.sim.time, space, current)
        self.result[grant].write(outcome)

    def _retire(self, current: MethodRequest) -> None:
        self.call_log.append(
            ChannelCallRecord(
                current.client,
                current.method,
                current.arrival_time,
                current.grant_time or current.arrival_time,
                self.sim.time,
            )
        )
        self.calls_serviced += 1

    def _sample_requests(self) -> list["MethodRequest | None"]:
        sampled: list["MethodRequest | None"] = []
        for index in range(len(self.clients)):
            if self.req[index].read().to_int_default(0):
                sampled.append(typing.cast(MethodRequest, self.payload[index].read()))
            else:
                sampled.append(None)
        return sampled

    def _server(self):
        space = self.space
        state = ST_IDLE
        grant = 0
        exec_counter = 0
        current: MethodRequest | None = None
        while True:
            yield self.clk.posedge
            requests = self._sample_requests()
            requesting = [request is not None for request in requests]
            self.policy.tick(requesting)
            if state == ST_IDLE:
                self.idle_cycles += 1
                eligible = [
                    index
                    for index, request in enumerate(requests)
                    if request is not None
                    and space.descriptor(request.method).guard_true(space.state)
                ]
                if eligible:
                    grant = self.policy.select(eligible)
                    current = requests[grant]
                    assert current is not None
                    self._granted(current)
                    self.gnt[grant].write(1)
                    self.grant_sig.write(grant)
                    exec_counter = self.body_cycles
                    state = ST_EXEC
            elif state == ST_EXEC:
                self.busy_cycles += 1
                exec_counter -= 1
                if exec_counter == 0:
                    assert current is not None
                    self._complete(grant, current)
                    self.done[grant].write(1)
                    state = ST_DONE
            elif state == ST_DONE:
                self.busy_cycles += 1
                if not self.req[grant].read().to_int_default(0):
                    assert current is not None
                    self._retire(current)
                    self.done[grant].write(0)
                    self.gnt[grant].write(0)
                    current = None
                    state = ST_IDLE
            self.state_sig.write(state)

    # -- statistics -----------------------------------------------------------------

    def mean_call_cycles(self, clock_period: int) -> float:
        """Average request-to-done latency in clock cycles."""
        if not self.call_log:
            return 0.0
        total = sum(record.total_time for record in self.call_log)
        return total / len(self.call_log) / clock_period
