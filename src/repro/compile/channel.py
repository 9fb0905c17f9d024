"""The compiled RT-level method channel.

Drop-in replacement for
:class:`~repro.synthesis.rtl_channel.RtlMethodChannel`: same
constructor, same signal tree (so fault targets, tracers and probes see
identical paths), same handshake timing, same call log and statistics —
but the server is a single clocked METHOD process driving the
*generated* netlist code from :mod:`repro.compile.codegen` instead of a
generator resuming through the delta queue every edge.

What changes under the hood, cycle-for-cycle equivalent by design:

* the server FSM, grant/method/counter registers and gnt/done output
  logic run as straight-line compiled Python (phase A/B/C, see the
  codegen module) — one function call per clock edge;
* clients block on a per-port completion event the server notifies at
  the first DONE edge, instead of polling ``done`` at every posedge —
  the committed ``req``/``gnt``/``done`` waveforms are unchanged, the
  wakeups per call drop from ~cycles-in-flight to two;
* edges where the channel is provably inert (IDLE with no request on
  any port: every register holds, every output holds) skip the netlist
  call entirely — no staged write, no update-queue entry;
* arbiter *selection* stays delegated to the executable policy object
  both backends share (the emitted arbiter IR is a structural model
  whose tick timing differs from the policy; compiling it verbatim
  would diverge from the interpreted backend). Its result enters the
  netlist through the ``arb_grant_index`` input and the
  arbiter-internal registers are sliced out of the generated code.

Eligibility (request AND guard true on the shared state) is evaluated
behaviourally per client exactly as the interpreted server does — same
``space.descriptor`` call pattern, so channel-level fault models
(delayed grant windows) intercept identically — and enters the netlist
through the per-client ``eligible_i`` inputs.
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
from ..synthesis.arbiter_synth import RtlArbiterPolicy, lower_arbiter
from ..synthesis.ir import RtlModule
from ..synthesis.rtl_channel import ST_DONE, ST_EXEC, ST_IDLE, ChannelCallRecord
from .codegen import CompiledNetlist, compile_module


class CompiledChannel(Module):
    """Compiled-backend implementation of one connection group.

    Constructor contract is identical to ``RtlMethodChannel``; the
    synthesizer must call :meth:`bind_netlist` with the group's channel
    IR before the simulation starts.
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
        # Per-client wires — same names, same paths as the interpreted
        # channel, so fault targets and VCD traces line up exactly.
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
        self.grant_sig = self.signal(
            "grant_index", width=max(1, (n - 1).bit_length() or 1), init=0
        )
        # Client-side mutexes (one outstanding call per hardware port).
        self._port_busy = [False] * n
        self._port_free = [self.event(f"port_free_{i}") for i in range(n)]
        self.call_log: list[ChannelCallRecord] = []
        self.calls_serviced = 0
        self.idle_cycles = 0
        self.busy_cycles = 0
        # Compiled-backend state.
        self._n_clients = n
        self._method_code_of = {m: k for k, m in enumerate(self.method_names)}
        self._method_codes = [0] * n
        self._completion = [self.event(f"completion_{i}") for i in range(n)]
        self._gnt_shadow = [0] * n
        self._done_shadow = [0] * n
        self._state = ST_IDLE
        self._grant = 0
        self._current: MethodRequest | None = None
        self._notify_done = False
        self._netlist: CompiledNetlist | None = None
        self._regs: dict[str, int] = {}
        # A METHOD on the rising edge only: the Event passes through
        # Module.method's sensitivity conversion untouched (a Signal
        # would subscribe both edges) and nothing runs at time zero.
        self.method(
            self._server_edge, sensitivity=(clk.posedge,),
            name="server", initialize=False,
        )

    # -- netlist binding -------------------------------------------------------

    def bind_netlist(self, module: RtlModule) -> None:
        """Compile the group's channel IR into this channel's core.

        The generated code is shared by every channel bound to an equal
        netlist (see :func:`compile_module`); each channel gets its own
        register file.
        """
        n = self._n_clients
        external = ["arb_grant_index"] + [f"eligible_{i}" for i in range(n)]
        self._netlist = compile_module(
            module,
            external=external,
            observe=("take_grant", "exec_go"),
            skip_register_prefixes=("arb_",),
        )
        self._regs = self._netlist.reset_registers()
        self._state_key = f"{module.name}_server_state"
        if self._state_key not in self._regs:
            raise SynthesisError(
                f"channel IR {module.name!r} has no server state register"
            )
        self._ins = {name: 0 for name in self._netlist.input_names}
        self._ins["rst_n"] = 1
        self._outs: dict[str, int] = {}
        self._req_keys = [f"req_{i}" for i in range(n)]
        self._method_keys = [f"method_{i}" for i in range(n)]
        self._eligible_keys = [f"eligible_{i}" for i in range(n)]
        self._gnt_keys = [f"gnt_{i}" for i in range(n)]
        self._done_keys = [f"done_{i}" for i in range(n)]

    @property
    def netlist(self) -> CompiledNetlist:
        if self._netlist is None:
            raise SynthesisError(
                f"channel {self.path} has no compiled netlist bound"
            )
        return self._netlist

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
        :meth:`GlobalObject.call` after synthesis).

        Identical to the interpreted channel's transaction — same
        request object, same probe, same signal writes at the same
        edges — except the per-posedge ``done`` poll becomes a single
        wait on the server's completion event.
        """
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
            self._method_codes[index] = self._method_code_of.get(method, 0)
            self.req[index].write(1)
            self.space.stats.total_requests += 1
            probes = self.sim._probes
            if probes is not None:
                probes.emit(METHOD_CALL, self.sim.time, self.space, request)
            while True:
                yield self._completion[index]
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

    def _server_edge(self) -> None:
        """One clock edge of the compiled server core."""
        req = self.req
        n = self._n_clients
        req_vals = [req[i].read().to_int_default(0) for i in range(n)]
        self.policy.tick([value != 0 for value in req_vals])
        state = self._state
        if state == ST_IDLE:
            self.idle_cycles += 1
            if not any(req_vals):
                # Inert edge: no request, nothing eligible, and the
                # netlist provably holds every register and output
                # (all enables false, FSM self-loops). Skip it.
                return
        ins = self._ins
        space = self.space
        eligible_keys = self._eligible_keys
        req_keys = self._req_keys
        method_keys = self._method_keys
        method_codes = self._method_codes
        if state == ST_IDLE:
            eligible = []
            for i in range(n):
                flag = 0
                if req_vals[i]:
                    request = self.payload[i].read()
                    if space.descriptor(request.method).guard_true(space.state):
                        flag = 1
                        eligible.append(i)
                ins[eligible_keys[i]] = flag
                ins[req_keys[i]] = req_vals[i]
                ins[method_keys[i]] = method_codes[i]
            ins["arb_grant_index"] = (
                self.policy.select(eligible) if eligible else 0
            )
        else:
            for i in range(n):
                ins[eligible_keys[i]] = 0
                ins[req_keys[i]] = req_vals[i]
                ins[method_keys[i]] = method_codes[i]
            ins["arb_grant_index"] = 0
        outs = self._outs
        self._netlist.cycle(self._regs, ins, outs)
        new_state = self._regs[self._state_key]

        # Behavioural effects, keyed off the compiled control flags, in
        # the interpreted server's order.
        granted_this_edge = False
        if state == ST_IDLE:
            if outs["pre:take_grant"]:
                grant = ins["arb_grant_index"]
                current = typing.cast(
                    MethodRequest, self.payload[grant].read()
                )
                self._grant = grant
                self._current = current
                granted_this_edge = True
                current.grant_time = self.sim.time
                space.stats.record_grant(current, self.sim.time)
                probes = self.sim._probes
                if probes is not None:
                    probes.emit(METHOD_GRANT, self.sim.time, space, current)
        elif state == ST_EXEC:
            self.busy_cycles += 1
            if outs["pre:exec_go"]:
                current = self._current
                assert current is not None
                descriptor = space.descriptor(current.method)
                try:
                    value = descriptor.invoke(
                        space.state, *current.args, **current.kwargs
                    )
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
                    probes.emit(
                        METHOD_COMPLETE, self.sim.time, space, current
                    )
                self.result[self._grant].write(outcome)
                self._notify_done = True
        else:  # ST_DONE
            self.busy_cycles += 1
            if self._notify_done:
                # First DONE edge after completion: the client's next
                # observation point. It reads the committed done/result
                # now — exactly when the interpreted client's posedge
                # poll would have seen done=1.
                self._notify_done = False
                self._completion[self._grant].notify()
            if not req_vals[self._grant]:
                current = self._current
                assert current is not None
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
                self._current = None

        self._state = new_state
        # Drive the handshake wires from the post-edge output cone; a
        # write only when the value moves keeps the update queue quiet
        # (commits are change-deduplicated anyway, so the committed
        # waveforms match the interpreted channel's exactly). Staging
        # order mirrors the interpreted server within an edge: done
        # before gnt, gnt before grant_index, state last.
        gnt_shadow = self._gnt_shadow
        done_shadow = self._done_shadow
        gnt_keys = self._gnt_keys
        done_keys = self._done_keys
        for i in range(n):
            value = outs[done_keys[i]]
            if value != done_shadow[i]:
                done_shadow[i] = value
                self.done[i].write(value)
            value = outs[gnt_keys[i]]
            if value != gnt_shadow[i]:
                gnt_shadow[i] = value
                self.gnt[i].write(value)
        if granted_this_edge:
            self.grant_sig.write(self._grant)
        if new_state != state:
            self.state_sig.write(new_state)

    # -- statistics -----------------------------------------------------------------

    def mean_call_cycles(self, clock_period: int) -> float:
        """Average request-to-done latency in clock cycles."""
        if not self.call_log:
            return 0.0
        total = sum(record.total_time for record in self.call_log)
        return total / len(self.call_log) / clock_period
