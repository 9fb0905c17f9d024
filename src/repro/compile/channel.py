"""The compiled RT-level method channel.

:class:`CompiledChannel` is a
:class:`~repro.synthesis.rtl_channel.RtlMethodChannel` whose server
core runs the *generated* netlist code from :mod:`repro.compile.codegen`.
Everything a client or an observer sees comes from the base class: the
constructor and signal tree (so fault targets, tracers and probes see
identical paths), the client's request, the grant/complete/retire
effects, the call log and the statistics. The subclass overrides four
things, cycle-for-cycle equivalent by design:

* the server is one clocked METHOD process on the rising edge instead
  of a generator thread resuming through the delta queue every edge;
* its core (:meth:`CompiledChannel._server_edge`) runs the server FSM,
  grant/method/counter registers and gnt/done output logic as
  straight-line compiled Python (phase A/B/C, see the codegen module) —
  one function call per clock edge — and skips the call entirely on
  edges where the channel is provably inert (IDLE with no request on
  any port: every register and output holds);
* a calling client blocks on a per-port completion event the server
  notifies at the first DONE edge, instead of polling ``done`` at every
  posedge — the committed ``req``/``gnt``/``done`` waveforms are
  unchanged, the wakeups per call drop from ~cycles-in-flight to two;
* :meth:`CompiledChannel.bind_netlist` and
  :attr:`CompiledChannel.netlist` hold the compiled core.

Arbiter *selection* stays delegated to the executable policy object
both backends share (the emitted arbiter IR is a structural model whose
tick timing differs from the policy; compiling it verbatim would
diverge from the interpreted backend). Its result enters the netlist
through the ``arb_grant_index`` input and the arbiter-internal
registers are sliced out of the generated code. Eligibility (request
AND guard true on the shared state) is evaluated behaviourally per
client exactly as the interpreted server does — same
``space.descriptor`` call pattern, so channel-level fault models
(delayed grant windows) intercept identically — and enters the netlist
through the per-client ``eligible_i`` inputs.
"""

from __future__ import annotations

import typing

from ..errors import SynthesisError
from ..osss.request import MethodRequest
from ..synthesis.ir import RtlModule
from ..synthesis.rtl_channel import ST_EXEC, ST_IDLE, RtlMethodChannel
from .codegen import CompiledNetlist, compile_module


class CompiledChannel(RtlMethodChannel):
    """Compiled-backend implementation of one connection group.

    The synthesizer must call :meth:`bind_netlist` with the group's
    channel IR before the simulation starts.
    """

    def _start_server(self) -> None:
        n = len(self.clients)
        self._done_wait = [self.event(f"completion_{i}") for i in range(n)]
        self._method_code_of = {m: k for k, m in enumerate(self.method_names)}
        self._gnt_shadow = [0] * n
        self._done_shadow = [0] * n
        self._state = ST_IDLE
        self._grant = 0
        self._current: MethodRequest | None = None
        self._notify_done = False
        self._netlist: CompiledNetlist | None = None
        # A METHOD on the rising edge only: the Event passes through
        # Module.method's sensitivity conversion untouched (a Signal
        # would subscribe both edges) and nothing runs at time zero.
        self.method(
            self._server_edge, sensitivity=(self.clk.posedge,),
            name="server", initialize=False,
        )

    # -- netlist binding -------------------------------------------------------

    def bind_netlist(self, module: RtlModule) -> None:
        """Compile the group's channel IR into this channel's core.

        The generated code is shared by every channel bound to an equal
        netlist (see :func:`compile_module`); each channel gets its own
        register file.
        """
        n = len(self.clients)
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

    # -- server side -------------------------------------------------------------

    def _server_edge(self) -> None:
        """One clock edge of the compiled server core."""
        req = self.req
        n = len(self.clients)
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
        if state == ST_IDLE:
            # A port's method select only matters while it requests:
            # the method register latches the granted (so requesting)
            # port's select, and only on an IDLE edge.
            method_keys = self._method_keys
            method_code_of = self._method_code_of
            eligible = []
            for i in range(n):
                flag = 0
                if req_vals[i]:
                    request = self.payload[i].read()
                    if space.descriptor(request.method).guard_true(space.state):
                        flag = 1
                        eligible.append(i)
                    ins[method_keys[i]] = method_code_of[request.method]
                ins[eligible_keys[i]] = flag
                ins[req_keys[i]] = req_vals[i]
            ins["arb_grant_index"] = (
                self.policy.select(eligible) if eligible else 0
            )
        else:
            for i in range(n):
                ins[eligible_keys[i]] = 0
                ins[req_keys[i]] = req_vals[i]
            ins["arb_grant_index"] = 0
        outs = self._outs
        self._netlist.cycle(self._regs, ins, outs)
        new_state = self._regs[self._state_key]

        # Behavioural effects, keyed off the compiled control flags, in
        # the interpreted server's order.
        granted_this_edge = False
        if state == ST_IDLE:
            if outs["pre:take_grant"]:
                self._grant = ins["arb_grant_index"]
                self._current = typing.cast(
                    MethodRequest, self.payload[self._grant].read()
                )
                granted_this_edge = True
                self._granted(self._current)
        elif state == ST_EXEC:
            self.busy_cycles += 1
            if outs["pre:exec_go"]:
                assert self._current is not None
                self._complete(self._grant, self._current)
                self._notify_done = True
        else:  # ST_DONE
            self.busy_cycles += 1
            if self._notify_done:
                # First DONE edge after completion: the client's next
                # observation point. It reads the committed done/result
                # now — exactly when the interpreted client's posedge
                # poll would have seen done=1.
                self._notify_done = False
                self._done_wait[self._grant].notify()
            if not req_vals[self._grant]:
                assert self._current is not None
                self._retire(self._current)
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
