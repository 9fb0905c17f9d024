"""Channel IR generation.

Builds the structural :class:`~repro.synthesis.ir.RtlModule` for one
lowered connection group: the per-client REQ/GNT/DONE handshake, the
latched grant/method registers, the arbiter (from
:mod:`~repro.synthesis.arbiter_synth`) and the three-state server FSM.
This netlist is what the Verilog/VHDL backends print and the report
measures; the matching executable model is
:class:`~repro.synthesis.rtl_channel.RtlMethodChannel`.
"""

from __future__ import annotations

import typing

from ..errors import SynthesisError
from .ir import (
    BinOp,
    Const,
    Fsm,
    Mux,
    RtlModule,
    UnOp,
    clog2,
    mux_chain,
)


def build_channel_ir(
    name: str,
    n_clients: int,
    method_names: typing.Sequence[str],
    arbiter_kind: str,
    body_cycles: int = 1,
    priorities: typing.Sequence[int] | None = None,
    data_width: int = 32,
) -> RtlModule:
    """Generate the channel netlist.

    :param method_names: guarded methods of the shared class; their
        guard bits arrive as input ports from the object module.
    :param data_width: width of the opaque argument/return data buses
        (the behavioural data path of the mixed RT/behavioural output).
    """
    from .arbiter_synth import emit_arbiter_ir

    if n_clients < 1:
        raise SynthesisError("channel needs at least one client")
    if not method_names:
        raise SynthesisError("channel needs at least one method")
    module = RtlModule(
        name,
        comment=(
            f"method-call channel: {n_clients} client(s), "
            f"{len(method_names)} guarded method(s), arbiter={arbiter_kind}"
        ),
    )
    method_bits = clog2(max(2, len(method_names)))
    idx_width = clog2(max(2, n_clients))

    module.add_port("clk", "in", 1, "synthesis clock")
    module.add_port("rst_n", "in", 1, "asynchronous reset, active low")
    req = [module.add_port(f"req_{i}", "in", 1, f"client {i} request") for i in range(n_clients)]
    method = [
        module.add_port(f"method_{i}", "in", method_bits, f"client {i} method select")
        for i in range(n_clients)
    ]
    module.add_port("arg_data", "in", data_width,
                    "behavioural argument bus (opaque to the control synthesis)")
    gnt = [module.add_port(f"gnt_{i}", "out", 1, f"client {i} grant") for i in range(n_clients)]
    done = [module.add_port(f"done_{i}", "out", 1, f"client {i} completion") for i in range(n_clients)]
    module.add_port("ret_data", "out", data_width, "behavioural return bus")
    guards = [
        module.add_port(f"guard_{k}", "in", 1,
                        f"guard of method {method_name!r} over the object state")
        for k, method_name in enumerate(method_names)
    ]
    exec_go = module.add_port("exec_go", "out", 1,
                              "to the object server: execute the latched method")
    exec_method = module.add_port("exec_method", "out", method_bits,
                                  "latched method index for the object server")

    # Per-client eligibility: requesting AND the guard of its selected method.
    eligible = []
    for i in range(n_clients):
        guard_mux_cases = [
            (BinOp("==", method[i].ref(), Const(k, method_bits)), guards[k].ref())
            for k in range(len(method_names))
        ]
        guard_sel = module.add_net(f"guard_sel_{i}", 1,
                                   f"guard of client {i}'s requested method")
        module.add_assign(guard_sel, mux_chain(Const(0, 1), guard_mux_cases))
        bit = module.add_net(f"eligible_{i}", 1)
        module.add_assign(bit, BinOp("&", req[i].ref(), guard_sel.ref()))
        eligible.append(bit.ref())

    # Server FSM.
    fsm = Fsm(f"{name}_server", ["IDLE", "EXEC", "DONE"], "IDLE")
    module.add_fsm(fsm)
    state = fsm.state_register
    in_idle = module.add_net("in_idle", 1)
    module.add_assign(in_idle, BinOp("==", state.ref(), Const(fsm.encode("IDLE"), state.width)))
    in_exec = module.add_net("in_exec", 1)
    module.add_assign(in_exec, BinOp("==", state.ref(), Const(fsm.encode("EXEC"), state.width)))
    in_done = module.add_net("in_done", 1)
    module.add_assign(in_done, BinOp("==", state.ref(), Const(fsm.encode("DONE"), state.width)))

    # Arbiter (policy-specific registers + encoder).
    any_eligible, grant_index = emit_arbiter_ir(
        module, arbiter_kind, n_clients, eligible, in_idle.ref(), priorities
    )

    grant_reg = module.add_register("grant_reg", idx_width, 0, "latched grant")
    take_grant = module.add_net("take_grant", 1)
    module.add_assign(take_grant, BinOp("&", in_idle.ref(), any_eligible.ref()))
    module.add_clocked_assign(grant_reg, grant_index.ref(), enable=take_grant.ref(),
                              comment="capture the arbitration winner")

    method_reg = module.add_register("method_reg", method_bits, 0, "latched method")
    method_mux_cases = [
        (BinOp("==", grant_index.ref(), Const(i, idx_width)), method[i].ref())
        for i in range(n_clients)
    ]
    module.add_clocked_assign(
        method_reg,
        mux_chain(Const(0, method_bits), method_mux_cases),
        enable=take_grant.ref(),
        comment="method of the granted client",
    )
    module.add_assign(exec_method, method_reg.ref())

    # Body-cycle counter.
    counter_width = clog2(max(2, body_cycles + 1))
    counter = module.add_register("exec_counter", counter_width, 0,
                                  "method-body cycle budget")
    counter_zero = module.add_net("exec_done", 1)
    module.add_assign(counter_zero, BinOp("==", counter.ref(), Const(0, counter_width)))
    module.add_clocked_assign(
        counter,
        Mux(
            take_grant.ref(),
            Const(body_cycles - 1, counter_width),
            Mux(
                BinOp("&", in_exec.ref(), UnOp("~", counter_zero.ref())),
                BinOp("-", counter.ref(), Const(1, counter_width)),
                counter.ref(),
            ),
        ),
        comment="load on grant, count down in EXEC",
    )
    module.add_assign(exec_go, BinOp("&", in_exec.ref(), counter_zero.ref()),
                      "fires the behavioural method body")

    # Request-drop detection for the granted client.
    req_mux_cases = [
        (BinOp("==", grant_reg.ref(), Const(i, idx_width)), req[i].ref())
        for i in range(n_clients)
    ]
    granted_req = module.add_net("granted_req", 1, "REQ of the granted client")
    module.add_assign(granted_req, mux_chain(Const(0, 1), req_mux_cases))

    fsm.add_transition("IDLE", any_eligible.ref(), "EXEC")
    fsm.add_transition("EXEC", counter_zero.ref(), "DONE")
    fsm.add_transition("DONE", UnOp("~", granted_req.ref()), "IDLE")

    # Handshake outputs.
    for i in range(n_clients):
        is_granted = module.add_net(f"is_granted_{i}", 1)
        module.add_assign(
            is_granted, BinOp("==", grant_reg.ref(), Const(i, idx_width))
        )
        module.add_assign(
            gnt[i],
            BinOp("&", UnOp("~", in_idle.ref()), is_granted.ref()),
        )
        module.add_assign(
            done[i],
            BinOp("&", in_done.ref(), is_granted.ref()),
        )

    # The behavioural return path: modelled as a registered pass-through.
    ret_reg = module.add_register("ret_reg", data_width, 0,
                                  "behavioural return data (opaque)")
    module.add_clocked_assign(ret_reg, module.port("arg_data").ref(),
                              enable=exec_go.ref(),
                              comment="captured when the body fires")
    module.add_assign(module.port("ret_data"), ret_reg.ref())
    return module
