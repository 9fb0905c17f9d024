"""Clock and reset generators."""

from __future__ import annotations

from ..errors import SimulationError
from ..kernel.event import Event
from ..kernel.process import Timeout
from ..kernel.simulator import Simulator
from .logic import L0, L1
from .module import Module


class Clock(Module):
    """A free-running clock.

    The clock level lives on the 1-bit signal :attr:`clk`; the
    convenience events :attr:`posedge` / :attr:`negedge` come from it.

    :param period: full period in femtoseconds.
    :param duty: high fraction of the period (default 0.5).
    :param start_high: initial level.
    """

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        period: int,
        duty: float = 0.5,
        start_high: bool = False,
    ) -> None:
        super().__init__(parent, name)
        if period <= 1:
            raise SimulationError(f"clock period must be > 1 fs, got {period}")
        if not 0.0 < duty < 1.0:
            raise SimulationError(f"duty cycle must be in (0, 1), got {duty}")
        self.period = period
        self.high_time = max(1, int(period * duty))
        self.low_time = period - self.high_time
        if self.low_time < 1:
            raise SimulationError(
                f"duty cycle {duty} leaves no low time at period {period}"
            )
        self.start_high = start_high
        self.clk = self.signal("clk", width=1, init=L1 if start_high else L0)
        self.cycle_count = 0
        self.thread(self._toggle, "toggle")

    @property
    def posedge(self) -> Event:
        return self.clk.posedge

    @property
    def negedge(self) -> Event:
        return self.clk.negedge

    def _toggle(self):
        high = Timeout(self.high_time)
        low = Timeout(self.low_time)
        if self.start_high:
            while True:
                yield high
                self.clk.write(0)
                yield low
                self.clk.write(1)
                self.cycle_count += 1
        else:
            while True:
                yield low
                self.clk.write(1)
                self.cycle_count += 1
                yield high
                self.clk.write(0)


class ResetGenerator(Module):
    """Asserts an (active-low by default) reset for a fixed duration."""

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        duration: int,
        active_low: bool = True,
    ) -> None:
        super().__init__(parent, name)
        if duration <= 0:
            raise SimulationError(f"reset duration must be positive, got {duration}")
        self.duration = duration
        self.active_low = active_low
        asserted = 0 if active_low else 1
        self.rst = self.signal("rst", width=1, init=asserted)
        self.done = self.event("reset_done")
        self.thread(self._run, "run")

    def _run(self):
        yield Timeout(self.duration)
        self.rst.write(1 if self.active_low else 0)
        self.done.notify_delta()
