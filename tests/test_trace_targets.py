"""The benchmark's layer tracer patches engine and layer functions by name
(perfbench/tracing.py). A renamed or removed target would otherwise show
only when someone runs `perfbench/run.py --trace 1`."""

import dataclasses
from pathlib import Path

from opposim.engine import Simulation
from opposim.scenario import load_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_exist_and_record_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = dataclasses.replace(load_scenario("desk", router="hrson"),
                              duration=3 * 3600.0)
    with tracing.instrumented(tracing.Tracer()) as tracer:
        Simulation(cfg, 1).run()
    for name in ("radio.assign_channel", "radio.step_radio",
                 "radio.bandwidth.member", "radio.bandwidth.effective",
                 "mobility.position"):
        assert tracer.stats(name)[0] > 0, name
