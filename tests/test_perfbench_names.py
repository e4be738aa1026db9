"""The benchmark's per-layer tracer looks functions up by name: a renamed
or deleted function would fail every traced benchmark step, so each name
it wraps must resolve here first."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"{module}.{attribute}"
               for _, module, attribute, _, _ in traced
               if not callable(getattr(importlib.import_module(module),
                                       attribute, None))]
    assert missing == []


def _result_hook(span):
    (hook,) = [after for name, _, _, _, after in _traced() if name == span]
    return hook


def test_orbit_and_trajectory_hooks_read_a_real_call():
    """The result hooks read the arguments and results of these two
    functions; each runs here on one small call, so that a change to what
    they take or return fails here first."""
    from wignerflow.classical import OrbitSpec, integrate_orbit
    from wignerflow.gaussian import (GaussianEnsembleParams,
                                     integrate_quantum_trajectory)
    from wignerflow.model import (HamiltonianKind, PhasePoint,
                                  SeparableHamiltonian)

    model = SeparableHamiltonian(HamiltonianKind.TODA, 1.0)
    spec = OrbitSpec.from_energy(model, 2.5, step=0.01, duration=0.1)
    counts = _result_hook("classical.integrate_orbit")(
        (spec,), {}, integrate_orbit(spec))
    assert counts == {"steps": 10, "key": ["toda", 1.0, spec.start.x, 0.0,
                                           0.01]}
    args = (GaussianEnsembleParams(1.0, 1.0), PhasePoint(0.6, 0.0), 0.01,
            0.1)
    counts = _result_hook("gaussian.integrate_quantum_trajectory")(
        args, {}, integrate_quantum_trajectory(*args))
    assert counts == {"steps": 10}
