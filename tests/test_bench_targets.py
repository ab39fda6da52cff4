"""The benchmark tracer's targets still exist in the package.

`perfbench/layers.py` wraps each (owner, attribute) of `_targets()` in its
`--trace 1` mode, so a deleted or renamed function would break that mode.
The module is compiled from its source text, so the check writes nothing
under `perfbench/`.
"""

import math
import pathlib
import types

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers() -> types.ModuleType:
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), module.__dict__)
    return module


def test_tracer_targets_resolve():
    targets = load_layers()._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_tracer_reads_U_radius():
    """The tracer labels U's regimes by `special._U_ASYMPT_RADIUS`; the alias
    must stay on the radius U uses, or its labels split at the wrong |z|."""
    from factorsim import special

    assert special._U_ASYMPT_RADIUS == special._ASYMPT_RADIUS
    regime = load_layers()._kummer_u_regime
    inside = complex(0.0, special._ASYMPT_RADIUS)
    outside = complex(0.0, math.nextafter(special._ASYMPT_RADIUS, math.inf))
    assert regime(special, (0.75 - 0.25j, 1.5, inside), {}) == "special.kummer_U.connection"
    assert regime(special, (0.75 - 0.25j, 1.5, outside), {}) == "special.kummer_U.asymptotic"
