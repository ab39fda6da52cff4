"""The benchmark tracer's targets still exist in the package.

`perfbench/layers.py` wraps each (owner, attribute) of `_targets()` in its
`--trace 1` mode, so a deleted or renamed function would break that mode.
The module is compiled from its source text, so the check writes nothing
under `perfbench/`.
"""

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
