"""The benchmark's seeded input generator, ``perfbench/inputs.py``, imported for tests.

Tests that must hold on every input the benchmark feeds the program read
the documents (and the fine-grids mass starts) from the generator itself.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
_NAME = "perfbench_inputs"


def _load():
    if _NAME not in sys.modules:
        spec = importlib.util.spec_from_file_location(_NAME, _PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_NAME] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[_NAME]


inputs = _load()
