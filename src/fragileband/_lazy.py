"""numpy, bound lazily, and numpy's linspace formula on floats.

The modules of the package import ``np`` from here.  Importing numpy takes
most of the start-up of a short CLI call, and the band, phase-sweep and
mass-sim commands do no array work, so ``np`` is a module object that
loads numpy on its first attribute access (``importlib.util.LazyLoader``).
From then on it is the numpy module itself, and ``np.x`` costs what it
always did.  If numpy was imported before this module, ``np`` is that module.
If numpy is not installed, ``np`` is a stand-in whose first attribute use
raises ImportError, so the commands that do no array work still run.
"""

from __future__ import annotations

import importlib.util
import sys
import types


class _Missing(types.ModuleType):
    """A module that is not installed: its first attribute use raises ImportError."""

    def __getattr__(self, attr: str):
        raise ImportError(f"this command needs {self.__name__}, which is not installed")


def _lazy_module(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Missing(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_module("numpy")


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()``, bit for bit, without numpy.

    numpy computes i * step + start with step = (stop - start) / (num - 1),
    or (i / (num - 1)) * (stop - start) where that step is zero, and then
    sets the last point to ``stop``.
    """
    div, delta = num - 1, stop - start
    if div > 0:
        step = delta / div
        points = [i / div * delta for i in range(num)] if step == 0 else [i * step for i in range(num)]
    else:
        points = [i * delta for i in range(num)]
    points = [y + start for y in points]
    if num > 1:
        points[-1] = stop
    return points
