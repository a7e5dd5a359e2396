"""An observer built from plain callables, for tests that tap one call."""

from repro.sim.observer import HOOKS, Observer


class Hooks(Observer):
    """``Hooks(on_drop=fn)``: an observer whose named calls are *fn*."""

    def __init__(self, **hooks):
        for name, fn in hooks.items():
            if name not in HOOKS:
                raise TypeError(f"unknown observer call {name!r}")
            setattr(self, name, fn)
