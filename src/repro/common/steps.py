"""Resumable computations: generators that yield between units of work.

A long computation written as a generator -- one ``yield`` after each
short unit of work, the result as the generator's return value -- can
be suspended by a caller that shares its thread (the service's event
loop) and still be run straight through by everyone else with
:func:`drain`.  Both callers execute the same code in the same order.
Yielded values only describe the unit just done; callers may ignore
them.
"""

from __future__ import annotations

from typing import Any, Generator, TypeVar

T = TypeVar("T")

#: A resumable computation returning ``T``.
Steps = Generator[Any, None, T]


def drain(steps: "Steps[T]") -> T:
    """Run a step generator to completion; return its return value."""
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return stop.value
