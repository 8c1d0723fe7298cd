"""Runtime method instrumentation — the Javassist-injection analog.

Where :mod:`repro.profiler.tracer` hooks the interpreter, this module
wraps *specific* callables with a measuring decorator, which is the
closest Python analog to JEPO's per-method bytecode injection: each
wrapped method reads the energy counters on entry and exit and appends
one record per execution.  The wrappers record through the same
:class:`~repro.profiler.probes.ProbeRuntime` as the AST probes, so
nested wrapped calls split their energy into exclusive shares and a
failed counter read marks the record suspect instead of failing the
call.
"""

from __future__ import annotations

import functools
import inspect
import types
from typing import Callable, TypeVar

from repro.profiler.probes import ProbeRuntime

F = TypeVar("F", bound=Callable)

#: Attribute set on wrappers so double instrumentation is detectable.
_MARKER = "__pepo_instrumented__"


class Injector(ProbeRuntime):
    """Shared sink for records produced by injected wrappers."""


def instrument_callable(fn: F, injector: Injector, name: str | None = None) -> F:
    """Wrap one callable with entry/exit energy reads.

    Idempotent: instrumenting an already-instrumented callable returns
    it unchanged, so project-wide sweeps cannot stack probes.
    """
    if getattr(fn, _MARKER, False):
        return fn
    method = name or f"{fn.__module__}.{getattr(fn, '__qualname__', fn.__name__)}"
    try:
        filename = inspect.getsourcefile(fn) or ""
        lineno = inspect.getsourcelines(fn)[1]
    except (TypeError, OSError):
        filename, lineno = "", 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        entry = injector.open(method, filename, lineno)
        try:
            return fn(*args, **kwargs)
        finally:
            injector.close(entry)

    setattr(wrapper, _MARKER, True)
    return wrapper  # type: ignore[return-value]


def measured(injector: Injector, name: str | None = None) -> Callable[[F], F]:
    """Decorator form: ``@measured(injector)`` on a def."""

    def decorate(fn: F) -> F:
        return instrument_callable(fn, injector, name=name)

    return decorate


def _probe_targets(cls: type) -> list[tuple[str, types.FunctionType]]:
    """The not-yet-instrumented methods :func:`instrument_class` wraps."""
    return [
        (attr, value)
        for attr, value in vars(cls).items()
        if isinstance(value, types.FunctionType)
        and not (attr not in ("__init__", "__call__") and attr.startswith("__"))
        and not getattr(value, _MARKER, False)
    ]


def instrument_class(cls: type, injector: Injector) -> type:
    """Inject probes into every plain method defined *on* ``cls``.

    Static/class methods and dunders other than ``__init__``/``__call__``
    are left alone (probing ``__getattribute__`` and friends would
    measure the profiler itself).
    """
    for attr, fn in _probe_targets(cls):  # pepo: ignore[R04_GLOBAL_IN_LOOP] read once
        setattr(
            cls,
            attr,
            instrument_callable(
                fn, injector, name=f"{cls.__module__}.{cls.__qualname__}.{attr}"
            ),
        )
    return cls


def instrument_module(module: types.ModuleType, injector: Injector) -> int:
    """Inject probes into every function and class defined in ``module``.

    Returns the number of callables instrumented — the analog of JEPO
    walking "each method in the project".  Only objects *defined* in the
    module (not imported into it) are touched.
    """
    count = 0
    for attr, value in list(vars(module).items()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            if not getattr(value, _MARKER, False):
                setattr(module, attr, instrument_callable(value, injector))
                count += 1
        elif isinstance(value, type):
            count += len(_probe_targets(value))  # pepo: ignore[R04_GLOBAL_IN_LOOP] cold
            instrument_class(value, injector)
    return count
