"""Count the public callables and settable values of each library module.

A settable value is a defaulted parameter of a public function or method,
or a field of a public dataclass (defaulted or not: each one is a value a
caller chooses).  Public means a name without a leading underscore that is
defined in the module itself; methods count when their class is public.
Exception classes are error types, not entry points, and are not counted.
Every module of the package except the `cli` front end is counted.

Usage: python scripts/option_count.py
"""

import dataclasses
import importlib
import inspect
import pkgutil

import neckforge


def _defaulted(fn) -> list:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def _public(mod):
    for name, obj in sorted(vars(mod).items()):
        if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


def module_report(mod) -> tuple:
    """(callables, settable values), each a list of qualified names."""
    callables, values = [], []
    for name, obj in _public(mod):
        if inspect.isfunction(inspect.unwrap(obj)):  # lru_cache wrappers too
            callables.append(name)
            values += [f"{name}({p})" for p in _defaulted(obj)]
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            callables.append(name)
            if dataclasses.is_dataclass(obj):
                values += [f"{name}.{f.name}" for f in dataclasses.fields(obj)]
            for attr, raw in sorted(vars(obj).items()):
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not attr.startswith("_") and inspect.isfunction(fn):
                    values += [f"{name}.{attr}({p})" for p in _defaulted(fn)]
    return callables, values


def main():
    total_callables = total_values = 0
    for info in pkgutil.iter_modules(neckforge.__path__):
        if info.name == "cli":
            continue
        mod = importlib.import_module(f"neckforge.{info.name}")
        callables, values = module_report(mod)
        total_callables += len(callables)
        total_values += len(values)
        print(f"{info.name}: {len(callables)} callables, {len(values)} settable values")
        for v in values:
            print(f"    {v}")
    print(f"total: {total_callables} callables, {total_values} settable values")


if __name__ == "__main__":
    main()
