import importlib
import pkgutil

import pogorelov


def _package_modules():
    return [
        importlib.import_module(f"pogorelov.{info.name}")
        for info in pkgutil.iter_modules(pogorelov.__path__)
    ]


def test_each_exception_name_is_defined_once():
    by_name = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if (
                isinstance(obj, type)
                and issubclass(obj, BaseException)
                and obj.__module__.startswith("pogorelov.")
            ):
                by_name.setdefault(name, set()).add(obj)
    twice = {n: sorted(c.__module__ for c in cs) for n, cs in by_name.items() if len(cs) > 1}
    assert not twice
    assert {"SizeGuard", "InvariantViolation", "InternalMismatch"} <= set(by_name)


def test_shared_errors_come_from_one_module():
    from pogorelov import characteristic, errors, macohomology, manifolds, polytope

    assert characteristic.SizeGuard is macohomology.SizeGuard is errors.SizeGuard
    assert polytope.InvariantViolation is manifolds.InvariantViolation is errors.InvariantViolation
    assert issubclass(macohomology.InternalMismatch, errors.InvariantViolation)
    assert issubclass(characteristic.LiftFailed, errors.InvariantViolation)
