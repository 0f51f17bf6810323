"""Each setting declared once, with its type, accepted values and default.

A class whose constructor keywords are settings subclasses `Declared`; a
dataclass declares a field with `Setting.field()`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers


@dataclasses.dataclass(frozen=True)
class Setting:
    """An integer or a real number (never a bool) in an interval, or one
    of a few choices, or either. A None default also accepts None."""

    numeric: type | None  # int or float; None: the choices alone
    default: object
    interval: str = ""  # such as "(0, 1]" or "[1, inf)"
    choices: tuple = ()  # compared by type and value
    unit: str = ""  # what a real number counts, such as "seconds"

    def check(self, name: str, value, error: type = ValueError):
        """The value, converted as int(value) or float(value) if a number;
        `error` naming the setting unless it is accepted."""
        if value is None and self.default is None or any(
                type(value) is type(c) and value == c for c in self.choices):
            return value
        # an int setting takes integers only, and neither takes a bool
        whole = int if isinstance(value, numbers.Integral) else float
        if self.numeric in (whole, float) and not isinstance(value, bool) \
                and isinstance(value, numbers.Real):
            lo, hi = (float(b) for b in self.interval[1:-1].split(", "))
            try:
                v = self.numeric(value)
            except OverflowError:  # an int beyond the floats
                v = math.nan
            if (lo < v if self.interval[0] == "(" else lo <= v) and (
                    v < hi if self.interval[-1] == ")" else v <= hi):
                return v  # NaN fails both tests
        raise error("%s must be %s, got %r" % (name, self.describe(), value))

    def describe(self) -> str:
        """The accepted values, as errors and the README state them."""
        words = [json.dumps(c) for c in self.choices]
        lo, _, hi = self.interval[1:-1].partition(", ")
        if self.numeric is int:
            words.append("an integer at least " + lo if hi == "inf"
                         else "an integer in %s..%s" % (lo, hi))
        elif self.numeric is float:
            words.append("%s in %s" % (self.unit or "a number", self.interval))
        return ("one of " + ", ".join(words) if len(words) > 2
                else " or ".join(words))

    def field(self) -> dataclasses.Field:
        """A dataclass field with this default, declared by this setting."""
        return dataclasses.field(default=self.default,
                                 metadata={"setting": self})


SEED = Setting(int, 0, "[0, inf)")  # the run's, a scenario's, a detector's


def settings_of(cls) -> dict:
    """The settings that declare a dataclass's fields, by field name."""
    return {f.name: f.metadata["setting"] for f in dataclasses.fields(cls)
            if "setting" in f.metadata}


def check_fields(obj, error: type = ValueError, prefix: str = "") -> None:
    """Check each declared field of a dataclass, and of the dataclasses
    it holds (named "outer.inner"): `error` on the first refused."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            check_fields(value, error, prefix + f.name + ".")
        elif "setting" in f.metadata:
            f.metadata["setting"].check(prefix + f.name, value, error)


class Declared:
    """Constructor keywords are the settings in PARAMS, each kept checked as
    an attribute; get_params returns them (scikit-learn's convention)."""

    PARAMS: dict = {}

    def __init__(self, **params):
        unknown = sorted(set(params) - set(self.PARAMS))
        if unknown:
            raise TypeError("%s takes no setting %s"
                            % (type(self).__name__, ", ".join(unknown)))
        for name, setting in self.PARAMS.items():
            setattr(self, name,
                    setting.check(name, params.get(name, setting.default)))

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self.PARAMS}
