"""Node inputs, the value-type base, the integration failure type and its tolerances.

Kept free of numpy so that ``config`` and ``cli`` can build a run
configuration, and every CLI command can run, without loading the numerical
layers. :mod:`magrep.dynamics` re-exports the node names defined here.

Every count, real and probability that a constructor or public function
takes is checked by one of three rules, each refusing a bool with a
``ValueError`` that names the argument: :func:`check_count` (an integer, at
least a minimum), :func:`check_real` (finite; ``>= 0``, ``> 0`` or any sign)
and :func:`check_probability` (in [0, 1], NaN outside). The last two compare
plainly, not by ``isinstance(v, numbers.Real)``: they run on the swap path.

Units: all frequencies and rates are angular (rad/s).
"""
from __future__ import annotations

import math
from numbers import Integral

TWO_PI = 2.0 * math.pi

# Checks on every recorded state, shared by both node integrators and by
# qcore's state validation (absolute): Hermiticity max|rho - rho^dag|, the
# floor on the smallest eigenvalue, and the trace drift |tr rho - 1|, which
# is never renormalized away.
HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_DRIFT_LIMIT = 1e-6


def check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a ``value`` that is not an integer (a bool is not) of at least ``minimum``."""
    if value.__class__ is bool or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, bound: str | None = ">= 0") -> None:
    """Refuse a bool, a non-finite value, or one outside ``bound`` (">= 0", "> 0"; None: any)."""
    if (value.__class__ is bool or not -math.inf < value < math.inf
            or (bound == ">= 0" and not value >= 0) or (bound == "> 0" and not value > 0)):
        sign = "" if bound is None else f" and {bound}"
        raise ValueError(f"{name} must be finite{sign}, got {value}")


def check_probability(name: str, value) -> None:
    """Refuse a ``value`` that is a bool or outside [0, 1]; NaN is outside."""
    if value.__class__ is bool or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")


class IntegrationError(RuntimeError):
    """An integrated state lost finiteness, trace, Hermiticity or positivity; never repaired."""


class Value:
    """Base of every magrep value type: immutable fields, checked once, at construction.

    A subclass declares its fields as annotated class attributes, in order; a
    value assigned there is the field's default, shared by every instance, so
    it must be immutable. The constructor takes the fields by position or
    keyword, then runs ``__post_init__``, the class's only range and type
    check, which may normalise a field with ``object.__setattr__``. A field
    cannot be assigned or deleted afterwards. Instances compare, hash and
    print by their fields, unless the class is declared with ``eq=False``,
    which keeps identity equality.

    Defining a subclass generates and compiles no code and imports nothing,
    so a CLI process pays almost nothing for the value types it loads.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for key in kwargs:
            if key not in cls._fields:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {key!r}")
            if key in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {key!r}")
        values.update(kwargs)
        if len(values) < len(cls._fields):
            values = {**cls._defaults, **values}
            missing = [key for key in cls._fields if key not in values]
            if missing:
                raise TypeError(f"{cls.__name__}() missing arguments {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check, and possibly normalise, the fields; raise on an invalid value."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked again by ``__post_init__``."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class LindbladParams(Value):
    """One cavity-magnon node: frequencies, coupling, loss rates, truncations.

    Defaults are a resonant pair at omega/2pi = 10 GHz with coupling
    g_mc/2pi = 130 MHz, cavity decay 1 MHz, magnon decay 0.5 MHz and pure
    dephasing 0.3 MHz on both modes (all /2pi).
    """

    omega_c: float = TWO_PI * 10e9
    omega_m: float = TWO_PI * 10e9
    g_mc: float = TWO_PI * 130e6
    kappa_d: float = TWO_PI * 1e6
    gamma_d: float = TWO_PI * 0.5e6
    kappa_phi: float = TWO_PI * 0.3e6
    gamma_phi: float = TWO_PI * 0.3e6
    dim_c: int = 2
    dim_m: int = 2

    def __post_init__(self) -> None:
        for name in ("omega_c", "omega_m", "g_mc", "kappa_d", "gamma_d", "kappa_phi", "gamma_phi"):
            check_real(name, getattr(self, name))
        for name in ("dim_c", "dim_m"):
            check_count(name, getattr(self, name), 2)

    def without_dissipation(self) -> "LindbladParams":
        return self.replace(kappa_d=0.0, gamma_d=0.0, kappa_phi=0.0, gamma_phi=0.0)

