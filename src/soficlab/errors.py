"""Exception types shared across the package, and the base of its records."""


class _Record:
    """A frozen record.  Its fields are the annotated lines of the class body,
    in order; the class's own ``__init__`` sets them with
    ``object.__setattr__``.  Assignment and deletion raise
    ``dataclasses.FrozenInstanceError``.  The repr shows every field but those
    named by the class keyword ``hidden``.  A record compares and hashes by
    its field tuple, as a frozen dataclass does; the class keyword
    ``eq=False`` keeps object identity instead.

    Not a dataclass: ``@dataclass`` builds each class's methods by ``exec``
    at import, which took most of the package's import time.
    """

    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, hidden: tuple[str, ...] = ()):
        cls._fields = tuple(cls.__annotations__)
        cls._shown = tuple(f for f in cls._fields if f not in hidden)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._shown)})"

    def __setattr__(self, name, *value):
        # imported on refusal only, so that importing the package does not load dataclasses
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


class SoficlabError(Exception):
    """Base class for all package errors."""


class ValidationError(SoficlabError):
    """An input object or experiment spec violates its contract."""


class UnsupportedElementError(SoficlabError):
    """A group element is outside a declared finite support.

    Carries the offending element so callers can report it by name.
    """

    def __init__(self, element, context: str = ""):
        self.element = element
        msg = f"element {element} outside declared support"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class BudgetExceededError(SoficlabError):
    """An enumeration would exceed its point budget.

    ``required`` is the budget that would have been needed.
    """

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        super().__init__(f"{what} needs {required} points, budget is {budget}")


class SingularMatrixError(SoficlabError):
    """A determinant-based operation met a singular integer matrix."""
