"""What every tverlab layer shares: the record decorator, ``Coloring``, int
checks, ``is_prime``, the face budget and its errors.  It imports no other
tverlab module, so that bounds and geometry load without the complex store.
"""

from __future__ import annotations

import operator

DEFAULT_FACE_BUDGET = 10_000_000


class FaceBudgetError(RuntimeError):
    """A construction would exceed the configured face budget."""


class DecompositionError(RuntimeError):
    """The chessboard decomposition bijection failed to verify.

    This indicates an implementation bug, never a property of the input;
    ``counterexample`` holds the offending face.
    """

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# this bound (OEIS A014233); above it no fixed base set is known to be.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality test; raises ``ValueError`` for p at or above
    about 3.3e24, where it could not be exact, and for p not an ``int``."""
    if not is_int(p):
        raise ValueError(f"{p!r} is not an integer")
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(f"primality of p >= {_PRIME_TEST_LIMIT} is not decided exactly")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_budget(count: int, budget, what: str) -> None:
    """Raise ``FaceBudgetError`` when ``count`` faces exceed ``budget``
    (``DEFAULT_FACE_BUDGET`` when None)."""
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    if count > budget:
        raise FaceBudgetError(
            f"{what} needs more than the face budget of {budget}; "
            f"raise the budget explicitly if this is intended"
        )


def _record(cls):
    """Class decorator for the library's records, in place of ``dataclasses``
    (whose import and ``exec``-made methods cost a cold CLI start about
    10 ms): ``__init__`` over the annotated fields, with class-attribute
    defaults, then ``__post_init__``; ``__eq__``, ``__hash__`` and ``__repr__``
    on the fields; no assignment (a ``cached_property`` writes ``__dict__``)."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    values_of = operator.attrgetter(*names)

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or kwargs.keys() - names[len(args):] or len(values) < len(names):
            raise TypeError(f"{cls.__name__} takes the fields {names}: got {args} and {kwargs}")
        for name in names:  # in field order, so that instances share their keys
            object.__setattr__(self, name, values[name])
        post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values_of(self) == values_of(other)

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def refuse(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: {name!r} cannot change")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(values_of(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_record
class Coloring:
    """Ordered partition of vertex ids into nonempty color classes; a vertex
    that is not an ``int`` raises ``ValueError``."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        classes = tuple(map(tuple, self.classes))
        for block in classes:
            if not all(map(is_int, block)):
                raise ValueError(f"color class {block} has a vertex that is not an integer")
        object.__setattr__(self, "classes", tuple(tuple(sorted(block)) for block in classes))
        seen: set[int] = set()
        total = 0
        for block in self.classes:
            if not block:
                raise ValueError("color classes must be nonempty")
            total += len(block)
            seen.update(block)
        if len(seen) != total:
            raise ValueError("color classes must be pairwise disjoint")
        if seen and seen != set(range(max(seen) + 1)):
            raise ValueError("color classes must cover exactly the vertex range")

    @property
    def n_vertices(self) -> int:
        return sum(len(block) for block in self.classes)

    @property
    def n_colors(self) -> int:
        return len(self.classes)


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(**args) -> None:
    """Raise ``ValueError`` naming the first argument that is not an
    ``int``, ``bool`` excluded, or a list or tuple holding one that is not."""
    for name, value in args.items():
        if isinstance(value, (list, tuple)):
            if not all(map(is_int, value)):
                raise ValueError(f"{name} {value} include one that is not an integer")
        elif not is_int(value):
            raise ValueError(f"{name} = {value!r} is not an integer")


def is_int_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(f, list) and all(map(is_int, f)) for f in value
    )


def json_field(doc, key: str, valid, expected: str):
    """``doc[key]`` of a parsed JSON object, checked by ``valid``; raises
    ``ValueError`` naming the key if it is missing or ``valid`` rejects it."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, not {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    if not valid(doc[key]):
        raise ValueError(f"key {key!r} must be {expected}, not {type(doc[key]).__name__}")
    return doc[key]
