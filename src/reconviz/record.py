"""A slotted base for records whose constructor only assigns its arguments."""

from __future__ import annotations


class Record:
    """A subclass lists its fields in `__slots__`. When it defines no
    `__init__`, it gets one that takes those fields in order, by position or
    by keyword, and assigns each to its slot. The constructor is generated
    from source, as `dataclasses` and `namedtuple` do, so a call costs what a
    hand-written one costs. Records are equal when their classes match and
    every slot is equal; they are not hashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            return
        body = "".join(f"\n    self.{name} = {name}" for name in cls.__slots__)
        namespace: dict = {}
        exec(f"def __init__(self, {', '.join(cls.__slots__)}):{body or ' pass'}", namespace)
        namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = namespace["__init__"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)
