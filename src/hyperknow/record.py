"""Immutable record types without generated code.

``Record`` is the base of every frozen value type in the package: formula
nodes, proof justifications, structures and verdicts.  A subclass declares
its fields by annotation and works everything else out once, when the class
is created; nothing is compiled.  The contract:

* The fields are the annotated names, those of the bases first, in
  declaration order.  A class-body value is the field's default; a dict,
  list or set default is copied for each instance, so no two instances
  share one.
* The constructor takes the fields positionally or by keyword, fills in the
  defaults, raises ``TypeError`` for missing or extra arguments, and then
  calls ``__post_init__`` when the class has one.
* Names listed in ``_uncompared`` stay out of ``==``, ``hash`` and
  ``repr``.  ``==`` holds between instances of the same class whose
  compared fields are equal; the hash is ``hash`` of the tuple of those
  fields and is cached on the instance; ``repr`` is
  ``Name(field=value, ...)``.
* ``==``, ``hash`` and ``repr`` do not recurse through fields that are
  records: ``==`` walks both values in lockstep on an explicit stack,
  skipping shared parts, ``hash`` is computed bottom-up, and ``repr``
  expands such fields on a stack of pieces, so formulas of any depth
  compare, hash and print in constant stack space.  ``hash`` and ``==``
  are the package's one notion of "the same formula": the proof kernel
  keys its propositional variables by the formulas themselves.
* Instances are frozen: assigning or deleting an attribute raises
  ``AttributeError``.  ``__post_init__`` may store derived attributes with
  ``object.__setattr__``.
* ``__match_args__`` lists the fields, and :func:`replace` builds a copy
  with some fields changed, through the constructor, so it is validated
  again.

A class that is built very often may define its own ``__init__`` with the
fields as named parameters, storing each with ``object.__setattr__``: the
generic one costs about twice as much per call.  The formula node shapes
(:mod:`hyperknow.syntax`), the signature, hypergraph and model records
(:mod:`hyperknow.core`), the evaluation points and the verdicts do.  A
subclass that adds fields gets the generic constructor again.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__
_MISSING = object()


def _getter(names):
    """A function from a record to the tuple of its ``names`` fields."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return lambda record: ()


def _constructor(cls):
    """The generic ``__init__`` of ``cls``: its fields, defaults and
    ``__post_init__`` are bound once, as closure variables."""
    fields, defaults, name = cls._fields, cls._defaults, cls.__qualname__
    field_set, post = frozenset(fields), getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        # A call that does not give every field positionally: take the
        # keywords, fill in the defaults, or say what is wrong.
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            value = kwargs.pop(field, _MISSING)
            if value is _MISSING:
                if field not in defaults:
                    raise TypeError(f"{name}() missing required argument {field!r}")
                value = defaults[field]
                if isinstance(value, (dict, list, set)):
                    value = value.copy()
            values.append(value)
        for key in kwargs:
            raise TypeError(f"{name}() got multiple values for argument {key!r}"
                            if key in field_set else
                            f"{name}() got an unexpected keyword argument {key!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = bind(args, kwargs)
        for field, value in zip(fields, args):
            _set(self, field, value)
        if post is not None:
            post(self)

    __init__.generic = True
    return __init__


class Record:
    """Base of the frozen record types; the module docstring states the
    contract."""

    _fields = ()
    _uncompared = ()
    _hash = None            # the cached hash, once an instance has one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, defaults = [], {}
        for base in reversed(cls.__mro__):
            for name in base.__dict__.get("__annotations__", ()):
                if name not in fields:
                    fields.append(name)
                default = base.__dict__.get(name, _MISSING)
                if default is not _MISSING:
                    defaults[name] = default
        compared = tuple(n for n in fields if n not in cls._uncompared)
        cls._fields = tuple(fields)
        cls._defaults = defaults
        cls._compared = compared
        cls._key = staticmethod(_getter(compared))
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls._fields
        # A constructor written for the class, or for a base with the same
        # fields, stays; otherwise the class gets the generic one.
        owner = next(c for c in cls.__mro__ if "__init__" in c.__dict__)
        if owner is object or owner._fields != cls._fields or \
                getattr(owner.__init__, "generic", False):
            cls.__init__ = _constructor(cls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if isinstance(x, Record) and type(x) is type(y):
                if x._hash is not None and y._hash is not None and x._hash != y._hash:
                    return False
                key = type(x)._key
                todo.extend(zip(key(x), key(y)))
            elif not x == y:
                return False
        return True

    def __hash__(self):
        if self._hash is not None:
            return self._hash
        # Post-order: a record is hashed once every record among its
        # compared fields has its hash cached.
        todo = [self]
        while todo:
            node = todo[-1]
            key = type(node)._key(node)
            pending = [v for v in key if isinstance(v, Record) and v._hash is None]
            if pending:
                todo += pending
                continue
            todo.pop()
            _set(node, "_hash", hash(key))
        return self._hash

    def __repr__(self):
        # Records held directly in fields are expanded on an explicit stack
        # of records and finished text.
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if type(x) is str:
                out.append(x)
                continue
            names = x._compared
            todo.append(")")
            for i in range(len(names) - 1, -1, -1):
                value = getattr(x, names[i])
                todo += (value if isinstance(value, Record) else repr(value),
                         f"{', ' if i else ''}{names[i]}=")
            todo.append(f"{type(x).__qualname__}(")
        return "".join(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash of one process
        # is not the hash of another.
        return type(self), tuple(getattr(self, name) for name in self._fields)


def replace(record, **changes):
    """A copy of ``record`` with the given fields changed, built through the
    class's constructor, so that it is validated again."""
    cls = type(record)
    values = [changes.pop(name) if name in changes else getattr(record, name)
              for name in cls._fields]
    return cls(*values, **changes)
