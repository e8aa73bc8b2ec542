"""Three-valued verdicts with mandatory evidence.

Semi-decidable questions get one of three answers:

* Verified -- the positive answer, carrying a witness a checker can replay;
* Refuted  -- the negative answer, also carrying a concrete witness;
* Unknown  -- no answer within budget, carrying the reason.

A Verified or Refuted verdict without a witness is a bug, as is an Unknown
without a reason; the constructors enforce this.
"""

from __future__ import annotations

import sys

VERIFIED = "verified"
REFUTED = "refuted"
UNKNOWN = "unknown"

_RANK = {REFUTED: 0, UNKNOWN: 1, VERIFIED: 2}


class _FrozenType(type):
    """The class builder of ``Frozen``: it checks a subclass's declared
    fields and defaults, stores the fields in slots and compiles the
    ``__init__``."""

    def __new__(mcs, name, bases, namespace):
        if not bases:
            return super().__new__(mcs, name, bases, namespace)
        qualname = namespace.get("__qualname__", name)
        fields = namespace.get("_fields", bases[0]._fields)
        defaults = namespace.get("_defaults", bases[0]._defaults)
        if "__init__" in namespace:
            raise TypeError("%s: Frozen builds __init__ from _fields"
                            % qualname)
        for field in fields:
            # the generated code also names self and object
            if not (isinstance(field, str) and field.isidentifier()) \
                    or field in ("self", "object"):
                raise TypeError("%s: bad field name %r" % (qualname, field))
        optional = fields[len(fields) - len(defaults):]
        if set(defaults) != set(optional):
            raise TypeError("%s: defaults %s are not on trailing fields"
                            % (qualname, sorted(defaults)))
        namespace["__slots__"] = tuple(fields) + tuple(
            namespace.get("__slots__", ()))
        # a class built by a type() call belongs to its caller's module,
        # as type() would record it, not to this one
        namespace.setdefault("__module__",
                             sys._getframe(1).f_globals.get("__name__"))
        cls = super().__new__(mcs, name, bases, namespace)
        lines = ["def __init__(self%s):" % "".join(", " + f for f in fields)]
        lines += ["    object.__setattr__(self, %r, %s)" % (f, f) for f in fields]
        lines.append("    self.__post_init__()"
                     if hasattr(cls, "__post_init__") else "    pass")
        code = {}
        exec(compile("\n".join(lines), "<%s.__init__>" % qualname, "exec"),
             code)
        init = code["__init__"]
        init.__defaults__ = tuple([defaults[f] for f in optional])
        init.__qualname__ = qualname + ".__init__"
        cls.__init__ = init
        return cls


class Frozen(metaclass=_FrozenType):
    """An immutable value compared, hashed and printed by its fields.

    A subclass declares its fields, in order, in ``_fields``, the values
    of its trailing optional fields in ``_defaults`` and, if it
    validates, a ``__post_init__``.  The base builds its ``__init__``
    from these: it sets each field with ``object.__setattr__``, then
    calls ``self.__post_init__()``, looked up at call time.  A subclass
    that writes its own ``__init__``, names a field that is no
    identifier, or gives a default to a field that is not trailing is a
    ``TypeError`` at class creation.  Equality holds only between
    instances of one class with equal fields, the hash is that of the
    field tuple and the repr is ``Name(field=value, ...)``.  Assigning
    or deleting an attribute raises ``AttributeError``.  Instances have
    no ``__dict__``: each field is a slot, which a trusted builder may
    fill with ``object.__setattr__``, skipping the constructor.  A cache
    that is no field gets a slot named in the class's own ``__slots__``,
    which the base extends by the fields; an unset slot reads through
    ``getattr(self, name, None)``, and no cache takes part in equality,
    hashing or repr.  Every engine value class is built on this base
    rather than on the standard dataclass decorator, whose module import
    every process would otherwise pay for at start-up.
    """
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class Verdict(Frozen):
    _fields = ("status", "reason", "witness")
    _defaults = {"witness": None}

    def __post_init__(self):
        if self.status not in _RANK:
            raise ValueError("bad verdict status %r" % self.status)
        if self.status in (VERIFIED, REFUTED) and self.witness is None:
            raise ValueError("%s verdict requires a witness" % self.status)
        if self.status == UNKNOWN and not self.reason:
            raise ValueError("unknown verdict requires a reason")

    @property
    def is_verified(self):
        return self.status == VERIFIED

    @property
    def is_refuted(self):
        return self.status == REFUTED

    @property
    def is_unknown(self):
        return self.status == UNKNOWN

    def to_dict(self):
        return {"status": self.status, "reason": self.reason, "witness": self.witness}


def verified(reason, witness):
    return Verdict(VERIFIED, reason, witness)


def refuted(reason, witness):
    return Verdict(REFUTED, reason, witness)


def unknown(reason):
    return Verdict(UNKNOWN, reason)


def recorded_finding(finding, name):
    """What a recorded witness says a search found, as a producer takes
    it to skip that search.  The producer reads None as "search", so a
    recorded null raises ValueError rather than start one."""
    if finding is None:
        raise ValueError("the recorded %s is null" % name)
    return finding


def weakest(verdicts):
    """The least assuring verdict of a non-empty collection
    (Refuted < Unknown < Verified)."""
    vs = list(verdicts)
    if not vs:
        raise ValueError("no verdicts to combine")
    return min(vs, key=lambda v: _RANK[v.status])
