"""Three-valued verdicts with mandatory evidence.

Semi-decidable questions get one of three answers:

* Verified -- the positive answer, carrying a witness a checker can replay;
* Refuted  -- the negative answer, also carrying a concrete witness;
* Unknown  -- no answer within budget, carrying the reason.

A Verified or Refuted verdict without a witness is a bug, as is an Unknown
without a reason; the constructors enforce this.
"""

from __future__ import annotations

VERIFIED = "verified"
REFUTED = "refuted"
UNKNOWN = "unknown"

_RANK = {REFUTED: 0, UNKNOWN: 1, VERIFIED: 2}


class Frozen:
    """An immutable value compared, hashed and printed by its fields.

    A subclass names its fields, in order, in ``_fields`` and writes its
    own ``__init__``: it sets each field with ``object.__setattr__`` and
    then calls ``self.__post_init__()`` if it validates.  Equality holds
    only between instances of one class with equal fields, the hash is
    that of the field tuple and the repr is ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises ``AttributeError``.
    Instances keep a ``__dict__``, so a trusted builder may fill one
    without the constructor and a method may cache a value that is no
    field; neither takes part in equality, hashing or repr.  Every
    engine value class is built on this base rather than on the standard
    dataclass decorator, whose module import and per-class generated code
    every process would otherwise pay for at start-up.
    """
    _fields = ()

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

    def __init__(self, status, reason, witness=None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)
        self.__post_init__()

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


def weakest(verdicts):
    """The least assuring verdict of a non-empty collection
    (Refuted < Unknown < Verified)."""
    vs = list(verdicts)
    if not vs:
        raise ValueError("no verdicts to combine")
    return min(vs, key=lambda v: _RANK[v.status])
