"""The one record of an exactly verified (in)equality, and the one way to fail.

`check` evaluates a relation between two exact values; `require` raises the
first failed check of a group, naming it and both measured sides. A failed
check is a library bug (exit 3 at the CLI), never an input error.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import frac_str

_RELATIONS = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One exactly evaluated (in)equality; `relation` relates lhs to rhs."""

    lhs: Fraction
    rhs: Fraction
    relation: str  # a key of _RELATIONS
    ok: bool

    def to_json(self) -> dict:
        return {"lhs": frac_str(self.lhs), "rhs": frac_str(self.rhs), "ok": self.ok}


def check(lhs, relation: str, rhs) -> Check:
    return Check(lhs, rhs, relation, _RELATIONS[relation](lhs, rhs))


def require(what: str, checks: dict[str, Check]) -> dict[str, Check]:
    """`checks` when every one holds; else RuntimeError naming the first failed."""
    for name, c in checks.items():
        if not c.ok:
            sides = f"{frac_str(c.lhs)} {c.relation} {frac_str(c.rhs)}"
            raise RuntimeError(f"internal: {what} failed: {name} ({sides})")
    return checks
