"""Lightweight pass/fail reports with witnesses."""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass


@dataclass(frozen=True)
class Report:
    """Outcome of a structural check.

    ``failures`` holds human-readable witnesses; an empty tuple means the
    check passed.  Truthiness follows ``ok`` so reports compose naturally
    in conditions.
    """

    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @property
    def witness(self) -> str | None:
        return self.failures[0] if self.failures else None


@dataclass(frozen=True)
class MapReport(Report):
    """Validation outcome for a graded linear map.

    Surjectivity is reported alongside validity because downstream
    image/preimage laws assume it without it being part of map validity.
    """

    _: KW_ONLY
    surjective: bool
