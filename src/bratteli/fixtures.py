"""Built-in example diagrams, emitted as canonical file content.

Names are part of the CLI contract:

  ex43        all-ones triangular family (sizes 1, 1, 2, 4, 8, ...)
  ex44        exactly synthesized diagram for the halving weight sequence
  ex57A-left  two-presentation diagram, CAR-quotient ordering
  ex57A-right the same diagram reordered into block form
  ex57B       identity-over-(0...0 2) chain with a non-compact ideal

Every fixture is produced by a deterministic construction and canonical
JSON emission, so its text is byte-stable.  The one change so far: ex44's
bytes changed when synthesis moved to the minimal scale; it realizes the
same targets and zeta points with smaller multiplicities and sizes.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import BratteliPrefix, MultiplicityMatrix, TriangularSpec
from .errors import BratteliError
from .formats import Diagram, emit_diagram
from .synthesis import StationarySpec, TailRule, synthesize

_TRIANGULAR_DEPTH = 16
_GENERAL_DEPTH = 13  # matrices; levels = depth + 1


def _all_ones() -> TriangularSpec:
    return TriangularSpec(1, [(1,) * (n + 1) for n in range(_TRIANGULAR_DEPTH)])


def _halving_synthesized() -> TriangularSpec:
    targets = StationarySpec(tail=TailRule.geometric(Fraction(1, 2))).targets()
    spec, _ = synthesize(targets, 12, k0=1, exact=True)
    return spec


def _chain(step_rows) -> BratteliPrefix:
    """Unital prefix from level (1) whose matrix at width w is step_rows(w)."""
    levels = [(1,)]
    matrices = []
    for width in range(1, _GENERAL_DEPTH + 1):
        matrix = MultiplicityMatrix(step_rows(width))
        matrices.append(matrix)
        levels.append(matrix.apply(levels[-1]))
    return BratteliPrefix(levels, matrices, unital=True)


def _unit_rows(width: int, count: int) -> list[list[int]]:
    return [[1 if b == j else 0 for b in range(width)] for j in range(count)]


def _car_quotient_left() -> BratteliPrefix:
    return _chain(
        lambda w: [[2] + [0] * (w - 1)] + _unit_rows(w, w)[1:] + [[1] * w]
    )


def _car_quotient_right() -> BratteliPrefix:
    return _chain(lambda w: _unit_rows(w, w - 1) + [[1] * w, [0] * (w - 1) + [2]])


def _doubling_tail_chain() -> BratteliPrefix:
    return _chain(lambda w: _unit_rows(w, w) + [[0] * (w - 1) + [2]])


_BUILDERS = {
    "ex43": _all_ones,
    "ex44": _halving_synthesized,
    "ex57A-left": _car_quotient_left,
    "ex57A-right": _car_quotient_right,
    "ex57B": _doubling_tail_chain,
}

FIXTURE_NAMES = tuple(sorted(_BUILDERS))


def fixture_diagram(name: str) -> Diagram:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise BratteliError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return builder()


def fixtures(name: str) -> str:
    """Canonical file content for the named fixture."""
    return emit_diagram(fixture_diagram(name))
