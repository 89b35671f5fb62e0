"""Frozen worked examples used as golden regression data.

Two fully worked examples anchor the implementation: an 8-step 3-fan with its
full promotion orbit, chord matrix and growth-diagram corner labels, and a
9-step rank-3 vacillating tableau with its oscillating embedding, chord
matrix and growth-diagram corner labels.  The ``golden_checks`` runner
recomputes each item and reports mismatches.
"""

from __future__ import annotations

from .crystals import FAN, VACILLATING, TableauSeq, tableau
from .growth import growth_corners, growth_matrix
from .promotion import chord_matrix, promote
from .virtual import iota_v_to_o
from .weights import partition


def _steps(compact: str) -> tuple:
    return tuple(partition(tuple(int(c) for c in tok)) for tok in compact.split(","))


FAN8 = tableau(FAN, 3, _steps("000,111,222,311,422,331,222,111,000"))

FAN8_ORBIT = tuple(
    _steps(row)
    for row in [
        "000,111,222,311,422,331,222,111,000",
        "000,111,200,311,220,111,000,111,000",
        "000,111,222,311,220,111,222,111,000",
        "000,111,200,111,200,311,200,111,000",
        "000,111,220,311,422,311,222,111,000",
        "000,111,220,331,220,311,200,111,000",
        "000,111,222,111,220,111,220,111,000",
        "000,111,000,111,200,311,220,111,000",
        "000,111,222,311,422,331,222,111,000",
    ]
)

FAN8_MATRIX = (
    (0, 0, 0, 0, 0, 0, 0, 3),
    (0, 0, 2, 0, 0, 0, 1, 0),
    (0, 2, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 2, 0, 1, 0),
    (0, 0, 0, 2, 0, 1, 0, 0),
    (0, 0, 1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1, 0, 0),
    (3, 0, 0, 0, 0, 0, 0, 0),
)

# promotion-matrix corner labels: row k holds mu^{k,0..n} for k = 0..n
FAN8_PROMOTION_CORNERS = tuple(
    _steps(row)
    for row in [
        "000,111,222,311,422,331,222,111,000",
        "111,000,111,200,311,220,111,000,111",
        "222,111,000,111,222,311,220,111,222",
        "311,200,111,000,111,200,111,200,311",
        "422,311,222,111,000,111,220,311,422",
        "331,220,311,200,111,000,111,220,331",
        "222,111,220,111,220,111,000,111,222",
        "111,000,111,200,311,220,111,000,111",
        "000,111,222,311,422,331,222,111,000",
    ]
)

# growth-diagram corners by anti-diagonals: entry [k][l] labels alpha[n-k+l][l]
FAN8_GROWTH_CORNERS = tuple(
    _steps(row)
    for row in [
        "000",
        "000,000",
        "000,111,000",
        "000,111,111,000",
        "000,111,211,111,000",
        "000,111,211,211,111,000",
        "000,111,211,311,221,111,000",
        "000,111,211,311,321,221,111,000",
        "000,111,222,311,422,331,222,111,000",
    ]
)

FAN4 = tableau(FAN, 3, _steps("000,111,220,111,000"))
FAN4_PROMOTED = _steps("000,111,200,111,000")

VAC9 = tableau(VACILLATING, 3, _steps("000,100,200,210,211,111,111,110,100,000"))

VAC9_OSC_IMAGE = _steps(
    "000,100,200,300,400,410,420,421,422,322,222,221,222,221,220,210,200,100,000"
)

VAC9_PROMOTED = _steps("000,100,110,111,110,111,111,110,100,000")

VAC9_MATRIX = (
    (0, 0, 0, 0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 2, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 1),
    (0, 2, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 1),
    (1, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 0, 0, 0),
)

VAC9_GROWTH_CORNERS = tuple(
    _steps(row)
    for row in [
        "000",
        "000,000",
        "000,000,000",
        "000,000,000,000",
        "000,100,000,000,000",
        "000,200,100,100,100,000",
        "000,200,200,210,210,100,000",
        "000,200,400,220,221,210,200,000",
        "000,200,400,420,222,221,220,200,000",
        "000,200,400,420,422,222,222,220,200,000",
    ]
)

G22 = (1, 0, 1, 0, 1)  # q^4 + q^2 + 1
G32 = (1, 0, 1, 1, 2, 1, 2, 1, 2, 1, 1, 0, 1)
F42_FAN = (0, 0, 0, 0, 1, 0, 1, 0, 1)  # q^8 + q^6 + q^4
F62_FAN = (0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 2, 1, 3, 1, 2, 1, 1)
F72_VAC = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 1, 2, 2, 2, 1, 1, 1, 1)
H72 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 2, 2, 1, 1)


def _corner_rows_match(t: TableauSeq, expected: tuple) -> bool:
    rows = growth_corners(t)
    n = len(t)
    for k, row in enumerate(expected):
        for l, label in enumerate(row):
            if rows[n - k + l][l] != label:
                return False
    return True


def golden_checks() -> list[tuple[str, bool]]:
    """(name, passed) pairs for every frozen example."""
    from .sieving import f_poly, g_poly, h_poly, syt_h_poly

    checks: list[tuple[str, bool]] = []

    orbit = []
    cur = FAN8
    for _ in range(len(FAN8_ORBIT)):
        orbit.append(cur.steps)
        cur = promote(cur)
    checks.append(("fan8-orbit", tuple(orbit) == FAN8_ORBIT))
    checks.append(("fan8-chords", chord_matrix("M_F", FAN8) == FAN8_MATRIX))
    # mu^{i,j} is the (j-i)-th entry of pr^i(T), indices mod n
    checks.append(
        (
            "fan8-promotion-corners",
            all(
                orbit[i % 8][(j - i) % 8] == FAN8_PROMOTION_CORNERS[i][j]
                for i in range(9)
                for j in range(9)
            ),
        )
    )
    checks.append(("fan8-growth", growth_matrix(FAN, FAN8) == FAN8_MATRIX))
    checks.append(
        ("fan8-growth-corners", _corner_rows_match(FAN8, FAN8_GROWTH_CORNERS))
    )
    checks.append(("fan4-promotion", promote(FAN4).steps == FAN4_PROMOTED))

    checks.append(("vac9-osc-image", iota_v_to_o(VAC9).steps == VAC9_OSC_IMAGE))
    checks.append(("vac9-chords", chord_matrix("M_VO", VAC9) == VAC9_MATRIX))
    checks.append(("vac9-chords-fan-route", chord_matrix("M_VF", VAC9) == VAC9_MATRIX))
    checks.append(("vac9-promotion", promote(VAC9).steps == VAC9_PROMOTED))
    checks.append(("vac9-growth", growth_matrix(VACILLATING, VAC9) == VAC9_MATRIX))
    checks.append(
        ("vac9-growth-corners", _corner_rows_match(VAC9, VAC9_GROWTH_CORNERS))
    )

    checks.append(("poly-g22", g_poly(2, 2) == G22))
    checks.append(("poly-g32", g_poly(3, 2) == G32))
    checks.append(("poly-f42", f_poly(FAN, 2, 4) == F42_FAN))
    checks.append(("poly-f62", f_poly(FAN, 2, 6) == F62_FAN))
    checks.append(("poly-f72", f_poly(VACILLATING, 2, 7) == F72_VAC))
    checks.append(("poly-h72", h_poly(7, 2) == H72))
    checks.append(("poly-h72-syt", syt_h_poly(7, 2) == H72))
    return checks
