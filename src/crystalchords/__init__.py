"""Chord diagrams for oscillating tableaux, fans of Dyck paths and vacillating tableaux."""

__version__ = "0.1.0"

from .crystals import (
    FAMILIES,
    FAMILY_KIND,
    FAN,
    OSCILLATING,
    VACILLATING,
    TableauSeq,
    Word,
    enumerate_zero,
    is_highest,
    tableau,
    tableau_to_word,
    word_to_tableau,
)
from .growth import (
    InvalidOutput,
    blocksum,
    blowup,
    cell_backward,
    cell_forward,
    growth_inverse,
    growth_matrix,
)
from .promotion import chord_matrix, promote, rotate_matrix
from .sieving import csp_check, energy, f_poly, g_poly, h_poly, syt_h_poly
from .virtual import (
    NotInImage,
    iota_f_to_o,
    iota_inverse,
    iota_v_to_f,
    iota_v_to_o,
    psi_spin,
    psi_vec,
)
from .weights import dominant_representative, partition

__all__ = [
    "FAMILIES",
    "FAMILY_KIND",
    "FAN",
    "OSCILLATING",
    "VACILLATING",
    "InvalidOutput",
    "NotInImage",
    "TableauSeq",
    "Word",
    "blocksum",
    "blowup",
    "cell_backward",
    "cell_forward",
    "chord_matrix",
    "csp_check",
    "dominant_representative",
    "energy",
    "enumerate_zero",
    "f_poly",
    "g_poly",
    "growth_inverse",
    "growth_matrix",
    "h_poly",
    "iota_f_to_o",
    "iota_inverse",
    "iota_v_to_f",
    "iota_v_to_o",
    "is_highest",
    "partition",
    "promote",
    "psi_spin",
    "psi_vec",
    "rotate_matrix",
    "syt_h_poly",
    "tableau",
    "tableau_to_word",
    "word_to_tableau",
]
