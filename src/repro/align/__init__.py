"""Alignment substrate: ungapped X-drop extension, banded gapped extension
(one anchor or a lockstep batch of them), full Smith–Waterman, and
Karlin–Altschul statistics."""

from repro.align.gapped import (
    GappedExtension,
    banded_extend,
    diagonal_identity,
)
from repro.align.result import Alignment, Anchor
from repro.align.smith_waterman import (
    LocalAlignmentResult,
    smith_waterman,
    smith_waterman_score,
)
from repro.align.stats import (
    KarlinAltschulParams,
    karlin_altschul,
    uniform_background,
)
from repro.align.ungapped import UngappedExtension, extend_ungapped

__all__ = [
    "GappedExtension",
    "banded_extend",
    "diagonal_identity",
    "Alignment",
    "Anchor",
    "LocalAlignmentResult",
    "smith_waterman",
    "smith_waterman_score",
    "KarlinAltschulParams",
    "karlin_altschul",
    "uniform_background",
    "UngappedExtension",
    "extend_ungapped",
]
