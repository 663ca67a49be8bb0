"""Given torsions in the block the chain scan reads, for tests that scan
chosen torsion rows rather than drawn ones."""
import numpy as np

from wormchain.chain import _Torsions
from wormchain.so3 import segment_plan


def whole_row_torsions(rows) -> _Torsions:
    """A :class:`_Torsions` block of every step that holds the given
    ``(C, N - 1)`` torsion ``rows`` and draws nothing."""
    paths, n_phis = rows.shape
    segments, span = segment_plan(paths, n_phis)
    padded = np.zeros((paths, segments * span))
    padded[:, :n_phis] = rows
    return _Torsions(rows.shape, padded.reshape(paths, segments, span), lambda block, j: None)
