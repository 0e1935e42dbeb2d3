"""Test oracles that read the byte payload arrays directly.

Liquid's held is bookkeeping over the node contents in frags; these
oracles check it against the payloads themselves: a held fragment equals
its codeword row, an unheld one is zero, and an object decodes, from a copy
of what its nodes hold, to its source.  For advanced
liquid, owned_bits counts what the owner array gives each node.
"""

import numpy as np

from liquidsim import erasure
from liquidsim.errors import InvariantViolation


def check_liquid_payloads(layout) -> None:
    """held => frags == code, and not held => the row is zero."""
    off = (layout.frags != layout.code * layout.held[:, :, None]).any(axis=2)
    if off.any():
        obj, e = np.argwhere(off)[0]
        raise InvariantViolation(f"object {obj} EFI {e} out of sync with held")


def decodes(layout, objects) -> None:
    """Every one of objects decodes from the k lowest EFIs its nodes hold
    to the source rows of its codeword."""
    for obj in objects:
        frags = layout.frags[obj].copy()
        erasure.decode_in_place(frags, np.flatnonzero(layout.held[obj]),
                                layout.codec)
        if not np.array_equal(frags[:layout.k], layout.code[obj, :layout.k]):
            raise InvariantViolation(f"object {obj} decodes to wrong bytes")


def owned_bits(layout):
    """(N,) bits each node holds by an advanced byte layout's owner array."""
    owner = layout.owner
    return np.bincount(owner[owner >= 0], minlength=layout.N) * layout.flen
