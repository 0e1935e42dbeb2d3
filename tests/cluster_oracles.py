"""Test oracles that read the byte payload arrays directly.

Liquid's held is bookkeeping over the node contents in frags; these
oracles check it against the payloads themselves: a held fragment equals
its codeword row, an unheld one is zero, and an object decodes, from a copy
of what its nodes hold, to its source.  For advanced
liquid, owned_bits counts what the owner array gives each node, and
one_subop commits a single sub-operation as a chain would.
"""

import numpy as np

from liquidsim import advanced_liquid as adv
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


def one_subop(state, layout, kind, group, target, t) -> int:
    """Commit one sub-operation of a step on target, "generate", "move" or
    "update" of the group, on a window of its own, as _StepChain.commit
    does: sources are the window's pick, skipping target; a move hands the
    group's front helpers to target.  Meters at t and returns the bits
    read."""
    win, one = adv._Window(layout), range(group, group + 1)
    item = np.zeros(1, np.int64)        # its index in the window
    if kind == "move":
        win.move(one, target, item)
    else:
        srcs = win.pick(group, target, layout.k)[0]
        if kind == "generate":
            win.generate(group, srcs, 0)
        else:
            win.update(one, srcs, item)
    return win.meter(state, t, t)
