"""Test oracles that read the cluster's node stores directly.

The simulator keeps no fragment directory: liquid places EFI e of every
object at node e, and both repairers track placement in arrays.  These
oracles rebuild the directory from what the nodes actually hold, so tests
can check the repairers' bookkeeping against ground truth.
"""

import numpy as np

from liquidsim import erasure
from liquidsim.errors import ConfigError, InvariantViolation


def holders(state) -> dict:
    """objectId -> {efi: set of node ids holding it}."""
    out: dict = {}
    for node in state.nodes:
        for obj, efi in node.fragments:
            out.setdefault(obj, {}).setdefault(efi, set()).add(node.nodeId)
    return out


def recoverable(state, k: int, objects, codec=None, retained=None) -> bool:
    """Every one of objects has >= k distinct EFIs stored somewhere.

    With a byte codec and retained source data, additionally decode each
    retained object from its k lowest stored EFIs and bit-compare.
    """
    directory = holders(state)
    if any(len(directory.get(obj, ())) < k for obj in objects):
        return False
    if codec is not None and codec.backend == "byte":
        if retained is None:
            raise ConfigError("byte census needs retained source data")
        for obj, source in retained.items():
            have = directory[obj]
            frags = {e: state.nodes[min(have[e])].fragments[(obj, e)]
                     for e in sorted(have)[:k]}
            if erasure.decode(frags, codec) != source:
                raise InvariantViolation(f"object {obj} decodes to wrong bytes")
    return True


def check_layout_sync(state, layout) -> None:
    """A byte liquid layout's held array matches the directory rebuilt from
    the node stores, EFI e at node e."""
    rebuilt = np.zeros_like(layout.held)
    for obj, efis in holders(state).items():
        for e, nodes in efis.items():
            if nodes != {e}:
                raise InvariantViolation(
                    f"object {obj} EFI {e} stored off its home node")
            rebuilt[obj, e] = True
    if not np.array_equal(rebuilt, layout.held):
        raise InvariantViolation("held array out of sync with node stores")
