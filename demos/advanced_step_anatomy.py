"""Dissect one repair step of the grouped (advanced) repairer.

A step rebuilds the failed node in three sub-algorithms: generate the
node's own helper staircase, move every group's donated front helper onto
the target, then refresh each group's staircase for the rotated labels.
The op counts below are exact identities of the layout, and the label
rotation at the end is pure bookkeeping on layout.labels, so no surviving
fragment is rewritten when the roles shift.
"""

from liquidsim import advanced_fail_node, advanced_repair_step
from liquidsim import advanced_store

N = 10
r = 2                       # helpers donated per group
clen = 2300                 # divisor r*N + r(r+1)/2 = 23 divides this

state, layout = advanced_store(N, clen, r, backend="symbolic")
flen = clen // (r * N + r * (r + 1) // 2)
print(f"N={N} r={r} flen={flen} bits")
print(f"primary labels before: {layout.labels[:N].tolist()}")
print(f"helper labels before:  {layout.labels[N:].tolist()}")
print()

state.begin_phase("repair")
advanced_fail_node(state, layout, 1.0, 4)
rec = advanced_repair_step(state, layout, 4, t0=1.0, t1=2.0)

gen = rec.counts["generate"][0]
print(f"generate: {gen.fragmentReads} fragment reads, {gen.fragmentWrites} writes "
      f"(expected {(N - 1) * r} and {r * (r + 1) // 2})")
assert (gen.fragmentReads, gen.fragmentWrites) == ((N - 1) * r, r * (r + 1) // 2)

moves = rec.counts["move"]
updates = rec.counts["update"]
print(f"move:     {len(moves)} groups x {moves[0]} each")
print(f"update:   {len(updates)} groups x {updates[0]} each")
assert all(m == (r, r) for m in moves)
assert all(u == (N - 1, r) for u in updates)

readFrags = (N - 1) * r + N * r + N * (N - 1)
writeFrags = r * (r + 1) // 2 + 2 * N * r
print(f"step totals: {rec.bitsRead} bits read, {rec.bitsWritten} written")
assert rec.bitsRead == readFrags * flen
assert rec.bitsWritten == writeFrags * flen
print()

# after the commit every group's front helper label has become node 4's
# primary label and the old primary label joined the back of the queue
print(f"primary labels after:  {layout.labels[:N].tolist()}")
print(f"helper labels after:   {layout.labels[N:].tolist()}")
print()

# At this N the grouped repairer reads MORE than plain liquid repair: the
# per-group staircase refresh costs N*(N-1) reads and dwarfs everything.
# The trade pays off once N >> r.  Same arithmetic at deployment scale:
for bigN, bigR in [(10, 2), (100, 20), (1000, 222)]:
    frags = (bigN - 1) * bigR + bigN * bigR + bigN * (bigN - 1)
    divisor = bigR * bigN + bigR * (bigR + 1) // 2
    beta = (bigR + 3) / (2 * bigN + bigR + 1)
    liquidRatio = (1 - beta) / beta
    print(f"N={bigN:<5} r={bigR:<4} reads/clen: grouped {frags / divisor:.2f}"
          f"  plain liquid {liquidRatio:.2f}  (beta={beta:.4f})")
