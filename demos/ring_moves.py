"""Walk through the move classes on a ring of length 4.

Prints every state, its transitions, and the bookkeeping deltas so you
can see the balance delta_peak + delta_diamond + delta_tiles = 1 hold
move by move.  Everything is read off the ring's transition table: the
counters name the move class, and the stored tiles of the two profiles
give delta_tiles.
"""

from raisepeel.profiles import tile_count, transition_table

table = transition_table(4)
print(f"{len(table.states)} states on the length-4 ring\n")

for k, h in enumerate(table.states):
    tag = "  <- can trigger a wrapping avalanche" if table.omega[k] else ""
    print(f"state {h}{tag}")
    for site, j in enumerate(table.target[k]):
        target = table.states[j]
        d_peak, d_diamond, d_global = (int(table.d_peak[k, site]), int(table.d_diamond[k, site]),
                                       int(table.d_global[k, site]))
        d_tiles = tile_count(target) - tile_count(h)
        move = ("reflection" if d_peak else "global_avalanche" if d_global
                else "adsorption" if d_diamond == 0 else "local_avalanche")
        print(f"  site {site}: {move:16s} -> {target}"
              f"   dPeak={d_peak} dDiamond={d_diamond}"
              f" dGlobal={d_global} dTiles={d_tiles:+d}"
              f"   (sum {d_peak + d_diamond + d_tiles})")
    print()
