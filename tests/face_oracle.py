"""Face tracing on trace states, kept as a test oracle for
``surfwalk.rotation_system.trace_faces``.

A trace state is 2*e + s: arc e together with the parity s of the twist
sum accumulated up to and including e.  The successor applies rho (s = 0)
or rho^-1 (s = 1), flips to the inverse arc and absorbs the new edge's
twist into the parity.  The chiral involution (reverse the walk on the
opposite sheet) is chi(e, s) = (e-bar, s + tau(e) + 1).  Orbits start at
their smallest state; the representative of a chiral pair is the orbit with
the lexicographically smaller arc sequence, and representatives are sorted
by it.  Orientability is a twist 2-colouring of the vertices found by a
depth-first search of its own.
"""


def orbits_of(succ: list[int]) -> tuple[list[list[int]], dict[int, int], dict[int, int]]:
    """Orbits of a permutation by smallest element, each starting there,
    with the orbit and position of every element."""
    orbits, orbit_of, position = [], {}, {}
    for start in range(len(succ)):
        if start in orbit_of:
            continue
        orbit, x = [], start
        while x not in orbit_of:
            orbit_of[x], position[x] = len(orbits), len(orbit)
            orbit.append(x)
            x = succ[x]
        orbits.append(orbit)
    return orbits, orbit_of, position


def successor_table(rs) -> list[int]:
    rot = rs.rot
    rot_inv = [0] * len(rot)
    for e, f in enumerate(rot):
        rot_inv[f] = e
    succ = [0] * (2 * len(rot))
    for e in range(len(rot)):
        for s in (0, 1):
            nxt = (rot[e] if s == 0 else rot_inv[e]) ^ 1
            succ[2 * e + s] = 2 * nxt + (s ^ rs.twist[nxt >> 1])
    return succ


def chi(rs, state: int) -> int:
    e, s = state >> 1, state & 1
    return 2 * (e ^ 1) + (s ^ rs.twist[e >> 1] ^ 1)


def orientable(rs) -> bool:
    """Whether some vertex colouring f has tau(uv) = f(u) + f(v) on every edge."""
    g = rs.graph
    colour = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if colour[root] >= 0:
            continue
        colour[root], stack = 0, [root]
        while stack:
            x = stack.pop()
            for e in g.incoming_arcs(x):
                y, want = g.origin[e], colour[x] ^ rs.twist[e >> 1]
                if colour[y] < 0:
                    colour[y] = want
                    stack.append(y)
                elif colour[y] != want:
                    return False
    return True


def trace(rs) -> dict:
    """Orbits on trace states with (base face, is_chiral_copy) per orbit,
    faces, self-intersections (in walk order), orientability and genus."""
    orbits, orbit_of, position = orbits_of(successor_table(rs))
    partner = [orbit_of[chi(rs, orbit[0])] for orbit in orbits]
    arcs = [tuple(s >> 1 for s in orbit) for orbit in orbits]
    reps = [i if arcs[i] <= arcs[j] else j for i, j in enumerate(partner) if i < j]
    reps.sort(key=lambda i: arcs[i])
    cover_base = [None] * len(orbits)
    for base, i in enumerate(reps):
        cover_base[i] = (base, False)
        cover_base[partner[i]] = (base, True)
    self_int = []
    for i in reps:
        r = len(orbits[i])
        hits = {}
        for p, s in enumerate(orbits[i]):
            e = s >> 1
            rev = 2 * (e ^ 1) + ((s & 1) ^ rs.twist[e >> 1])
            if orbit_of[rev] == i:
                d1 = (position[rev] - p) % r
                hits[e >> 1] = (min(d1, r - d1), max(d1, r - d1))
        self_int.append(hits)
    g = rs.graph
    euler = g.vertex_count - g.edge_count + len(reps)
    is_orientable = orientable(rs)
    return {
        "orbits": orbits,
        "cover_base": cover_base,
        "faces": [arcs[i] for i in reps],
        "self_intersections": self_int,
        "orientable": is_orientable,
        "genus": (2 - euler) // 2 if is_orientable else 2 - euler,
    }
