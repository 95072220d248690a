"""Seeded inputs for the three benchmark workloads.

Every workload draws from a fixed pool of items. Item i of a pool is
generated from its own seed string, so the pool never changes unless this
file does; `golden/<workload>.json` holds, per item, the digest of its
inputs, its outputs at the recording commit and what they cost there. The
run seed picks a stratified sample from the pool. Within each group of
items, the classes "slow" (missed the run's operation deadline when
recorded), "exhausted" (a frame search ran out of budget) and "answered"
get slots in proportion to their size; within a class, bins of equal
recorded cost get one pick each (see _binned). Every seed therefore meets
the same mix of cheap and expensive inputs, which keeps the spread between
runs small while the inputs themselves change with the seed.

Nothing here imports the package: items are plain curve documents, slopes
and argument lists, so the program sees only its inputs.
"""

import hashlib
import json
import random
from fractions import Fraction

COEFFS = (-3, -2, -1, 1, 2, 3)
# Frames a verdict may search. search_exhaust uses a smaller budget so that
# a run holds some twenty exhausted searches and its tail percentile falls
# among them rather than at their edge.
SEARCH_BUDGET = {"chamber_sweep": 8, "search_exhaust": 4}

# Per-operation deadline in seconds. The verdict workloads never come near
# theirs at the recording commit (the slowest verdict that met it took under
# 3 s). On local_analysis no report takes between 0.9 s and 2.5 s there;
# the deadline sits between the two, away from both, and what runs past it
# is the squarefree blow-up on large curves, which counts as failed.
DEADLINE_S = {"chamber_sweep": 10.0, "search_exhaust": 10.0, "local_analysis": 1.5}

# Seconds one timed pass over a sample (every call paired with the
# reference copy) takes at the recording commit on a 2-vCPU x86-64 VM with
# Python 3.11; a run is round(seconds / PASS_S) passes.
PASS_S = {"chamber_sweep": 10.0, "search_exhaust": 16.0, "local_analysis": 15.0}

WITNESS_KINDS = (
    "p2-s",
    "p2-cuspidal-x0",
    "p2-hyperflex",
    "p2-flex",
    "p2-nonflex",
    "quadric-s",
    "quadric-x0",
    "quadric-ruling-tangent",
)
PLANE_DEGREES = {"chamber_sweep": (3, 4, 5), "search_exhaust": (3, 4, 5), "local_analysis": (4, 5, 6)}
QUADRIC_DEGREES = {"chamber_sweep": (3, 4), "search_exhaust": (3, 4), "local_analysis": (3, 4, 5)}


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc):
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


# -- curves -----------------------------------------------------------------


def _exponents(surface, d):
    if surface == "p2":
        return [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
    return [(i, d - i, j, d - j) for i in range(d + 1) for j in range(d + 1)]


def random_curve(rng, surface, d):
    """A sparse curve through the coordinate point (0:0:1), resp.
    ((0:1), (0:1)), with small integer coefficients. Half of them carry a
    tangent monomial, so they are smooth at the marked point."""
    if surface == "p2":
        base, point = (0, 0, d), ["0", "0", "1"]
        tangents = [(1, 0, d - 1), (0, 1, d - 1)]
    else:
        base, point = (0, d, 0, d), ["0", "1", "0", "1"]
        tangents = [(1, d - 1, 0, d), (0, d, 1, d - 1)]
    exps = [e for e in _exponents(surface, d) if e != base]
    support = rng.sample(exps, rng.randint(3, 8))
    terms = {e: rng.choice(COEFFS) for e in support}
    if rng.random() < 0.5:
        terms[rng.choice(tangents)] = rng.choice((1, 2, 3))
    return {
        "surface": surface,
        "degree": d,
        "point": point,
        "terms": [{"exp": list(e), "coeff": str(c)} for e, c in sorted(terms.items())],
    }


def wall_and_edge(surface, d):
    """The analyzed slope range, from the class ratios of the paper."""
    if surface == "p2":
        return Fraction(d) - Fraction(9, 4), Fraction(d - 2)
    return Fraction(d) - Fraction(4, 3), Fraction(d - 1)


# -- pools --------------------------------------------------------------------
#
# An item is {"key", "group", "ops"}; an op is {"key", "kind", ...inputs}.
# kind "verdict" is stability_verdict(curve, t, budget, seed); kind "cli"
# is wallcross.cli.main(argv) with `stdin` as standard input.


def _verdict_op(key, curve, t, seed, budget):
    return {"key": key, "kind": "verdict", "curve": curve, "t": str(t),
            "budget": budget, "seed": seed}


def _cli_op(key, argv, stdin=None):
    return {"key": key, "kind": "cli", "argv": argv, "stdin": stdin}


def _chamber_item(i):
    rng = random.Random(f"chamber_sweep:{i}")
    surface = "p2" if i % 2 == 0 else "quadric"
    d = rng.choice(PLANE_DEGREES["chamber_sweep"] if surface == "p2"
                   else QUADRIC_DEGREES["chamber_sweep"])
    curve = random_curve(rng, surface, d)
    wall, edge = wall_and_edge(surface, d)
    inner = [wall + (edge - wall) * Fraction(k, 8) for k in sorted(rng.sample(range(1, 8), 3))]
    seed = rng.randrange(1000)
    key = f"c{i:03d}"
    slopes = [("wall", wall)] + [(f"t{j}", t) for j, t in enumerate(inner)] + [("edge", edge)]
    ops = [_verdict_op(f"{key}/{name}", curve, t, seed, SEARCH_BUDGET["chamber_sweep"])
           for name, t in slopes]
    return {"key": key, "group": surface, "ops": ops}


def _search_item(i):
    rng = random.Random(f"search_exhaust:{i}")
    surface = "p2" if i % 2 == 0 else "quadric"
    side = "below" if (i // 2) % 2 == 0 else "above"
    d = rng.choice(PLANE_DEGREES["search_exhaust"] if surface == "p2"
                   else QUADRIC_DEGREES["search_exhaust"])
    curve = random_curve(rng, surface, d)
    wall, edge = wall_and_edge(surface, d)
    if side == "below":
        t = wall * Fraction(rng.randint(1, 7), 8)
    else:
        t = edge + Fraction(rng.randint(1, 8), 4)
    key = f"s{i:03d}"
    return {"key": key, "group": side,
            "ops": [_verdict_op(key, curve, t, rng.randrange(1000), SEARCH_BUDGET["search_exhaust"])]}


def _local_random_item(i):
    rng = random.Random(f"local_analysis:{i}")
    surface = "p2" if i % 2 == 0 else "quadric"
    d = rng.choice(PLANE_DEGREES["local_analysis"] if surface == "p2"
                   else QUADRIC_DEGREES["local_analysis"])
    key = f"r{i:03d}"
    return {"key": key, "group": "random",
            "ops": [_cli_op(key, ["inflect", "--curve", "-"], canonical(random_curve(rng, surface, d)))]}


def _local_fixed_items(witness_docs):
    """Witness reports, claim replays and slope tables. witness_docs maps
    "kind/degree" to the document recorded from the package's witnesses."""
    items = []
    for kind in WITNESS_KINDS:
        degrees = PLANE_DEGREES["local_analysis"] if kind.startswith("p2") else QUADRIC_DEGREES["local_analysis"]
        for d in degrees:
            key = f"w/{kind}/{d}"
            items.append({"key": key, "group": f"witness:{kind}",
                          "ops": [_cli_op(key, ["inflect", "--curve", "-"], witness_docs[f"{kind}/{d}"])]})
    for d in (3, 4, 5, 6):
        key = f"verify/{d}"
        items.append({"key": key, "group": "verify",
                      "ops": [_cli_op(key, ["verify", "--all", "--degree", str(d)])]})
        for command in ("walls", "chamber"):
            for surface in ("p2", "quadric"):
                key = f"{command}/{surface}/{d}"
                items.append({"key": key, "group": f"{command}:{surface}",
                              "ops": [_cli_op(key, [command, "--surface", surface, "--degree", str(d)])]})
    return items


POOL_SIZE = {"chamber_sweep": 64, "search_exhaust": 64, "local_analysis": 128}

# Items drawn per group for one run's sample.
SAMPLE = {
    "chamber_sweep": {"p2": 4, "quadric": 4},
    "search_exhaust": {"below": 24, "above": 24},
    "local_analysis": dict(
        {f"witness:{k}": 1 for k in WITNESS_KINDS},
        verify=2, **{"walls:p2": 1, "walls:quadric": 1, "chamber:p2": 1, "chamber:quadric": 1},
        random=32,
    ),
}


def pool(workload, witness_docs=None):
    """Every item of a workload's pool, in pool order."""
    n = POOL_SIZE[workload]
    if workload == "chamber_sweep":
        return [_chamber_item(i) for i in range(n)]
    if workload == "search_exhaust":
        return [_search_item(i) for i in range(n)]
    return [_local_random_item(i) for i in range(n)] + _local_fixed_items(witness_docs)


# -- sampling ---------------------------------------------------------------


def _item_cost(item, golden):
    return sum(golden[op["key"]]["cost_s"] for op in item["ops"])


def _item_class(item, golden, deadline):
    """"slow" if an operation missed the run deadline when recorded,
    "exhausted" if a frame search ran out of budget, else "answered"."""
    entries = [golden[op["key"]] for op in item["ops"]]
    if any(e["cost_s"] >= deadline for e in entries):
        return "slow"
    if any('"status":"Unknown"' in e.get("output", "") for e in entries):
        return "exhausted"
    return "answered"


def _allocate(sizes, count):
    """Split count over cells in proportion to their sizes, by largest
    remainder; ties go to the earlier cell."""
    total = sum(sizes.values())
    shares = {c: count * n / total for c, n in sizes.items()}
    alloc = {c: int(s) for c, s in shares.items()}
    for c in sorted(shares, key=lambda c: alloc[c] - shares[c])[:count - sum(alloc.values())]:
        alloc[c] += 1
    return alloc


def _binned(items, count, rng, golden):
    """count items whose recorded costs add up to about the cell's cost
    profile: an item costing at least half of an equal share of what is
    left is always taken, and the rest are split into bins of equal total
    cost with one pick per bin. Cheap items then share a bin and expensive
    ones sit in every sample, so neither the cost of a pass nor its slowest
    operations depend much on the seed."""
    cost = {it["key"]: _item_cost(it, golden) for it in items}
    items = sorted(items, key=lambda it: (cost[it["key"]], it["key"]))
    picks = []
    while count and 2 * cost[items[-1]["key"]] * count >= sum(cost[it["key"]] for it in items):
        picks.append(items.pop())
        count -= 1
    if count == 0:
        return picks
    width = sum(cost[it["key"]] for it in items) / count
    bins = [[] for _ in range(count)]
    done = 0.0
    for it in items:
        # Every remaining item costs less than a bin, so no bin stays empty.
        bins[min(int((done + cost[it["key"]] / 2) / width), count - 1)].append(it)
        done += cost[it["key"]]
    return picks + [members[rng.randrange(len(members))] for members in bins]


def sample(workload, seed, items, golden):
    """The run's items in pass order: a stratified draw (see the module
    docstring), shuffled so that no kind of input sits in one stretch of
    the pass."""
    rng = random.Random(f"{workload}/sample/{seed}")
    deadline = DEADLINE_S[workload]
    picks = []
    for group, count in sorted(SAMPLE[workload].items()):
        cells = {}
        for it in items:
            if it["group"] == group:
                cells.setdefault(_item_class(it, golden, deadline), []).append(it)
        alloc = _allocate({c: len(members) for c, members in sorted(cells.items())}, count)
        for c, members in sorted(cells.items()):
            if c == "slow":
                picks += rng.sample(members, alloc[c])
            else:
                picks += _binned(members, alloc[c], rng, golden)
    rng.shuffle(picks)
    return picks


def op_inputs(op):
    """The inputs of one operation, without its key."""
    return {k: v for k, v in op.items() if k != "key"}
