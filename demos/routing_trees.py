# Where do partial updates flow inside one plane? The ring picks a sink and
# every other satellite forwards toward it along the shorter arc.

from orbitfl import build_routing_tree, distribution_targets

ring = [1, 2, 3, 4, 5, 6, 7, 8]

for sink in (1, 4, 8):
    tree = build_routing_tree(ring, sink)
    print(f"sink {sink}: depth {tree.depth}")
    for node in ring:
        if node == sink:
            continue
        print(f"  {node} -> {tree.parent[node]}")

# model distribution goes the other way: the first satellite served floods
# both neighbors, each relay forwards away from the source
print("flood order from satellite 3:")
pending = [3]
seen = set()
while pending:
    node = pending.pop(0)
    if node in seen:
        print(f"  {node} hears a duplicate and drops it")
        continue
    seen.add(node)
    targets = distribution_targets(ring, node, source=3)
    if targets:
        print(f"  {node} sends to {targets}")
    pending += targets
