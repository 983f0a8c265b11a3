"""Show that the in-orbit aggregation math equals a plain weighted average.

Eight workers train one gradient step each on private shards. Folding the
results pairwise along a chain (the way partials travel a ring) must land on
exactly the same numbers as averaging all eight in one go.
"""

import numpy as np

from orbitfl import (
    LearnerConfig,
    evaluate,
    global_aggregate,
    init_params,
    local_gd,
    partial_aggregate,
    partition_dataset,
    synthetic_pool,
)

# the pool is drawn straight into the shards of a seeded iid deal to 8 workers
shards = synthetic_pool(400, num_features=16, num_classes=4, seed=11,
                        shard=lambda labels: partition_dataset(labels, 8, "iid", 11, 4))
test = synthetic_pool(200, num_features=16, num_classes=4, seed=12, means_seed=11)

start = init_params(16, 4)
config = LearnerConfig(learning_rate=0.05, local_iterations=5)
trained = [local_gd(start, shard, config) for shard in shards]
counts = [shard.num_samples for shard in shards]

# chain fold: worker 7 sends its weighted model to 6, which folds and
# forwards, and so on down to worker 0
folded = partial_aggregate(trained[7], counts[7], [])
for k in range(6, -1, -1):
    folded = partial_aggregate(trained[k], counts[k], [folded])
chained = global_aggregate([folded], sum(counts))

flat = np.average(np.stack(trained), axis=0, weights=counts)
print("max |chained - flat| =", float(np.max(np.abs(chained - flat))))

acc0, loss0 = evaluate(start, test)
acc1, loss1 = evaluate(chained, test)
print(f"before: accuracy {acc0:.3f}  loss {loss0:.3f}")
print(f"after : accuracy {acc1:.3f}  loss {loss1:.3f}")
