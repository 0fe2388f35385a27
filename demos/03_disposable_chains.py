"""Plant disposable-address chains in a synthetic ledger and recover them.

A disposable address receives once and spends once.  Users chaining such
addresses leave a trail of one-input/two-output transactions; following
the disposable output of each link reconstructs the chain in execution
order.
"""

import numpy as np

from chainpetri import (
    GeneratorConfig,
    build_chains,
    chain_report,
    disposable_addresses,
    disposable_transactions,
    generate_synthetic,
    ingest,
)

config = GeneratorConfig(
    chain_lengths=[8, 3, 5, 1],   # four chains, including a length-1 stub
    entity_sizes=[3, 4],          # unrelated co-spending clusters
    fillers=40,                   # background traffic
    addresses_per_filler=2,
    block_size=25,
)
blocks, truth = generate_synthetic(config, seed=42)
print(f"generated {sum(len(b.tx_ids) for b in blocks)} transactions "
      f"in {len(blocks)} blocks")

net, report = ingest(blocks, mode="strict")
print(f"strict ingest accepted everything: {report.rejects} rejects")
print()

disposable = disposable_addresses(net)
sets = disposable_transactions(net, disposable)
print(f"{np.count_nonzero(disposable)} disposable addresses, "
      f"{np.count_nonzero(sets.transactions_d)} chain-shaped transactions, "
      f"{np.count_nonzero(sets.starts_d)} chain starts")

chains = build_chains(net, sets)
print(f"recovered {len(chains)} chains, lengths "
      f"{[len(c.links) for c in chains]} (planted {sorted((len(c) for c in truth.planted_chains), reverse=True)})")
print()

for row in chain_report(net, chains):
    print(f"length {row['length']}: {' -> '.join(row['transactions'])}")
    print(f"  hops: {' -> '.join(row['addresses'])}")

recovered = {tuple(net.tx_id_of(t) for t in c.links) for c in chains}
assert recovered == {tuple(c) for c in truth.planted_chains}
print()
print("recovered chains equal the planted ground truth exactly")
