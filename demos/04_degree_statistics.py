"""Degree distributions, CCDFs, top-k activity, and repeated transactions.

On a larger synthetic ledger, per-address connection counts are heavily
skewed; the complementary cumulative distribution P(L > x) makes that
visible, and identical incidence columns expose repeated transfers.
"""

import io

import numpy as np

from chainpetri import (
    GeneratorConfig,
    accumulate_only,
    build_entity_net,
    ccdf,
    ccdf_to_csv,
    compute_entities,
    degree_multiset,
    generate_synthetic,
    ingest,
    repeated_groups,
    summary,
    top_k_active,
)

config = GeneratorConfig(
    entity_sizes=[2, 3, 3, 5, 8],
    chain_lengths=[4, 6, 2],
    repeat_group_sizes=[2, 3, 5],
    fillers=3000,
    addresses_per_filler=2,
    block_size=500,
)
blocks, truth = generate_synthetic(config, seed=99)
net, _ = ingest(blocks)

report = summary(net)
print(f"{report.places} addresses, {report.transitions} transactions, "
      f"{report.pre_arcs} pre-arcs, {report.post_arcs} post-arcs")
print(f"{report.accumulate_only} addresses only ever accumulate, "
      f"{report.disposable} are disposable")
print()

print("most active addresses (spend count, receive count):")
for place, pre_nnz, post_nnz in top_k_active(net, 5):
    print(f"  {net.address_of(place)}: {pre_nnz} / {post_nnz}")
print()

series = ccdf(degree_multiset(net, "post"))
print("receive-side CCDF (first and last points):")
for x, p in series.points[:3]:
    print(f"  P(L > {x}) = {p:.4f}")
print("  ...")
x, p = series.points[-1]
print(f"  P(L > {x}) = {p:.4f}")

buffer = io.StringIO()
ccdf_to_csv(series, buffer)
print(f"CSV export is {len(buffer.getvalue().splitlines())} lines "
      "(header plus one point per row)")
print()

repeats = repeated_groups(net)
print(f"repeated transactions: {repeats.group_count} groups, "
      f"{repeats.repetition_count} repetitions "
      f"({100 * repeats.fraction:.1f}% of all transactions)")

entity_net = build_entity_net(net, compute_entities(net)).net
entity_repeats = repeated_groups(entity_net)
print(f"at the entity level: {entity_repeats.repetition_count} repetitions "
      f"({100 * entity_repeats.fraction:.1f}%)")
print()

deposits = set(net.addresses_of(np.flatnonzero(accumulate_only(net)).tolist()))
assert deposits == truth.deposit_addresses
print("accumulate-only addresses equal the generator's deposit ground truth")
