"""Degree statistics, CCDFs, activity ranking, and repeated transactions.

Every operation here is a pure read over a sealed net and works on both
address-level and entity-level nets.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .chains import disposable_addresses
from .net import PlaceTransitionNet, _distinct, _label_groups, _offsets, _ranges, _split

SIDES = ("pre", "post", "both")


@dataclass
class DegreeMultiset:
    """Per-place connection counts on one side ('both' sums pre and post)."""

    side: str
    counts: np.ndarray


@dataclass
class CcdfSeries:
    """Points (x, P(L > x)) at x = 0 and every distinct observed value."""

    points: list[tuple[int, float]]


@dataclass
class RepeatGroups:
    """Transitions grouped by identical pre and post columns (values included)."""

    groups: list[list[int]]
    repetition_count: int
    fraction: float

    @property
    def group_count(self) -> int:
        return len(self.groups)


@dataclass
class SummaryReport:
    places: int
    transitions: int
    pre_arcs: int
    post_arcs: int
    accumulate_only: int
    disposable: int

    def as_dict(self) -> dict:
        return asdict(self)


def degree_multiset(net: PlaceTransitionNet, side: str) -> DegreeMultiset:
    """Number of connected transitions per place on `side`."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if side == "both":
        counts = net.pre.row_nnz_all().astype(np.int64) + net.post.row_nnz_all()
    else:
        counts = net.incidence(side).row_nnz_all().copy()
    return DegreeMultiset(side, counts)


def ccdf(degrees) -> CcdfSeries:
    """Complementary cumulative distribution P(L > x) of a degree multiset.

    Accepts a DegreeMultiset or any sequence of nonnegative integers.
    Emits a point at x = 0 and at every distinct observed value, so the
    series always starts at the fraction of nonzero values and ends at 0.
    """
    values = np.asarray(degrees.counts if isinstance(degrees, DegreeMultiset) else degrees)
    if values.size == 0:
        raise ValueError("ccdf of an empty multiset is undefined")
    if values.dtype.kind not in "iu" or values.min() < 0:
        raise ValueError("degree values must be nonnegative integers")
    ordered = np.sort(values.astype(np.int64, copy=False))
    xs = _distinct(ordered)
    if xs[0] != 0:
        xs = np.concatenate([[0], xs])
    n = values.size
    greater = n - np.searchsorted(ordered, xs, side="right")
    return CcdfSeries([(int(x), int(g) / n) for x, g in zip(xs, greater)])


def ccdf_to_csv(series: CcdfSeries, destination):
    """Write `x,ccdf` rows; probabilities carry 13 significant digits."""
    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "ccdf"])
        for x, p in series.points:
            writer.writerow([x, f"{p:.12e}"])

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write(fh)


def top_k_active(net: PlaceTransitionNet, k: int) -> list[tuple[int, int, int]]:
    """Places ranked by pre_nnz + post_nnz descending, ties by place id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pre = net.pre.row_nnz_all()
    post = net.post.row_nnz_all()
    total = pre.astype(np.int64) + post
    order = np.lexsort((np.arange(len(total)), -total))[:k]
    return [(int(p), int(pre[p]), int(post[p])) for p in order]


def accumulate_only(net: PlaceTransitionNet) -> np.ndarray:
    """Mask of the places that receive but never spend (empty pre, non-empty post row)."""
    return (net.pre.row_nnz_all() == 0) & (net.post.row_nnz_all() > 0)


# the odd multipliers of the hashes of `repeated_groups`; with `_MIX` patched to 0, a
# column hashes to its entry count, so all columns of one count collide
_MIX, _FOLD = np.int64(0x5851F42D4C957F2D), np.int64(0x2545F4914F6CDD1D)


def repeated_groups(net: PlaceTransitionNet) -> RepeatGroups:
    """Group transitions whose concatenated pre/post columns are identical.

    Column identity includes the stored values, so entity-level nets group
    only transitions that repeat with the same multiplicities.  Singleton
    groups are omitted; groups come in the order of their first member.
    Transitions that share a hash are compared entry by entry with the
    smallest of them; a hash with a mismatch is grouped shape by shape.
    """
    pre, post = net.pre.tocsc(), net.post.tocsc()
    pre_nnz, post_nnz = np.diff(pre.indptr), np.diff(post.indptr)
    keys = np.zeros(net.num_transitions, dtype=np.int64)
    for csc in (pre, post):
        # a column's hash: the wrapping sum over its entries of 1 plus a mix of the
        # word `row << 32 | value`, read off one cumulative sum in column order
        sums = np.zeros(len(csc.indices) + 1, dtype=np.int64)
        entries = sums[1:]
        entries[:] = csc.indices
        entries <<= 32
        entries += csc.data
        for multiplier in (_MIX, _FOLD):
            entries ^= entries >> 33
            entries *= multiplier
        entries ^= entries >> 33
        entries += 1
        keys = keys * _FOLD + np.diff(np.cumsum(sums, out=sums)[csc.indptr])
    # one sort of the hashes with each transition's id in their low bits puts each
    # run of one hash in id order, its smallest transition, its head, first
    bits = net.num_transitions.bit_length()
    keys = np.sort(keys >> bits << bits | np.arange(net.num_transitions))
    keys, cols = keys >> bits, keys & ((1 << bits) - 1)
    shared = np.zeros(len(keys), dtype=bool)
    np.equal(keys[1:], keys[:-1], out=shared[1:])
    shared[:-1] |= shared[1:]
    keys, cols = keys[shared], cols[shared]
    head = cols[np.searchsorted(keys, keys)]
    differ = (pre_nnz[cols] != pre_nnz[head]) | (post_nnz[cols] != post_nnz[head])
    for csc in (pre, post):
        lengths = np.where(differ, 0, np.diff(csc.indptr)[cols])
        at, head_at = _ranges(csc.indptr[cols], lengths), _ranges(csc.indptr[head], lengths)
        unequal = (csc.indices[at] != csc.indices[head_at]) | (csc.data[at] != csc.data[head_at])
        differ[np.repeat(np.arange(len(cols)), lengths)[unequal]] = True
    # each candidate's label is its run's head; a run with a mismatch is relabelled shape
    # by shape, as only transitions with the same entry counts can repeat
    first = head
    mixed = np.flatnonzero(np.isin(head, head[differ]))
    first[mixed] = cols[mixed]
    _, shape = np.unique(pre_nnz[cols[mixed]].astype(np.int64) * (int(post_nnz.max(initial=0)) + 1)
                         + post_nnz[cols[mixed]], return_inverse=True)
    for members in _label_groups(shape, 2):
        at = mixed[members]
        pre_at = pre.indptr[cols[at], None] + np.arange(pre_nnz[cols[at[0]]])
        post_at = post.indptr[cols[at], None] + np.arange(post_nnz[cols[at[0]]])
        rows = np.hstack([pre.indices[pre_at], pre.data[pre_at],
                          post.indices[post_at], post.data[post_at]])
        # within a hash run candidates rise by id and the sort is stable, so each
        # run of equal rows starts at its smallest transition
        order = np.lexsort(rows.T)
        rows, at = rows[order], at[order]
        starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
        first[at] = np.repeat(cols[at[starts]], np.diff(np.r_[starts, len(at)]))

    # the groups, from the candidates alone, in label order with members ascending
    order = np.lexsort((cols, first))
    sizes = np.unique(first, return_counts=True)[1]
    groups = [group for group in _split(cols[order].tolist(), _offsets(sizes)) if len(group) > 1]
    repetition_count = sum(len(g) - 1 for g in groups)
    n = net.num_transitions
    fraction = repetition_count / n if n else 0.0
    return RepeatGroups(groups, repetition_count, fraction)


def repeat_report(net: PlaceTransitionNet, repeats: RepeatGroups) -> dict:
    """Machine-readable repeat summary (both group and excess-member counts)."""
    return {
        "group_count": repeats.group_count,
        "repetition_count": repeats.repetition_count,
        "repetition_fraction": repeats.fraction,
        "groups": _split(net.tx_ids_of([t for group in repeats.groups for t in group]),
                         _offsets(np.fromiter(map(len, repeats.groups), np.int64))),
    }


def summary(net: PlaceTransitionNet) -> SummaryReport:
    """Headline counts for a sealed net."""
    return SummaryReport(
        places=net.num_places,
        transitions=net.num_transitions,
        pre_arcs=net.pre.nnz,
        post_arcs=net.post.nnz,
        accumulate_only=int(np.count_nonzero(accumulate_only(net))),
        disposable=int(np.count_nonzero(disposable_addresses(net))),
    )
