"""Transitive clustering — connected components over accepted match pairs
(engine addition per BASELINE.json north_rule; absent from the reference,
SURVEY.md §2.4 M6).

Two execution paths:
- **driver label propagation** (default when the edge list is small):
  pull the two int64 edge columns to the driver and run the vectorized
  ``connected_components_arrays``. Exact.
- **BSP min-label propagation** (scale path): iterate
  ``labels(v) = min(labels(v), min over neighbors labels(u))`` as a
  hash_join + groupby-min per round until the label sum reaches a fixpoint.
  Convergence is monotone; rounds ≈ cluster diameter (entity clusters are
  shallow). Each round shuffles only (node, label) pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Min, Sum

from record_matcher_ray.core.exchange import bucket_exchange
from record_matcher_ray.pipelines.joins import hash_join


def connected_components_arrays(
    u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components over int64 edge arrays →
    (nodes sorted asc, component id = min node id in the component).

    Min-label propagation with pointer jumping: each round relaxes every
    edge (scatter-min both directions) then collapses label chains
    (``label = label[label]``) to fixpoint. Rounds ≈ O(log n); for the
    star-shaped mention↔registry graphs docmatch emits, 2-3 rounds. All
    O(E) numpy — the per-edge Python union-find loop it replaces cost
    ~3 s per 600k edges on the driver."""
    if len(u) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    nodes, codes = np.unique(np.concatenate([u, v]), return_inverse=True)
    cu, cv = codes[: len(u)], codes[len(u):]
    label = np.arange(len(nodes), dtype=np.int64)
    # scatter-min via a ONE-TIME sort of the (static) edge incidence list +
    # per-round gather/reduceat — np.minimum.at's unbuffered scatter was
    # ~2 s per 600k edges, the sorted segmented form is ~20× faster
    inc = np.concatenate([cu, cv])
    order = np.argsort(inc, kind="stable")
    inc_s = inc[order]
    seg = np.nonzero(np.concatenate(([True], inc_s[1:] != inc_s[:-1])))[0]
    touched = inc_s[seg]
    while True:
        m = np.minimum(label[cu], label[cv])
        before = label.copy()
        mm = np.concatenate([m, m])[order]
        segmin = np.minimum.reduceat(mm, seg)
        label[touched] = np.minimum(label[touched], segmin)
        while True:
            nl = label[label]
            if np.array_equal(nl, label):
                break
            label = nl
        if np.array_equal(before, label):
            break
    # nodes is sorted, so code order == value order: label indexes map
    # straight back to min node ids
    return nodes, nodes[label]


def connected_components_star(
    u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Connected components for the DEGREE-≤1 left side special case: every
    ``u`` value appears in at most one edge, so the graph is a forest of
    stars centered on ``v`` and a component is exactly one v-group. One
    sort + segmented min — no node-id ``np.unique``, no propagation
    rounds; ~⅓ the memory traffic of the general kernel, which matters on
    this host where a cold driver pays first-touch faults per fresh byte
    (CLAUDE.md). Same contract as ``connected_components_arrays``:
    (nodes sorted asc, component id = min node id in the component).
    Callers must guarantee u-uniqueness (docmatch's winner pairs are one
    row per x by construction of the per-x argmax reduce)."""
    if len(u) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    us = u[order]
    seg = np.nonzero(np.concatenate(([True], vs[1:] != vs[:-1])))[0]
    v_uniq = vs[seg]
    comp_g = np.minimum(np.minimum.reduceat(us, seg), v_uniq)
    sizes = np.diff(np.concatenate((seg, [len(vs)])))
    nodes = np.concatenate([us, v_uniq])
    comps = np.concatenate([np.repeat(comp_g, sizes), comp_g])
    no = np.argsort(nodes, kind="stable")
    return nodes[no], comps[no]


def connected_components(
    edges: ray.data.Dataset,
    u: str = "u",
    v: str = "v",
    driver_threshold: int = 2_000_000,
    max_iter: int = 30,
) -> ray.data.Dataset:
    """→ Dataset(node:int64, component:int64). Component id = min node id."""
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_pandas(
            pd.DataFrame({"node": pd.Series([], dtype="int64"),
                          "component": pd.Series([], dtype="int64")})
        )
    if n_edges <= driver_threshold:
        # zero-copy block pulls (driver iter_batches over big data is a
        # first-touch-fault trap, CLAUDE.md) + vectorized label propagation
        blocks = [
            t for t in ray.get(edges.materialize().to_arrow_refs()) if len(t)
        ]
        uu = np.concatenate([t[u].to_numpy() for t in blocks])
        vv = np.concatenate([t[v].to_numpy() for t in blocks])
        nodes, roots = connected_components_arrays(
            uu.astype(np.int64, copy=False), vv.astype(np.int64, copy=False)
        )
        return ray.data.from_arrow(
            pa.table({"node": pa.array(nodes), "component": pa.array(roots)})
        )
    return _connected_components_bsp(edges, u, v, max_iter)


def _connected_components_bsp(edges, u, v, max_iter) -> ray.data.Dataset:
    def fwd(t: pa.Table) -> pa.Table:
        return pa.table({"src": t[u].combine_chunks().cast(pa.int64()),
                         "dst": t[v].combine_chunks().cast(pa.int64())})

    def rev(t: pa.Table) -> pa.Table:
        return pa.table({"src": t[v].combine_chunks().cast(pa.int64()),
                         "dst": t[u].combine_chunks().cast(pa.int64())})

    sym = edges.map_batches(fwd, batch_format="pyarrow").union(
        edges.map_batches(rev, batch_format="pyarrow")
    ).materialize()

    # label init: min(node, min neighbor)
    labels = (
        sym.groupby("src").aggregate(Min("dst", alias_name="nbr"))
        .map_batches(
            lambda t: pa.table(
                {"node": t["src"].combine_chunks(),
                 "label": pa.compute.min_element_wise(
                     t["src"].combine_chunks(), t["nbr"].combine_chunks())}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    prev_sum = labels.aggregate(Sum("label"))["sum(label)"]

    for _ in range(max_iter):
        msgs = hash_join(sym, labels, left_on="src", right_on="node").map_batches(
            lambda t: pa.table({"node": t["dst"].combine_chunks(),
                                "label": t["label"].combine_chunks()}),
            batch_format="pyarrow",
        )
        labels = (
            labels.union(msgs)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur = labels.aggregate(Sum("label"))["sum(label)"]
        if cur == prev_sum:
            break
        prev_sum = cur
    return labels.map_batches(
        lambda t: pa.table({"node": t["node"].combine_chunks(),
                            "component": t["label"].combine_chunks()}),
        batch_format="pyarrow",
    )


def merge_components(
    clusters: ray.data.Dataset,
    new_edges: ray.data.Dataset,
    *,
    node_col: str = "node",
    comp_col: str = "component",
    u: str = "u",
    v: str = "v",
    max_touched: int = 50_000_000,
) -> ray.data.Dataset:
    """Incremental cluster maintenance — the clustering completion of the
    delta-matching path (`docmatch.match_documents_delta`): fold a small
    batch of NEW edges into an existing min-label component assignment
    WITHOUT re-clustering the whole graph. Result is value-identical to
    `connected_components` over (old star edges ∪ new edges): only
    components touched by a new edge (plus brand-new nodes) are
    relabeled; every other assignment streams through untouched.

    Scale shape: the touched-component id set is collected from the new
    edges' endpoints via one broadcast-filter pass over ``clusters``
    (new-edge endpoints → their old components — small for a delta),
    then a driver union-find over ONLY touched members + new edges
    (``max_touched`` guard); untouched rows pass through with zero
    shuffle. Old labels are already min-node ids (the
    `connected_components` contract), so pass-through equals what a full
    recompute would emit."""
    eb = [t for t in ray.get(new_edges.materialize().to_arrow_refs())
          if len(t)]
    if not eb:
        return clusters
    uu = np.concatenate([t[u].to_numpy() for t in eb]).astype(np.int64)
    vv = np.concatenate([t[v].to_numpy() for t in eb]).astype(np.int64)
    end_nodes = np.unique(np.concatenate([uu, vv]))
    ends_ref = ray.put(end_nodes)

    clusters = clusters.materialize()

    # pass 1: old components touched by any new-edge endpoint
    @ray.remote
    def touched_partial(t: pa.Table) -> np.ndarray:
        ends = ray.get(ends_ref)
        n = t[node_col].to_numpy()
        pos = np.minimum(np.searchsorted(ends, n), len(ends) - 1)
        hit = ends[pos] == n
        return np.unique(t[comp_col].to_numpy()[hit])

    parts = ray.get(
        [touched_partial.remote(r) for r in clusters.to_arrow_refs()]
    )
    touched = (np.unique(np.concatenate(parts)) if parts
               else np.empty(0, np.int64))
    touched_ref = ray.put(touched)

    # pass 2: pull ONLY touched members (star edges) to the driver
    @ray.remote
    def members_partial(t: pa.Table) -> pa.Table:
        tc = ray.get(touched_ref)
        c = t[comp_col].to_numpy()
        if len(tc):
            pos = np.minimum(np.searchsorted(tc, c), len(tc) - 1)
            hit = tc[pos] == c
        else:
            hit = np.zeros(len(c), bool)
        return t.filter(pa.array(hit))

    member_tbls = [
        t for t in ray.get(
            [members_partial.remote(r) for r in clusters.to_arrow_refs()]
        ) if len(t)
    ]
    n_touched = sum(len(t) for t in member_tbls)
    if n_touched > max_touched:
        raise ValueError(
            f"merge_components: {n_touched} touched members exceed "
            f"max_touched={max_touched}; run connected_components over "
            f"the full edge union instead."
        )
    if member_tbls:
        mn = np.concatenate([t[node_col].to_numpy() for t in member_tbls])
        mc = np.concatenate([t[comp_col].to_numpy() for t in member_tbls])
        star_u = np.concatenate([mn, uu])
        star_v = np.concatenate([mc, vv])
    else:
        star_u, star_v = uu, vv
    nodes, roots = connected_components_arrays(
        star_u.astype(np.int64), star_v.astype(np.int64)
    )
    relabeled = pa.table(
        {node_col: pa.array(nodes), comp_col: pa.array(roots)}
    )
    # NOTE: the local CC treats old component IDS as nodes too — they are
    # min member ids, hence real nodes of their component, so the labels
    # stay node-ids and the min is taken over true members ∪ endpoints.

    def untouched(t: pa.Table) -> pa.Table:
        tc = ray.get(touched_ref)
        c = t[comp_col].to_numpy()
        if len(tc) == 0:
            return t
        pos = np.minimum(np.searchsorted(tc, c), len(tc) - 1)
        return t.filter(pa.array(tc[pos] != c))

    passthrough = clusters.map_batches(untouched, batch_format="pyarrow")
    return passthrough.union(ray.data.from_arrow(relabeled))


@ray.remote
def _node_ent_partial(t: pa.Table, node_col: str, comp_col: str):
    """Narrow (node, old_entity) projection of one old-side block — runs
    next to the block (plasma locality), ships only two int64 arrays."""
    return (pc.cast(t[node_col], pa.int64()).to_numpy(),
            pc.cast(t[comp_col], pa.int64()).to_numpy())


@ray.remote
def _claim_partial(t: pa.Table, node_col: str, comp_col: str, old_sorted):
    """Per-new-block claim partial against the broadcast old index:
    → (distinct comps in block, per-comp min old entity id)."""
    nodes_s, ents_s = old_sorted
    big = np.iinfo(np.int64).max
    n = pc.cast(t[node_col], pa.int64()).to_numpy()
    c = pc.cast(t[comp_col], pa.int64()).to_numpy()
    if len(nodes_s):
        pos = np.minimum(np.searchsorted(nodes_s, n), len(nodes_s) - 1)
        oldid = np.where(nodes_s[pos] == n, ents_s[pos], big)
    else:
        oldid = np.full(len(n), big, np.int64)
    order = np.argsort(c, kind="stable")
    c_s, v_s = c[order], oldid[order]
    if len(c_s):
        b = np.nonzero(np.concatenate(([True], c_s[1:] != c_s[:-1])))[0]
        return c_s[b], np.minimum.reduceat(v_s, b)
    return c_s, v_s


def stable_relabel(
    old: ray.data.Dataset,
    new: ray.data.Dataset,
    *,
    node_col: str = "node",
    comp_col: str = "component",
    entity_col: str = "entity_id",
    broadcast_cap: int = 4_000_000,
) -> ray.data.Dataset:
    """Stable entity-ID assignment across ER runs — the production
    requirement behind re-clustering: downstream systems key on entity
    ids, so a re-run's fresh component labels must map back to the
    PREVIOUS run's ids wherever clusters overlap. Rule (deterministic,
    shuffle-friendly): each new component takes the MINIMUM old entity
    id over its members; components with no previously-seen member keep
    their (min-node) component label as a fresh id
    → rows (node, component, entity_id).

    The min rule is associative/commutative, so the assignment reduces
    with hash partials and is partition-invariant; when one old entity
    splits into several new clusters, each keeps a deterministic id and
    exactly one keeps the old id — the claimant whose component label
    equals the claimed id wins (its min node IS the old min node), else
    the lowest-labelled claimant. Losers fall back to their component
    label; if that label coincides with a claim some OTHER component
    won, the loser is bumped to a fresh id past every label/claim so
    entity ids stay globally unique — the standard split/merge
    bookkeeping caveat, documented not hidden.

    Scale shape (r5): when the old side fits ``broadcast_cap`` rows
    (48 MB of int64 pairs at the 4M default — the repo's established
    routing-index guardrail), the old (node → entity) index is collected
    once via narrow per-block remote partials, broadcast with
    ``ray.put``, and each new block computes its per-comp claim partial
    NEXT TO its data — zero exchanges, one driver fold (measured 12.4 s
    → ~2 s at 3M nodes). Above the cap: one hash-join-shaped exchange
    on node + a per-component min reduce."""
    old = old.materialize()
    new = new.materialize()
    if old.count() <= broadcast_cap:
        parts = ray.get([
            _node_ent_partial.remote(r, node_col, comp_col)
            for r in old.to_arrow_refs()
        ])
        nodes = (np.concatenate([p[0] for p in parts]) if parts
                 else np.empty(0, np.int64))
        ents = (np.concatenate([p[1] for p in parts]) if parts
                else np.empty(0, np.int64))
        o = np.argsort(nodes, kind="stable")
        old_ref = ray.put((np.ascontiguousarray(nodes[o]),
                           np.ascontiguousarray(ents[o])))
        cparts = ray.get([
            _claim_partial.remote(r, node_col, comp_col, old_ref)
            for r in new.to_arrow_refs()
        ])
        ac = (np.concatenate([p[0] for p in cparts]) if cparts
              else np.empty(0, np.int64))
        am = (np.concatenate([p[1] for p in cparts]) if cparts
              else np.empty(0, np.int64))
        # fold block partials: first per comp after (comp, m) sort = min
        order0 = np.lexsort((am, ac))
        ac_s, am_s = ac[order0], am[order0]
        f0 = (np.concatenate(([True], ac_s[1:] != ac_s[:-1]))
              if len(ac_s) else np.zeros(0, bool))
        comps, claims = ac_s[f0], am_s[f0]
        return _stable_relabel_resolve(
            new, comps, claims, node_col, comp_col, entity_col)

    def tag_old(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": pc.cast(t[node_col], pa.int64()),
            "old_e": pc.cast(t[comp_col], pa.int64()),
            "side": pa.array(np.zeros(len(t), np.int8)),
            "comp": pa.array(np.full(len(t), -1, np.int64)),
        })

    def tag_new(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": pc.cast(t[node_col], pa.int64()),
            "old_e": pa.array(np.full(len(t), -1, np.int64)),
            "side": pa.array(np.ones(len(t), np.int8)),
            "comp": pc.cast(t[comp_col], pa.int64()),
        })

    both = [old.map_batches(tag_old, batch_format="pyarrow"),
            new.map_batches(tag_new, batch_format="pyarrow")]

    def join_min(t: pa.Table) -> pa.Table:
        """per bucket: node-join old entities onto new members, then
        per-new-component min(old entity) partial."""
        n = t["n"].to_numpy()
        side = t["side"].to_numpy()
        old_e = t["old_e"].to_numpy()
        comp = t["comp"].to_numpy()
        o = side == 0
        on = n[o]
        order = np.argsort(on, kind="stable")
        on_s, oe_s = on[order], old_e[o][order]
        nm = ~o
        nn, nc = n[nm], comp[nm]
        if len(on_s):
            pos = np.minimum(np.searchsorted(on_s, nn), len(on_s) - 1)
            hit = on_s[pos] == nn
            oldid = np.where(hit, oe_s[pos], np.iinfo(np.int64).max)
        else:
            oldid = np.full(len(nn), np.iinfo(np.int64).max, np.int64)
        import pandas as _pd

        codes, uniq = _pd.factorize(nc)
        # sort-based segmented min (np.minimum.at is ~20x slower —
        # CLAUDE.md)
        order2 = np.argsort(codes, kind="stable")
        c_s, v_s = codes[order2], oldid[order2]
        if len(c_s):
            b2 = np.nonzero(
                np.concatenate(([True], c_s[1:] != c_s[:-1]))
            )[0]
            seg_min = np.minimum.reduceat(v_s, b2)
            mins = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
            mins[c_s[b2]] = seg_min
        else:
            mins = np.empty(0, np.int64)
        return pa.table({"comp": pa.array(uniq.astype(np.int64)),
                         "m": pa.array(mins)})

    mins = (
        bucket_exchange(both, ["n"], join_min)
        .groupby("comp")
        .min("m")
        .to_pandas()
    )
    mcol = [c for c in mins.columns if c.startswith("min")][0]
    comps = mins["comp"].to_numpy(dtype=np.int64)
    claims = mins[mcol].to_numpy(dtype=np.int64)
    return _stable_relabel_resolve(
        new, comps, claims, node_col, comp_col, entity_col)


def _stable_relabel_resolve(
    new: ray.data.Dataset,
    comps: np.ndarray,
    claims: np.ndarray,
    node_col: str,
    comp_col: str,
    entity_col: str,
) -> ray.data.Dataset:
    """Driver-side contested-claim resolution + id attach, shared by the
    broadcast and exchange paths of :func:`stable_relabel`."""
    big = np.iinfo(np.int64).max
    # uniqueness of ids when an old entity SPLITS: several new comps can
    # claim the same old id; the claimant whose component label EQUALS
    # the claimed id keeps it (its min node is the old min node), else
    # the lowest-labelled claimant; the rest fall back to their own
    # (min-node) component label
    order = np.lexsort((comps, comps != claims, claims))
    c_s, cl_s = comps[order], claims[order]
    first = (np.concatenate(([True], cl_s[1:] != cl_s[:-1]))
             if len(cl_s) else np.zeros(0, bool))
    winner = (cl_s != big) & first
    ent = np.where(winner, cl_s, c_s)
    # residual collisions: a loser/non-claimant's fallback label can
    # still equal a claim WON by a different comp (e.g. the label-owner
    # claimed a smaller id and lost it) — bump those comps to fresh ids
    # past every label and claim so entity ids stay globally unique
    won = np.sort(cl_s[winner])
    if len(won):
        pos = np.minimum(np.searchsorted(won, c_s), len(won) - 1)
        collide = (~winner) & (won[pos] == c_s)
        if collide.any():
            offset = 1 + max(int(won[-1]), int(comps.max()))
            idx = np.nonzero(collide)[0]
            rank = np.argsort(np.argsort(c_s[idx], kind="stable"))
            ent[idx] = offset + rank
    comps_sorted_idx = np.argsort(c_s, kind="stable")
    comp_keys = np.ascontiguousarray(c_s[comps_sorted_idx])
    ent_vals = np.ascontiguousarray(ent[comps_sorted_idx])
    ent_ref = ray.put((comp_keys, ent_vals))

    def attach(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(ent_ref)  # zero-copy plasma arrays
        comp = pc.cast(t[comp_col], pa.int64()).to_numpy()
        if len(keys):
            pos = np.minimum(np.searchsorted(keys, comp), len(keys) - 1)
            ent_np = np.where(keys[pos] == comp, vals[pos], comp)
        else:
            ent_np = comp
        return pa.table({
            node_col: pc.cast(t[node_col], pa.int64()),
            comp_col: pa.array(comp),
            entity_col: pa.array(ent_np.astype(np.int64)),
        })

    return new.map_batches(attach, batch_format="pyarrow")
