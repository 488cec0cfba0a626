"""Iterative graph analytics over edge-list Datasets.

PageRank (Page et al. 1999) in EXACT fixed-point integer arithmetic —
the same technique that makes ``similarity.kmeans`` partition-invariant
and bit-replayable by a DuckDB oracle: all mass lives in integer units
of 2**-total_bits, per-node contributions are floor divisions, and the
damping update is integer multiply + floor divide, so the result is
identical under any block layout, worker count, or merge order (no
float summation anywhere).

Scale shape: the indexed edge list is materialized ONCE (CLAUDE.md
multi-consumer rule — each Lloyd-style iteration re-reads it); per
iteration the rank vector is broadcast (``ray.put``) and every block
emits a dense int64 inflow partial (length = node count) merged by
elementwise addition — exchange volume O(blocks × nodes × 8 B),
independent of edge count. The node table must fit the driver
(``max_broadcast_nodes`` guard with an actionable error); beyond it the
update becomes two bounded-bucket hash exchanges per iteration
(contribution join by src, aggregate by dst) — the classic BSP layout
`cluster.connected_components` already uses.

The reference engine has no graph surface; this is part of the engine's
beyond-reference family (transitive clustering's analytical sibling).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from record_matcher_ray.core.exchange import bucket_exchange


def pagerank(
    ds: ray.data.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    iters: int = 5,
    d_num: int = 85,
    d_den: int = 100,
    total_bits: int = 40,
    max_broadcast_nodes: int = 50_000_000,
    seeds: np.ndarray | None = None,
) -> pd.DataFrame:
    """→ DataFrame (node:int64, pr:int64) — rank mass in integer units of
    2**-``total_bits`` after ``iters`` synchronous updates with damping
    ``d_num/d_den``:

        contrib(u) = pr(u) // outdeg(u)            (0 for dangling u)
        pr'(v) = ((d_den - d_num) * INIT) // d_den    (teleport)
                 + (d_num * Σ_{(u,v)∈E} contrib(u)) // d_den

    with ``INIT = 2**total_bits // N`` and parallel edges counted with
    multiplicity. Floors leak a little mass (standard for integer PR);
    ordering is unaffected. Dense per-block inflow partials are float64
    ``np.bincount`` sums, exact because total mass ≤ 2**total_bits < 2**53.

    With ``seeds`` (an int64 array of node ids) this becomes
    PERSONALIZED PageRank (random walk with restart): the teleport term
    applies only at seed nodes with ``INIT = 2**total_bits // |seeds|``
    and the walk starts there (non-seed init 0) — proximity-to-the-seed-
    set scoring for entity-graph expansion ("records related to this
    cluster"). Identical integer arithmetic, identically
    partition-invariant; seed ids absent from the graph are ignored.
    """
    if total_bits > 52:
        raise ValueError("total_bits must be ≤ 52 so bincount sums stay "
                         "exact in float64")

    def deg_partial(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy()
        d = t[dst_col].to_numpy()
        us, cs = np.unique(s, return_counts=True)
        ud = np.unique(d)
        return pa.table(
            {"node": pa.array(np.concatenate([us, ud]).astype(np.int64)),
             "outd": pa.array(np.concatenate(
                 [cs, np.zeros(len(ud))]).astype(np.int64))}
        )

    parts = ds.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return pd.DataFrame({"node": pd.array([], dtype=np.int64),
                             "pr": pd.array([], dtype=np.int64)})
    agg = parts.groupby("node")["outd"].sum().sort_index()
    nodes = agg.index.to_numpy(dtype=np.int64)
    outd = agg.to_numpy(dtype=np.int64)
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": pd.array([], dtype=np.int64),
                             "pr": pd.array([], dtype=np.int64)})
    if n > max_broadcast_nodes:
        raise ValueError(
            f"pagerank broadcasts the node table and this graph has {n} "
            f"nodes (> max_broadcast_nodes={max_broadcast_nodes}); use the "
            f"BSP shuffle layout (join contributions by src, aggregate by "
            f"dst per iteration) at this scale."
        )
    nodes_ref = ray.put(nodes)

    def to_idx(t: pa.Table) -> pa.Table:
        nd = ray.get(nodes_ref)
        si = np.searchsorted(nd, t[src_col].to_numpy().astype(np.int64))
        di = np.searchsorted(nd, t[dst_col].to_numpy().astype(np.int64))
        return pa.table({"si": pa.array(si.astype(np.int64)),
                         "di": pa.array(di.astype(np.int64))})

    edges = ds.map_batches(to_idx, batch_format="pyarrow").materialize()

    if seeds is None:
        init = (1 << total_bits) // n
        teleport = np.int64(((d_den - d_num) * init) // d_den)
        pr = np.full(n, init, dtype=np.int64)
    else:
        sd = np.unique(np.asarray(seeds, dtype=np.int64))
        pos = np.searchsorted(nodes, sd)
        ok = (pos < n) & (nodes[np.clip(pos, 0, n - 1)] == sd)
        seed_idx = pos[ok]
        if len(seed_idx) == 0:
            raise ValueError("personalized pagerank: no seed id is "
                             "present in the graph")
        init = (1 << total_bits) // len(seed_idx)
        teleport = np.zeros(n, dtype=np.int64)
        teleport[seed_idx] = ((d_den - d_num) * init) // d_den
        pr = np.zeros(n, dtype=np.int64)
        pr[seed_idx] = init
    outd_ref = ray.put(outd)

    for _ in range(iters):
        pr_ref = ray.put(pr)

        def inflow(t: pa.Table, pr_ref=pr_ref) -> pa.Table:
            prv = ray.get(pr_ref)
            od = ray.get(outd_ref)
            contrib = np.zeros(len(prv), dtype=np.int64)
            nz = od > 0
            contrib[nz] = prv[nz] // od[nz]
            s = np.bincount(
                t["di"].to_numpy(),
                weights=contrib[t["si"].to_numpy()].astype(np.float64),
                minlength=len(prv),
            )
            return pa.table({"v": pa.array([s.astype(np.int64)],
                                           pa.list_(pa.int64()))})

        total = np.zeros(n, dtype=np.int64)
        for b in edges.map_batches(
            inflow, batch_format="pyarrow"
        ).iter_batches(batch_size=256, batch_format="pyarrow"):
            for row in b["v"]:
                total += np.asarray(row.as_py(), dtype=np.int64)
        pr = teleport + (d_num * total) // d_den

    return pd.DataFrame({"node": nodes, "pr": pr})


def triangle_count(
    ds: ray.data.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    max_broadcast_nodes: int = 50_000_000,
    max_pairs_per_bucket: int = 50_000_000,
) -> pd.DataFrame:
    """Exact triangle count of the UNDIRECTED SIMPLE graph induced by the
    edge list (self-loops dropped, duplicate/reverse edges collapsed) →
    one row (n_nodes, n_edges, n_triangles). The clustering / community
    primitive next to `pagerank` and `cluster.connected_components`.

    Algorithm (Chiba–Nishizeki degree orientation, the MapReduce triangle
    layout of Suri & Vassilvitskii, WWW 2011): orient every edge from its
    lower (degree, id) endpoint to the higher, so each triangle is
    counted EXACTLY once at its rank-minimal vertex and the wedge fan-out
    per node is bounded (Σ outdeg² = O(E^1.5) total, not Σ deg²).

    Scale shape: three bounded exchanges — (1) distinct-edge dedupe via a
    `groupby(packed_key).count()` hash aggregate (block-local np.unique
    first, so raw duplicates never shuffle), (2) wedge generation grouped
    by a hash of the oriented source (in-bucket:
    one lexsort, vectorized neighbor-pair expansion by rank offset), (3)
    closure check: wedge candidates pre-counted per pair, unioned with
    the (materialized-once) edge keys and resolved per key-hash bucket by
    sorted membership (np.searchsorted). The node table broadcasts once
    (``max_broadcast_nodes`` guard); wedge volume is guarded per bucket
    with an actionable error.
    """

    def node_partial(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy().astype(np.int64)
        d = t[dst_col].to_numpy().astype(np.int64)
        m = s != d
        u = np.unique(np.concatenate([s[m], d[m]]))
        return pa.table({"node": pa.array(u)})

    parts = ds.map_batches(node_partial, batch_format="pyarrow").to_pandas()
    if parts.empty:  # schemaless when every block was empty
        nodes = np.empty(0, np.int64)
    else:
        nodes = np.unique(parts["node"].to_numpy(dtype=np.int64))
    n = len(nodes)
    empty = pd.DataFrame(
        {"n_nodes": pd.array([n], dtype=np.int64),
         "n_edges": pd.array([0], dtype=np.int64),
         "n_triangles": pd.array([0], dtype=np.int64)}
    )
    if n == 0:
        return empty
    if n > max_broadcast_nodes or n >= 2**31:
        raise ValueError(
            f"triangle_count broadcasts the node table and this graph has "
            f"{n} nodes (> max_broadcast_nodes={max_broadcast_nodes} or ≥ "
            f"2**31 key-packing bound); shard the node index (two-level "
            f"bucketed lookup) at this scale."
        )
    nodes_ref = ray.put(nodes)
    nu = np.uint64(n)

    def to_key(t: pa.Table) -> pa.Table:
        nd = ray.get(nodes_ref)
        a = np.searchsorted(nd, t[src_col].to_numpy().astype(np.int64))
        b = np.searchsorted(nd, t[dst_col].to_numpy().astype(np.int64))
        m = a != b
        lo = np.minimum(a[m], b[m]).astype(np.uint64)
        hi = np.maximum(a[m], b[m]).astype(np.uint64)
        ek = np.unique(lo * nu + hi)  # block-local dedupe before the wire
        return pa.table({"ek": pa.array(ek.astype(np.int64))})

    edges = (
        ds.map_batches(to_key, batch_format="pyarrow")
        .groupby("ek")
        .count()
        .drop_columns(["count()"])
        .materialize()  # 3 consumers (degree, wedges, closure) — CLAUDE.md
    )
    n_edges = edges.count()
    if n_edges == 0:
        return empty

    def deg_partial(t: pa.Table) -> pa.Table:
        ek = t["ek"].to_numpy().astype(np.uint64)
        both = np.concatenate([(ek // nu), (ek % nu)]).astype(np.int64)
        un, cn = np.unique(both, return_counts=True)
        return pa.table({"i": pa.array(un), "d": pa.array(cn.astype(np.int64))})

    dp = edges.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
    deg = np.zeros(n, dtype=np.int64)
    agg = dp.groupby("i")["d"].sum()
    deg[agg.index.to_numpy(dtype=np.int64)] = agg.to_numpy(dtype=np.int64)
    deg_ref = ray.put(deg)

    def orient(t: pa.Table) -> pa.Table:
        dg = ray.get(deg_ref).astype(np.uint64)
        ek = t["ek"].to_numpy().astype(np.uint64)
        a, b = ek // nu, ek % nu
        # rank = (deg << 32) | idx: ties impossible (idx unique)
        ra = (dg[a] << np.uint64(32)) | a
        rb = (dg[b] << np.uint64(32)) | b
        sw = rb < ra
        src = np.where(sw, b, a)
        dst = np.where(sw, a, b)
        return pa.table(
            {"s": pa.array(src.astype(np.int64)),
             "t": pa.array(dst.astype(np.int64))}
        )

    def wedge_group(tb: pa.Table) -> pa.Table:
        dg = ray.get(deg_ref).astype(np.uint64)
        s = tb["s"].to_numpy()
        t = tb["t"].to_numpy().astype(np.uint64)
        rank_t = (dg[t] << np.uint64(32)) | t
        order = np.lexsort((rank_t, s))
        s, t = s[order], t[order]
        first = np.empty(len(s), bool)
        first[0] = True
        np.not_equal(s[1:], s[:-1], out=first[1:])
        start = np.flatnonzero(first)
        g = np.diff(np.append(start, len(s)))
        total = int((g.astype(np.int64) * (g - 1) // 2).sum())
        if total > max_pairs_per_bucket:
            raise ValueError(
                f"wedge bucket would expand to {total} candidate pairs "
                f"(> max_pairs_per_bucket={max_pairs_per_bucket}); raise "
                f"the cap, or pre-filter hub nodes."
            )
        vs, ws = [], []
        gmax = int(g.max()) if len(g) else 0
        for k in range(1, gmax):  # rank offset within the neighbor list
            act = g > k
            if not act.any():
                break
            st, gg = start[act], g[act]
            cnt = (gg - k).astype(np.int64)
            # multi-arange: positions st[j] .. st[j]+cnt[j]-1, vectorized
            i0 = np.repeat(st, cnt) + (
                np.arange(int(cnt.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(cnt) - cnt, cnt)
            )
            vs.append(i0)
            ws.append(i0 + k)
        if vs:
            vi = t[np.concatenate(vs)]
            wi = t[np.concatenate(ws)]
            lo = np.minimum(vi, wi)
            hi = np.maximum(vi, wi)
            ck, m = np.unique(lo * nu + hi, return_counts=True)
        else:
            ck = np.empty(0, np.uint64)
            m = np.empty(0, np.int64)
        return pa.table(
            {"ck": pa.array(ck.astype(np.int64)),
             "m": pa.array(m.astype(np.int64))}
        )

    wedges = bucket_exchange(edges, ["s"], wedge_group, prepare=orient)

    def tag_edge(t: pa.Table) -> pa.Table:
        return pa.table(
            {"ck": t["ek"], "m": pa.array(np.zeros(len(t), np.int64))}
        )

    def close_group(t: pa.Table) -> pa.Table:
        m = t["m"].to_numpy()
        ck = t["ck"].to_numpy()
        ekeys = np.sort(ck[m == 0])
        cand = ck[m > 0]
        cm = m[m > 0]
        if len(ekeys):
            pos = np.minimum(
                np.searchsorted(ekeys, cand), len(ekeys) - 1
            )
            tot = int(cm[ekeys[pos] == cand].sum())
        else:
            tot = 0
        return pa.table({"tri": pa.array([tot], pa.int64())})

    tri = int(
        bucket_exchange([edges, wedges], ["ck"], close_group,
                        prepare=[tag_edge, None])
        .to_pandas()["tri"].sum()
    )
    return pd.DataFrame(
        {"n_nodes": pd.array([n], dtype=np.int64),
         "n_edges": pd.array([n_edges], dtype=np.int64),
         "n_triangles": pd.array([tri], dtype=np.int64)}
    )


def bfs_hops(
    edges: ray.data.Dataset,
    source: int,
    u: str = "src",
    v: str = "dst",
    *,
    max_hops: int = 12,
    driver_threshold: int = 50_000_000,
) -> ray.data.Dataset:
    """Unweighted shortest hop count from ``source`` along DIRECTED
    edges → (node, hops) for every node reachable within ``max_hops``
    (make edges bidirectional upstream for undirected graphs). The
    breadth-first sibling of `cluster.connected_components`: exact
    integers end to end, so the result is partition-invariant and
    replayable by a bounded WITH RECURSIVE DuckDB oracle (recursive SQL
    must bound depth on cyclic graphs — ``max_hops`` IS that bound, on
    both sides; a node whose true distance exceeds it is absent).

    Shape: edges pull to the driver as zero-copy block refs under a
    ``driver_threshold`` guard (the CC fast path — beyond it, raise with
    BSP guidance rather than OOM); the relaxation loop argsorts the
    incidence ONCE and runs one segmented min per round
    (np.minimum.reduceat — CLAUDE.md: ~20× faster than ufunc.at
    scatter), O(diameter) rounds total.
    """
    n_edges = edges.count()
    if n_edges > driver_threshold:
        raise ValueError(
            f"{n_edges:,} edges exceeds driver_threshold="
            f"{driver_threshold:,}; run BFS as BSP rounds (the "
            "connected_components shuffle layout) instead of the driver "
            "fast path."
        )
    empty = pa.schema(
        [("node", pa.int64()), ("hops", pa.int64())]
    ).empty_table()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([source], pa.int64()),
                      "hops": pa.array([0], pa.int64())})
        )
    blocks = [
        t for t in ray.get(edges.materialize().to_arrow_refs()) if len(t)
    ]
    src = np.concatenate(
        [t[u].to_numpy().astype(np.int64, copy=False) for t in blocks]
    )
    dst = np.concatenate(
        [t[v].to_numpy().astype(np.int64, copy=False) for t in blocks]
    )
    nodes = np.unique(np.concatenate([src, dst, [np.int64(source)]]))
    idx_s = np.searchsorted(nodes, src)
    idx_d = np.searchsorted(nodes, dst)
    # argsort the incidence ONCE; every round is gather + reduceat
    order = np.argsort(idx_d, kind="stable")
    d_sorted = idx_d[order]
    s_sorted = idx_s[order]
    starts = np.nonzero(
        np.concatenate(([True], d_sorted[1:] != d_sorted[:-1]))
    )[0]
    targets = d_sorted[starts]
    INF = np.int64(np.iinfo(np.int64).max - 1)
    dist = np.full(len(nodes), INF, np.int64)
    dist[np.searchsorted(nodes, source)] = 0
    for _ in range(max_hops):
        cand = dist[s_sorted]
        cand = np.where(cand >= INF, INF, cand + 1)
        mins = np.minimum.reduceat(cand, starts)
        new = dist.copy()
        upd = mins < new[targets]
        if not upd.any():
            break
        new[targets[upd]] = mins[upd]
        dist = new
    reach = dist <= max_hops
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes[reach]),
                  "hops": pa.array(dist[reach])})
    )


def label_propagation(
    ds: ray.data.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    iters: int = 4,
    max_broadcast_nodes: int = 50_000_000,
) -> pd.DataFrame:
    """Synchronous label propagation (Raghavan et al. 2007, LPA) →
    DataFrame (node:int64, label:int64) after ``iters`` rounds. Every
    node starts labeled with its own id; each round every node with
    inbound edges adopts the most frequent label among its in-neighbors
    (ties → smallest label), others keep theirs. Deterministic by
    construction — the min-label tie-break plus synchronous updates
    remove LPA's usual run-to-run wobble, so any partitioning yields
    the identical labeling (community detection for entity graphs,
    template-cluster discovery over near-dup edges).

    Scale shape: per round the label vector is broadcast (``ray.put``,
    the `pagerank` layout with the same ``max_broadcast_nodes`` guard)
    and counting runs as ONE integer-exact dst-hash exchange: per-block
    (dst, label) packed-key partial counts, merged and argmaxed per dst
    inside each ``fn`` call (lexsorted, vectorized). No driver pull of
    edges; the driver holds only the O(nodes) label vector, exactly like
    `pagerank`'s rank vector.
    """

    def node_partial(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy().astype(np.int64)
        d = t[dst_col].to_numpy().astype(np.int64)
        return pa.table(
            {"node": pa.array(np.unique(np.concatenate([s, d])))}
        )

    nd_parts = ds.map_batches(
        node_partial, batch_format="pyarrow"
    ).to_pandas()
    if nd_parts.empty:
        return pd.DataFrame({"node": pd.array([], dtype=np.int64),
                             "label": pd.array([], dtype=np.int64)})
    nodes = np.unique(nd_parts["node"].to_numpy(dtype=np.int64))
    n = len(nodes)
    if n > max_broadcast_nodes:
        raise ValueError(
            f"label_propagation broadcasts the node table and this graph "
            f"has {n} nodes (> max_broadcast_nodes={max_broadcast_nodes}); "
            f"switch to the BSP join layout at this scale."
        )
    if n >= (1 << 31):
        raise ValueError("label_propagation packs (dst, label) into one "
                         "int64 and needs n < 2**31 nodes")
    nodes_ref = ray.put(nodes)

    def to_idx(t: pa.Table) -> pa.Table:
        nd = ray.get(nodes_ref)
        si = np.searchsorted(nd, t[src_col].to_numpy().astype(np.int64))
        di = np.searchsorted(nd, t[dst_col].to_numpy().astype(np.int64))
        return pa.table({"si": pa.array(si.astype(np.int64)),
                         "di": pa.array(di.astype(np.int64))})

    edges = ds.map_batches(to_idx, batch_format="pyarrow").materialize()

    lab = np.arange(n, dtype=np.int64)  # label = index into nodes
    nn = np.int64(n)
    for _ in range(int(iters)):
        lab_ref = ray.put(lab)

        def count_partial(t: pa.Table, lab_ref=lab_ref) -> pa.Table:
            lv = ray.get(lab_ref)
            key = t["di"].to_numpy() * nn + lv[t["si"].to_numpy()]
            ks = np.sort(key)
            firstm = np.concatenate(([True], ks[1:] != ks[:-1])) \
                if len(ks) else np.array([], bool)
            starts = np.nonzero(firstm)[0]
            cnt = np.diff(np.append(starts, len(ks))).astype(np.int64)
            return pa.table({"key": pa.array(ks[firstm]),
                             "cnt": pa.array(cnt),
                             "dst": pa.array(ks[firstm] // nn)})

        def argmax(t: pa.Table) -> pa.Table:
            # merge the blocks' partial counts of each (dst, label) key
            key = t["key"].to_numpy()
            order = np.argsort(key, kind="stable")
            ks = key[order]
            starts = np.flatnonzero(
                np.concatenate(([True], ks[1:] != ks[:-1]))
            )
            key = ks[starts]
            cnt = np.add.reduceat(t["cnt"].to_numpy()[order], starts)
            dst = key // nn
            lbl = key % nn
            order = np.lexsort((lbl, -cnt, dst))
            d_s = dst[order]
            firstm = np.concatenate(([True], d_s[1:] != d_s[:-1]))
            return pa.table(
                {"node_idx": pa.array(d_s[firstm]),
                 "new_lab": pa.array(lbl[order][firstm])}
            )

        upd = bucket_exchange(
            edges, ["dst"], argmax, prepare=count_partial
        ).to_pandas()
        nxt = lab.copy()
        nxt[upd["node_idx"].to_numpy(dtype=np.int64)] = \
            upd["new_lab"].to_numpy(dtype=np.int64)
        lab = nxt

    return pd.DataFrame({"node": nodes, "label": nodes[lab]})


def transitivity_audit(
    ds: ray.data.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    *,
    ndigits: int = 6,
    **kw,
) -> pd.DataFrame:
    """Global transitivity (clustering coefficient) of the undirected
    simple graph induced by an edge list → one row (n_nodes, n_edges,
    n_wedges, n_triangles, transitivity = 3·T / W, NULL when W = 0).

    The ER consistency diagnostic: over ACCEPTED match pairs, a low
    transitivity means many a~b, b~c pairs whose a~c edge the matcher
    rejected — exactly the triangles the reference's duplicate pass
    (matcher.py:366-447) silently splits. Wedge count W = Σ_v d(v)·
    (d(v)−1)/2 over exact integer degrees; T from `triangle_count`
    (same dedupe semantics); ONE double division, half-up ``ndigits``.

    Scale shape: triangle_count's bounded exchanges plus one extra
    degree pass over the deduped edge keys (integer partials)."""
    import math

    tri = triangle_count(ds, src_col, dst_col, **kw)
    n_tri = int(tri["n_triangles"].iloc[0])
    n_nodes = int(tri["n_nodes"].iloc[0])
    n_edges = int(tri["n_edges"].iloc[0])

    def edge_partial(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy().astype(np.int64)
        d = t[dst_col].to_numpy().astype(np.int64)
        m = s != d
        lo = np.minimum(s[m], d[m])
        hi = np.maximum(s[m], d[m])
        # block-local dedupe; global dedupe by groupby below
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"a": pa.array(u[:, 0]), "b": pa.array(u[:, 1])})

    dedup = (
        ds.map_batches(edge_partial, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
    )

    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t["a"].to_numpy().astype(np.int64),
            t["b"].to_numpy().astype(np.int64),
        ])
        un, cn = np.unique(both, return_counts=True)
        return pa.table({"i": pa.array(un),
                         "d": pa.array(cn.astype(np.int64))})

    dp = dedup.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
    if dp.empty:
        wedges = 0
    else:
        deg = dp.groupby("i")["d"].sum().to_numpy(dtype=np.int64)
        wedges = sum(int(d) * (int(d) - 1) // 2 for d in deg)
    p10 = 10.0 ** ndigits
    trans = (
        math.floor(3.0 * float(n_tri) / float(wedges) * p10 + 0.5) / p10
        if wedges > 0 else None
    )
    return pd.DataFrame({
        "n_nodes": [n_nodes], "n_edges": [n_edges],
        "n_wedges": [wedges], "n_triangles": [n_tri],
        "transitivity": [trans],
    })
