//! CSR adjacency with insert overflow.
//!
//! Every relation in the store is a forward (and usually also reverse)
//! [`Adj`]: a compressed sparse row structure — `offsets[u]..offsets[u+1]`
//! slices a flat target array — so neighbour iteration is a contiguous
//! slice scan with no pointer chasing (choke points CP-3.2/3.3 reward
//! exactly this layout). Each edge can carry one `Copy` payload (e.g.
//! the `knows.creationDate`).
//!
//! The Interactive workload's inserts (IU 1–8) append into a sparse
//! per-source *overflow* map instead of rebuilding the CSR; neighbour
//! iteration chains base slice + overflow. [`Adj::compact`] merges the
//! overflow into fresh base arrays. Both it and the delete path go
//! through one walk, `Adj::rewrite`, which visits only the sources it is
//! given plus those with overflow and copies every stretch in between
//! as one slice.
//!
//! The base arrays are [`AppendVec`]s: a store version and the writer's
//! next version share them, and the offsets a vertex insert appends go
//! into the shared buffer in place.

use std::ops::Range;

use rustc_hash::FxHashMap;

use crate::append_vec::AppendVec;

/// CSR adjacency from `u32` dense source indices to `u32` dense target
/// indices, with a `Copy` payload per edge.
#[derive(Clone, Debug)]
pub struct Adj<P: Copy = ()> {
    offsets: AppendVec<u32>,
    targets: AppendVec<u32>,
    payloads: AppendVec<P>,
    overflow: FxHashMap<u32, Vec<(u32, P)>>,
    overflow_len: usize,
}

impl<P: Copy> Adj<P> {
    /// Builds the CSR from `(source, target, payload)` triples.
    /// `sources` is the number of source vertices; targets may be any
    /// `u32`. Edge order within a source follows the input order after a
    /// stable counting sort by source.
    pub fn from_edges(sources: usize, edges: &[(u32, u32, P)]) -> Self {
        if edges.is_empty() {
            return Adj {
                offsets: AppendVec::from_elem(0, sources + 1),
                targets: AppendVec::new(),
                payloads: AppendVec::new(),
                overflow: FxHashMap::default(),
                overflow_len: 0,
            };
        }
        let mut counts = vec![0u32; sources + 1];
        for &(s, _, _) in edges {
            debug_assert!((s as usize) < sources, "source {s} out of range {sources}");
            counts[s as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = AppendVec::from(&counts[..]);
        let mut cursor = counts;
        let mut targets = AppendVec::from_elem(0u32, edges.len());
        // Two passes: place each target and remember its slot, then
        // scatter the payloads into those slots (`P` has no default, so
        // the payload array starts as copies of the first payload).
        let mut slots = vec![0usize; edges.len()];
        let ts = &mut targets[..];
        for (i, &(s, t, _)) in edges.iter().enumerate() {
            let slot = cursor[s as usize] as usize;
            cursor[s as usize] += 1;
            ts[slot] = t;
            slots[i] = slot;
        }
        let mut payloads = AppendVec::from_elem(edges[0].2, edges.len());
        let ps = &mut payloads[..];
        for (i, &(_, _, p)) in edges.iter().enumerate() {
            ps[slots[i]] = p;
        }
        Adj { offsets, targets, payloads, overflow: FxHashMap::default(), overflow_len: 0 }
    }

    /// Number of source vertices.
    pub fn sources(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of edges, including overflow.
    pub fn edge_count(&self) -> usize {
        self.targets.len() + self.overflow_len
    }

    /// Degree of `u` (base + overflow).
    pub fn degree(&self, u: u32) -> usize {
        let base = (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize;
        base + self.overflow.get(&u).map_or(0, |v| v.len())
    }

    /// The base CSR slice for `u` (excludes overflow) as parallel
    /// target/payload slices.
    pub fn base(&self, u: u32) -> (&[u32], &[P]) {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        (&self.targets[lo..hi], &self.payloads[lo..hi])
    }

    /// Iterates `(target, payload)` for `u`, overflow included.
    pub fn neighbors(&self, u: u32) -> impl Iterator<Item = (u32, P)> + '_ {
        let (t, p) = self.base(u);
        t.iter()
            .copied()
            .zip(p.iter().copied())
            .chain(self.overflow.get(&u).into_iter().flatten().copied())
    }

    /// Every edge as `(source, target, payload)`: the base arrays in
    /// source order, then the overflow in no particular order — for
    /// checks that look at the edge multiset, not at per-source order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (u32, u32, P)> + '_ {
        let base = (0..self.sources()).flat_map(move |u| {
            let range = self.offsets[u] as usize..self.offsets[u + 1] as usize;
            range.map(move |i| (u as u32, self.targets[i], self.payloads[i]))
        });
        let overflow =
            self.overflow.iter().flat_map(|(&u, extra)| extra.iter().map(move |&(t, p)| (u, t, p)));
        base.chain(overflow)
    }

    /// Iterates targets only.
    pub fn targets_of(&self, u: u32) -> impl Iterator<Item = u32> + '_ {
        self.neighbors(u).map(|(t, _)| t)
    }

    /// Whether an edge `u -> v` exists.
    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.targets_of(u).any(|t| t == v)
    }

    /// Appends an edge without rebuilding (IU insert path). New sources
    /// beyond the original count are accommodated transparently.
    pub fn insert(&mut self, u: u32, v: u32, payload: P) {
        while (u as usize) >= self.sources() {
            let last = *self.offsets.last().expect("offsets non-empty");
            self.offsets.push(last);
        }
        self.overflow.entry(u).or_default().push((v, payload));
        self.overflow_len += 1;
    }

    /// Whether any edges live in the insert overflow (i.e. the CSR
    /// arrays alone do not describe the full adjacency).
    pub fn has_overflow(&self) -> bool {
        self.overflow_len > 0
    }

    /// The raw CSR arrays `(offsets, targets, payloads)` — what the
    /// on-disk store image serialises. Callers must [`Adj::compact`]
    /// first; overflow edges are not visible through these slices.
    ///
    /// # Panics
    /// If overflow edges exist.
    pub fn csr_parts(&self) -> (&[u32], &[u32], &[P]) {
        assert!(self.overflow.is_empty(), "csr_parts on an adjacency with overflow; compact first");
        (&self.offsets, &self.targets, &self.payloads)
    }

    /// Rebuilds an adjacency from raw CSR arrays (the store-image load
    /// path). `offsets` must be monotonic with `offsets[0] == 0` and
    /// `targets`/`payloads` must both match its final value.
    pub fn from_csr_parts(
        offsets: AppendVec<u32>,
        targets: AppendVec<u32>,
        payloads: AppendVec<P>,
    ) -> Self {
        assert!(!offsets.is_empty() && offsets[0] == 0, "offsets must start at 0");
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be monotonic");
        assert_eq!(*offsets.last().expect("non-empty") as usize, targets.len());
        assert_eq!(targets.len(), payloads.len());
        Adj { offsets, targets, payloads, overflow: FxHashMap::default(), overflow_len: 0 }
    }

    /// Whether two adjacencies share all three base arrays — the
    /// observable property the sharing tests assert on.
    #[cfg(test)]
    pub(crate) fn shares_base(a: &Adj<P>, b: &Adj<P>) -> bool {
        AppendVec::ptr_eq(&a.offsets, &b.offsets)
            && AppendVec::ptr_eq(&a.targets, &b.targets)
            && AppendVec::ptr_eq(&a.payloads, &b.payloads)
    }

    /// Ensures at least `n` source vertices exist (for vertex inserts
    /// that start with zero edges).
    pub fn grow_sources(&mut self, n: usize) {
        while self.sources() < n {
            let last = *self.offsets.last().expect("offsets non-empty");
            self.offsets.push(last);
        }
    }

    /// Rewrites the adjacency into fresh CSR arrays, visiting only the
    /// `listed` sources (ascending, each once) and the sources holding
    /// overflow. `source` says what happens to a listed source's edges
    /// ([`Rewrite`]); dropped sources vanish and the survivors renumber to
    /// `0, 1, 2, …` in order. An unlisted source keeps its base slice,
    /// then its overflow. The untouched sources between two visited ones
    /// are copied as one slice, so a rewrite costs O(listed sources +
    /// overflow + one slice copy per stretch) — the delete path's
    /// filter-and-remap and the overflow fold, with no edge list
    /// collected and no sort. Per-source order is preserved (base slice,
    /// then overflow) and the result has no overflow.
    pub(crate) fn rewrite(
        &self,
        listed: impl IntoIterator<Item = u32>,
        mut source: impl FnMut(u32) -> Rewrite,
        mut edge: impl FnMut(u32, u32, P) -> Option<u32>,
    ) -> Adj<P> {
        let mut out = Adj {
            offsets: AppendVec::with_capacity(self.offsets.len()),
            targets: AppendVec::with_capacity(self.edge_count()),
            payloads: AppendVec::with_capacity(self.edge_count()),
            overflow: FxHashMap::default(),
            overflow_len: 0,
        };
        out.offsets.push(0);
        // The overflow lists in ascending source order, merged with the
        // listed sources without a hash probe per source.
        let mut lists: Vec<(u32, &[(u32, P)])> =
            self.overflow.iter().map(|(&u, extra)| (u, &extra[..])).collect();
        lists.sort_unstable_by_key(|&(u, _)| u);
        let mut overflow = lists.into_iter().peekable();
        let mut listed = listed.into_iter().peekable();
        // Sources `run..u` are untouched: their base runs are copied as
        // one slice when the stretch ends.
        let mut run = 0;
        loop {
            let u = match (listed.peek(), overflow.peek()) {
                (Some(&l), Some(&(o, _))) => l.min(o),
                (Some(&l), None) => l,
                (None, Some(&(o, _))) => o,
                (None, None) => break,
            };
            debug_assert!(u >= run && (u as usize) < self.sources(), "source {u} out of order");
            let extra = overflow.next_if(|&(v, _)| v == u).map_or(&[][..], |(_, extra)| extra);
            if listed.next_if_eq(&u).is_none() {
                self.copy_base(run..u + 1, &mut out);
                out.targets.extend(extra.iter().map(|&(t, _)| t));
                out.payloads.extend(extra.iter().map(|&(_, p)| p));
                *out.offsets.last_mut().expect("offsets non-empty") += extra.len() as u32;
            } else {
                self.copy_base(run..u, &mut out);
                if source(u) == Rewrite::Filter {
                    let (ts, ps) = self.base(u);
                    let mut keep = |t: u32, p: P| {
                        if let Some(t) = edge(u, t, p) {
                            out.targets.push(t);
                            out.payloads.push(p);
                        }
                    };
                    ts.iter().zip(ps).for_each(|(&t, &p)| keep(t, p));
                    extra.iter().for_each(|&(t, p)| keep(t, p));
                    out.offsets.push(out.targets.len() as u32);
                }
            }
            run = u + 1;
        }
        self.copy_base(run..self.sources() as u32, &mut out);
        out
    }

    /// Appends the base edges of sources `range` to `out` as one slice,
    /// with their offsets shifted to where they land.
    fn copy_base(&self, range: Range<u32>, out: &mut Adj<P>) {
        if range.is_empty() {
            return;
        }
        let (lo, hi) = (self.offsets[range.start as usize], self.offsets[range.end as usize]);
        let shift = out.targets.len() as u32;
        out.offsets.extend(
            self.offsets[range.start as usize + 1..=range.end as usize]
                .iter()
                .map(|&o| o - lo + shift),
        );
        out.targets.extend_from_slice(&self.targets[lo as usize..hi as usize]);
        out.payloads.extend_from_slice(&self.payloads[lo as usize..hi as usize]);
    }

    /// The adjacency with its overflow merged into fresh base arrays
    /// (base slice, then overflow, per source): `rewrite` listing no
    /// source.
    #[must_use]
    pub fn compact(&self) -> Adj<P> {
        self.rewrite([], |_| unreachable!("compact lists no source"), |_, t, _| Some(t))
    }
}

/// What [`Adj::rewrite`] does with one listed source's edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rewrite {
    /// Drop the source and all its edges.
    Drop,
    /// Pass each edge through the `edge` callback.
    Filter,
}

impl<P: Copy> Default for Adj<P> {
    fn default() -> Self {
        Adj::from_edges(0, &[])
    }
}

/// Builds forward and reverse adjacency from the same edge list.
pub fn forward_reverse<P: Copy>(
    sources: usize,
    targets: usize,
    edges: &[(u32, u32, P)],
) -> (Adj<P>, Adj<P>) {
    let fwd = Adj::from_edges(sources, edges);
    let rev_edges: Vec<(u32, u32, P)> = edges.iter().map(|&(s, t, p)| (t, s, p)).collect();
    let rev = Adj::from_edges(targets, &rev_edges);
    (fwd, rev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_iterates() {
        let edges = [(0u32, 1u32, 10i32), (0, 2, 20), (2, 0, 30), (1, 2, 40)];
        let adj = Adj::from_edges(3, &edges);
        assert_eq!(adj.sources(), 3);
        assert_eq!(adj.edge_count(), 4);
        let n0: Vec<_> = adj.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 10), (2, 20)]);
        assert_eq!(adj.degree(1), 1);
        assert!(adj.contains(2, 0));
        assert!(!adj.contains(2, 1));
    }

    #[test]
    fn empty_adjacency() {
        let adj: Adj<()> = Adj::from_edges(5, &[]);
        assert_eq!(adj.sources(), 5);
        assert_eq!(adj.edge_count(), 0);
        assert_eq!(adj.neighbors(3).count(), 0);
    }

    #[test]
    fn insert_then_iterate_and_compact() {
        let mut adj = Adj::from_edges(2, &[(0u32, 1u32, ())]);
        adj.insert(1, 0, ());
        adj.insert(0, 3, ());
        assert_eq!(adj.edge_count(), 3);
        assert_eq!(adj.targets_of(0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(adj.targets_of(1).collect::<Vec<_>>(), vec![0]);
        let adj = adj.compact();
        assert!(!adj.has_overflow());
        assert_eq!(adj.edge_count(), 3);
        assert_eq!(adj.targets_of(0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(adj.targets_of(1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn rewrite_drops_and_renumbers_in_one_pass() {
        let mut adj = Adj::from_edges(3, &[(0u32, 1u32, 10u8), (0, 2, 20), (1, 0, 30), (2, 2, 40)]);
        adj.insert(0, 0, 50);
        adj.insert(2, 1, 60);
        // Vertex 1 goes (as a source and as a target); 2 renumbers to 1.
        let map = [Some(0), None, Some(1)];
        let mode = |u: u32| if map[u as usize].is_some() { Rewrite::Filter } else { Rewrite::Drop };
        let out = adj.rewrite(0..3, mode, |_, t, _| map[t as usize]);
        assert!(!out.has_overflow());
        assert_eq!(out.sources(), 2);
        // Base first, then overflow, with the survivors renumbered.
        assert_eq!(out.neighbors(0).collect::<Vec<_>>(), vec![(1, 20), (0, 50)]);
        assert_eq!(out.neighbors(1).collect::<Vec<_>>(), vec![(1, 40)]);
        assert_eq!(out.edge_count(), 3);
    }

    /// A seeded model test of the walk: random base edges and overflow,
    /// random listed sources answering `Drop` or `Filter`, and a random
    /// target map, against `from_edges` of the edge list filtered source
    /// by source. `source` runs once per listed source, in order, and
    /// `edge` once per edge of a filtered source.
    #[test]
    fn rewrite_mixes_kept_filtered_and_dropped_sources() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for round in 0..400u64 {
            let sources = 1 + next(40) as u32;
            let edges: Vec<(u32, u32, u32)> = (0..next(120))
                .map(|i| (next(u64::from(sources)) as u32, next(50) as u32, i as u32))
                .collect();
            let mut adj = Adj::from_edges(sources as usize, &edges);
            for i in 0..next(30) {
                // Some overflow lands on sources the inserts create.
                let u = next(u64::from(sources) + 4) as u32;
                adj.insert(u, next(50) as u32, 1000 + i as u32);
            }
            let map: Vec<Option<u32>> =
                (0..50).map(|_| (next(3) > 0).then(|| next(100) as u32)).collect();
            let modes: Vec<Option<Rewrite>> = (0..adj.sources())
                .map(|_| match (round % 5, next(6)) {
                    (0, _) | (_, 0) => Some(Rewrite::Filter),
                    (1, _) => None,
                    (_, 1) => Some(Rewrite::Drop),
                    _ => None,
                })
                .collect();
            let listed: Vec<u32> =
                (0..adj.sources() as u32).filter(|&u| modes[u as usize].is_some()).collect();

            let (mut asked, mut edge_calls) = (Vec::new(), 0);
            let out = adj.rewrite(
                listed.iter().copied(),
                |u| {
                    asked.push(u);
                    modes[u as usize].expect("only listed sources are asked")
                },
                |u, t, _| {
                    assert_eq!(modes[u as usize], Some(Rewrite::Filter), "edge of source {u}");
                    edge_calls += 1;
                    map[t as usize]
                },
            );

            let mut want = Vec::new();
            let mut kept = 0;
            let mut filtered_edges = 0;
            for u in 0..adj.sources() as u32 {
                match modes[u as usize] {
                    Some(Rewrite::Drop) => continue,
                    Some(Rewrite::Filter) => {
                        filtered_edges += adj.degree(u);
                        want.extend(
                            adj.neighbors(u).filter_map(|(t, p)| Some((kept, map[t as usize]?, p))),
                        );
                    }
                    None => want.extend(adj.neighbors(u).map(|(t, p)| (kept, t, p))),
                }
                kept += 1;
            }
            let want = Adj::from_edges(kept as usize, &want);
            assert!(!out.has_overflow());
            assert_eq!(out.csr_parts(), want.csr_parts(), "round {round}");
            assert_eq!(asked, listed, "round {round}");
            assert_eq!(edge_calls, filtered_edges, "round {round}");
        }
    }

    #[test]
    fn insert_grows_sources() {
        let mut adj: Adj<()> = Adj::from_edges(1, &[]);
        adj.insert(4, 0, ());
        assert!(adj.sources() >= 5);
        assert_eq!(adj.targets_of(4).collect::<Vec<_>>(), vec![0]);
        assert_eq!(adj.targets_of(2).count(), 0);
        adj.grow_sources(10);
        assert_eq!(adj.sources(), 10);
    }

    #[test]
    fn forward_reverse_mirror() {
        let edges = [(0u32, 5u32, 1u8), (1, 5, 2), (2, 6, 3)];
        let (fwd, rev) = forward_reverse(3, 7, &edges);
        assert_eq!(fwd.targets_of(1).collect::<Vec<_>>(), vec![5]);
        let mut likers: Vec<_> = rev.neighbors(5).collect();
        likers.sort_unstable();
        assert_eq!(likers, vec![(0, 1), (1, 2)]);
        assert_eq!(rev.targets_of(6).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn stable_order_within_source() {
        // Input order must be preserved per source (queries rely on
        // deterministic iteration for reproducibility).
        let edges: Vec<(u32, u32, u32)> = (0..100).map(|i| (i % 3, i, i)).collect();
        let adj = Adj::from_edges(3, &edges);
        for s in 0..3u32 {
            let ts: Vec<u32> = adj.targets_of(s).collect();
            let mut expect: Vec<u32> = (0..100).filter(|i| i % 3 == s).collect();
            expect.sort_by_key(|&t| edges.iter().position(|&(es, et, _)| es == s && et == t));
            assert_eq!(ts, expect);
        }
    }
}
