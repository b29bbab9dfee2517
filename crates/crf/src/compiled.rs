//! The compiled inference engine: indexed weights, a reusable inference
//! workspace, and sweep-exact delta-ICM.
//!
//! [`CrfModel`] keeps its weights in tuple-keyed hash maps — the right
//! shape for serialisation and for sparse updates, but the wrong shape
//! for the inference inner loop, where every score is a tuple-hash
//! lookup and every sweep reallocates candidate vectors. This module
//! freezes a model into an indexed, cache-friendly form:
//!
//! * **Packed weights** — `(path, lᵃ, lᵇ)` / `(path, l)` keys collapse to
//!   a `u64` per entry (`lᵃ << 32 | lᵇ`, resp. `l`), stored sorted in one
//!   flat array with a per-path offset index. A lookup is an O(1) offset
//!   fetch plus a binary search over that path's slice — no hashing, and
//!   the slice is contiguous in cache. Training uses the mutable sibling
//!   [`BucketWeights`] (per-path sorted buckets) so subgradient updates
//!   write back in O(bucket) instead of recompiling.
//! * **Packed candidates** — the `(path, other_label, side)` suggestion
//!   table compiles the same way, with suggestion lists materialised in
//!   one flat label array.
//! * **Workspace** — per-instance CSR adjacency, the candidate buffer and
//!   the label-dedup stamps live in a [`Workspace`] reused across
//!   `infer` calls; steady-state inference allocates nothing.
//! * **Delta-ICM** — after a node flips, only its factor-graph neighbours
//!   can change their best response, so sweeps re-score just the nodes
//!   marked dirty by a neighbour flip. The schedule still walks unknowns
//!   in the reference order and a clean node provably re-derives its
//!   current label, so the assignment trajectory — and therefore the
//!   trained model — is **bit-identical** to the reference sweeps
//!   (property-tested in `tests/prop_crf.rs`, pinned in
//!   `tests/golden_train.rs`).
//!
//! Candidate sets depend on the *current* labels of a node's neighbours,
//! so they cannot be frozen once per `infer` call without changing
//! results; instead the workspace materialises them into a reused buffer
//! with O(1) stamp dedup, eliminating the per-node-per-sweep allocation
//! and the O(k²) `contains` scan of the reference.

use crate::instance::Instance;
use crate::model::CrfModel;
use pigeon_telemetry as telemetry;
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    /// Per-thread inference scratch, so `CrfModel::predict(&self)` keeps
    /// its shared-reference signature (the serve path calls it from many
    /// threads) while still reusing buffers across calls.
    static TLS_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Packs a pairwise label pair into one orderable key.
#[inline]
pub(crate) fn pair_key(la: u32, lb: u32) -> u64 {
    (u64::from(la) << 32) | u64::from(lb)
}

/// A weight store the ICM engine can score against. Implemented by the
/// frozen [`PackedWeights`] pair (prediction) and by [`BucketWeights`]
/// (training, where updates interleave with inference).
pub(crate) trait WeightStore {
    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32;
    fn unary_w(&self, path: u32, l: u32) -> f32;
}

/// Frozen weights for one factor arity: sorted `u64` keys in a flat
/// array, indexed by a per-path offset table.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedWeights {
    /// `offsets[p]..offsets[p + 1]` is path `p`'s slice of `keys`.
    pub(crate) offsets: Vec<u32>,
    /// Sorted within each path's slice.
    pub(crate) keys: Vec<u64>,
    /// Parallel to `keys`.
    pub(crate) weights: Vec<f32>,
}

impl PackedWeights {
    /// Builds the packed form from `(path, key, weight)` triples.
    fn build(mut entries: Vec<(u32, u64, f32)>, num_paths: usize) -> Self {
        entries.sort_unstable_by_key(|&(p, k, _)| (p, k));
        let mut offsets = vec![0u32; num_paths + 1];
        for &(p, _, _) in &entries {
            offsets[p as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        PackedWeights {
            offsets,
            keys: entries.iter().map(|&(_, k, _)| k).collect(),
            weights: entries.iter().map(|&(_, _, w)| w).collect(),
        }
    }

    #[inline]
    fn get(&self, path: u32, key: u64) -> f32 {
        let p = path as usize;
        if p + 1 >= self.offsets.len() {
            return 0.0;
        }
        let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
        match self.keys[s..e].binary_search(&key) {
            Ok(i) => self.weights[s + i],
            Err(_) => 0.0,
        }
    }

    /// Visits every entry as `(path, key, weight)`, in packed (path,
    /// key-sorted) order — the artifact codec and frozen-aware audit
    /// accessors walk the CSR form through this.
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (u32, u64, f32)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |p| {
            let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            (s..e).map(move |i| (p as u32, self.keys[i], self.weights[i]))
        })
    }
}

/// The frozen pair of weight tables predictions score against.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenWeights {
    pub(crate) pair: PackedWeights,
    pub(crate) unary: PackedWeights,
}

impl WeightStore for FrozenWeights {
    #[inline]
    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32 {
        self.pair.get(path, pair_key(la, lb))
    }

    #[inline]
    fn unary_w(&self, path: u32, l: u32) -> f32 {
        self.unary.get(path, u64::from(l))
    }
}

/// Mutable indexed weights for the training loop: one sorted
/// `(key, weight)` bucket per path id. Lookups binary-search a small
/// contiguous bucket; subgradient write-back inserts in O(bucket size),
/// which stays cheap because features distribute across paths.
///
/// An entry, once inserted, is never removed even when its weight
/// returns to zero — matching the `entry().or_insert(0.0)` presence
/// semantics of the hash-map reference, which the epoch-averaging step
/// observes.
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketWeights {
    buckets: Vec<Vec<(u64, f32)>>,
}

impl BucketWeights {
    pub(crate) fn new(num_paths: usize) -> Self {
        BucketWeights {
            buckets: vec![Vec::new(); num_paths],
        }
    }

    #[inline]
    fn get(&self, path: u32, key: u64) -> f32 {
        match self.buckets.get(path as usize) {
            Some(b) => match b.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => b[i].1,
                Err(_) => 0.0,
            },
            None => 0.0,
        }
    }

    /// Adds `delta` to the entry, inserting it (at zero) first when
    /// absent — the indexed equivalent of `entry().or_insert(0.0) += d`.
    pub(crate) fn add(&mut self, path: u32, key: u64, delta: f32) {
        let p = path as usize;
        if p >= self.buckets.len() {
            self.buckets.resize(p + 1, Vec::new());
        }
        let b = &mut self.buckets[p];
        match b.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => b[i].1 += delta,
            Err(i) => b.insert(i, (key, delta)),
        }
    }

    /// Visits every entry as `(path, key, weight)`.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u32, u64, f32)) {
        for (p, b) in self.buckets.iter().enumerate() {
            for &(k, w) in b {
                f(p as u32, k, w);
            }
        }
    }
}

impl WeightStore for (BucketWeights, BucketWeights) {
    #[inline]
    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32 {
        self.0.get(path, pair_key(la, lb))
    }

    #[inline]
    fn unary_w(&self, path: u32, l: u32) -> f32 {
        self.1.get(path, u64::from(l))
    }
}

/// The compiled `(path, other_label, side)` → suggestions index: per-path
/// sorted entry slices pointing into one flat label array.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedCandidates {
    /// `offsets[p]..offsets[p + 1]` is path `p`'s slice of `entries`.
    pub(crate) offsets: Vec<u32>,
    /// `(other_label << 1 | side, start, len)`, sorted by key per path.
    pub(crate) entries: Vec<(u64, u32, u32)>,
    /// Suggested labels, in stored (frequency-ranked) order.
    pub(crate) labels: Vec<u32>,
}

/// The model's training-time candidate map: `(path, other_label, side)`
/// to frequency-ranked `(label, count)` suggestions.
type CandidateMap = HashMap<(u32, u32, u8), Vec<(u32, u32)>>;

/// One flattened candidate row: `(path, packed key, suggestions)`.
type CandidateRow<'a> = (u32, u64, &'a [(u32, u32)]);

impl PackedCandidates {
    fn build(map: &CandidateMap, num_paths: usize) -> Self {
        let mut rows: Vec<CandidateRow> = map
            .iter()
            .map(|(&(p, other, side), v)| {
                (p, (u64::from(other) << 1) | u64::from(side), v.as_slice())
            })
            .collect();
        rows.sort_unstable_by_key(|&(p, k, _)| (p, k));
        let mut offsets = vec![0u32; num_paths + 1];
        let mut entries = Vec::with_capacity(rows.len());
        let mut labels = Vec::new();
        for &(p, k, v) in &rows {
            offsets[p as usize + 1] += 1;
            entries.push((k, labels.len() as u32, v.len() as u32));
            labels.extend(v.iter().map(|&(l, _)| l));
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        PackedCandidates {
            offsets,
            entries,
            labels,
        }
    }

    #[inline]
    fn get(&self, path: u32, other_label: u32, side: u8) -> &[u32] {
        let p = path as usize;
        if p + 1 >= self.offsets.len() {
            return &[];
        }
        let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
        let key = (u64::from(other_label) << 1) | u64::from(side);
        match self.entries[s..e].binary_search_by_key(&key, |&(k, _, _)| k) {
            Ok(i) => {
                let (_, start, len) = self.entries[s + i];
                &self.labels[start as usize..(start + len) as usize]
            }
            Err(_) => &[],
        }
    }
}

/// Everything about a model that stays frozen during inference *and*
/// during training: the candidate index, the precomputed label prior,
/// the global fallback candidates and the inference caps.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineShared {
    pub(crate) cands: PackedCandidates,
    /// `prior[l]` for every label slot the engine can ever score.
    pub(crate) prior: Vec<f32>,
    pub(crate) global_candidates: Vec<u32>,
    pub(crate) max_candidates: usize,
    pub(crate) max_passes: usize,
    /// Upper bound (exclusive) on label ids the candidate tables can
    /// produce; sizes the workspace dedup stamps.
    pub(crate) num_label_slots: usize,
}

/// A [`CrfModel`] frozen into the indexed form. Built once by
/// [`CrfModel::compile`] (cached behind the model) and shared by every
/// prediction thread.
#[derive(Debug, Clone, Default)]
pub struct CompiledCrf {
    pub(crate) shared: EngineShared,
    pub(crate) weights: FrozenWeights,
}

/// Builds the frozen, training-invariant part of the engine from a
/// model's statistics tables.
pub(crate) fn compile_shared(model: &CrfModel) -> EngineShared {
    let num_paths = 1 + model
        .candidates
        .keys()
        .map(|&(p, _, _)| p as usize)
        .max()
        .unwrap_or(0);
    let cands = PackedCandidates::build(&model.candidates, num_paths);
    shared_from_parts(
        cands,
        &model.label_counts,
        model.global_candidates.clone(),
        model.max_candidates,
        model.max_passes,
    )
}

/// Assembles an [`EngineShared`] from already-packed candidate tables —
/// shared between [`compile_shared`] and the binary-artifact loader so
/// both derive the prior and label-slot bound identically (the artifact
/// round-trip tests assert byte-identical predictions across the two).
pub(crate) fn shared_from_parts(
    cands: PackedCandidates,
    label_counts: &[u32],
    global_candidates: Vec<u32>,
    max_candidates: usize,
    max_passes: usize,
) -> EngineShared {
    // Label slots must cover every id inference can touch: the counted
    // labels, every suggestion and every global candidate (hand-built
    // models may exceed the count table).
    let mut slots = label_counts.len();
    for l in cands.labels.iter().chain(&global_candidates) {
        slots = slots.max(*l as usize + 1);
    }
    // The reference prior: out-of-range labels count as frequency zero.
    let prior = (0..slots)
        .map(|l| {
            let c = label_counts.get(l).copied().unwrap_or(0);
            1e-3 * (1.0 + f32::ln(1.0 + c as f32))
        })
        .collect();
    EngineShared {
        cands,
        prior,
        global_candidates,
        max_candidates,
        max_passes,
        num_label_slots: slots,
    }
}

impl CrfModel {
    /// Freezes the model's hash-map tables into the indexed
    /// [`CompiledCrf`] the inference engine runs on.
    pub fn compile(&self) -> CompiledCrf {
        let num_paths = 1 + self
            .pair_weights
            .keys()
            .map(|&(p, _, _)| p as usize)
            .chain(self.unary_weights.keys().map(|&(p, _)| p as usize))
            .chain(self.candidates.keys().map(|&(p, _, _)| p as usize))
            .max()
            .unwrap_or(0);
        let pair = PackedWeights::build(
            self.pair_weights
                .iter()
                .map(|(&(p, la, lb), &w)| (p, pair_key(la, lb), w))
                .collect(),
            num_paths,
        );
        let unary = PackedWeights::build(
            self.unary_weights
                .iter()
                .map(|(&(p, l), &w)| (p, u64::from(l), w))
                .collect(),
            num_paths,
        );
        CompiledCrf {
            shared: compile_shared(self),
            weights: FrozenWeights { pair, unary },
        }
    }
}

/// Per-instance scratch reused across [`infer`] calls: CSR adjacency,
/// the working label vector, dirty flags, the candidate buffer and the
/// label-dedup stamps. One workspace serves any number of sequential
/// inferences; nothing is reallocated once the high-water marks are
/// reached.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    labels: Vec<u32>,
    unknowns: Vec<u32>,
    /// CSR over pairwise factors: node `i` touches factor indices
    /// `pair_adj[pair_off[i]..pair_off[i + 1]]`, in factor order.
    pair_off: Vec<u32>,
    pair_adj: Vec<u32>,
    unary_off: Vec<u32>,
    unary_adj: Vec<u32>,
    /// Scratch cursor reused by the CSR fill.
    cursor: Vec<u32>,
    dirty: Vec<bool>,
    cand: Vec<u32>,
    /// `seen[l] == stamp` ⇔ label `l` is already in `cand`.
    seen: Vec<u32>,
    stamp: u32,
}

impl Workspace {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Rebuilds the per-instance state (adjacency, label vector, unknown
    /// list) for `inst`, reusing buffers.
    fn prepare(&mut self, inst: &Instance, num_label_slots: usize) {
        let n = inst.nodes.len();
        self.labels.clear();
        self.labels.extend(inst.nodes.iter().map(|nd| nd.label));
        self.unknowns.clear();
        self.unknowns.extend(
            inst.nodes
                .iter()
                .enumerate()
                .filter(|(_, nd)| !nd.known)
                .map(|(i, _)| i as u32),
        );

        // Degree count → prefix sum → fill, preserving factor order per
        // node (the reference adjacency pushes factors in index order).
        self.pair_off.clear();
        self.pair_off.resize(n + 1, 0);
        for pf in &inst.pairwise {
            self.pair_off[pf.a + 1] += 1;
            self.pair_off[pf.b + 1] += 1;
        }
        for i in 1..=n {
            self.pair_off[i] += self.pair_off[i - 1];
        }
        self.pair_adj.clear();
        self.pair_adj.resize(self.pair_off[n] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.pair_off[..n]);
        for (f, pf) in inst.pairwise.iter().enumerate() {
            for end in [pf.a, pf.b] {
                self.pair_adj[self.cursor[end] as usize] = f as u32;
                self.cursor[end] += 1;
            }
        }

        self.unary_off.clear();
        self.unary_off.resize(n + 1, 0);
        for uf in &inst.unary {
            self.unary_off[uf.node + 1] += 1;
        }
        for i in 1..=n {
            self.unary_off[i] += self.unary_off[i - 1];
        }
        self.unary_adj.clear();
        self.unary_adj.resize(self.unary_off[n] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.unary_off[..n]);
        for (f, uf) in inst.unary.iter().enumerate() {
            self.unary_adj[self.cursor[uf.node] as usize] = f as u32;
            self.cursor[uf.node] += 1;
        }

        self.dirty.clear();
        self.dirty.resize(n, false);
        if self.seen.len() < num_label_slots {
            self.seen.resize(num_label_slots, 0);
        }
    }

    #[inline]
    fn pair_factors(&self, node: usize) -> &[u32] {
        &self.pair_adj[self.pair_off[node] as usize..self.pair_off[node + 1] as usize]
    }

    #[inline]
    fn unary_factors(&self, node: usize) -> &[u32] {
        &self.unary_adj[self.unary_off[node] as usize..self.unary_off[node + 1] as usize]
    }
}

/// Materialises `node`'s candidate set into `ws.cand`, in the reference
/// order: per-factor suggestions (factor order, suggestion rank order),
/// then global candidates, deduplicated and capped at `max_candidates`.
fn collect_candidates(shared: &EngineShared, inst: &Instance, ws: &mut Workspace, node: usize) {
    ws.cand.clear();
    ws.stamp = ws.stamp.wrapping_add(1);
    if ws.stamp == 0 {
        // Stamp wrapped: old stamps could alias, so reset them all once.
        ws.seen.iter_mut().for_each(|s| *s = 0);
        ws.stamp = 1;
    }
    let cap = shared.max_candidates;
    for i in ws.pair_off[node] as usize..ws.pair_off[node + 1] as usize {
        let pf = inst.pairwise[ws.pair_adj[i] as usize];
        let (other, side) = if pf.a == node {
            (pf.b, 0u8)
        } else {
            (pf.a, 1u8)
        };
        let other_label = ws.labels[other];
        for &l in shared.cands.get(pf.path, other_label, side) {
            let slot = &mut ws.seen[l as usize];
            if *slot != ws.stamp && ws.cand.len() < cap {
                *slot = ws.stamp;
                ws.cand.push(l);
            }
        }
    }
    for &l in &shared.global_candidates {
        let slot = &mut ws.seen[l as usize];
        if *slot != ws.stamp && ws.cand.len() < cap {
            *slot = ws.stamp;
            ws.cand.push(l);
        }
    }
}

/// The score of assigning `label` to `node` with every other node held
/// at `ws.labels` — accumulation order matches the reference bit-for-bit
/// (prior, pairwise factors in adjacency order, unary factors, margin).
#[inline]
#[allow(clippy::too_many_arguments)]
fn node_score<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    labels: &[u32],
    pair_factors: &[u32],
    unary_factors: &[u32],
    node: usize,
    label: u32,
    loss_augment: bool,
) -> f32 {
    let mut s = shared
        .prior
        .get(label as usize)
        .copied()
        .unwrap_or(1e-3 * 1.0);
    for &f in pair_factors {
        let pf = inst.pairwise[f as usize];
        s += if pf.a == node {
            weights.pair_w(pf.path, label, labels[pf.b])
        } else {
            weights.pair_w(pf.path, labels[pf.a], label)
        };
    }
    for &f in unary_factors {
        s += weights.unary_w(inst.unary[f as usize].path, label);
    }
    if loss_augment && label != inst.nodes[node].label {
        s += 1.0;
    }
    s
}

/// Best candidate for `node` against the current workspace labels; the
/// reference tie-break (first strict improvement wins) is preserved.
fn argmax<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    ws: &Workspace,
    node: usize,
    loss_augment: bool,
) -> u32 {
    let mut best = ws.labels[node];
    let mut best_score = f32::NEG_INFINITY;
    let pair_factors = ws.pair_factors(node);
    let unary_factors = ws.unary_factors(node);
    for &c in &ws.cand {
        let s = node_score(
            shared,
            weights,
            inst,
            &ws.labels,
            pair_factors,
            unary_factors,
            node,
            c,
            loss_augment,
        );
        if s > best_score {
            best_score = s;
            best = c;
        }
    }
    if ws.cand.is_empty() {
        best = shared.global_candidates.first().copied().unwrap_or(0);
    }
    best
}

/// MAP inference: the compiled rewrite of [`CrfModel::infer`], identical
/// in output. Initialisation (blank → evidence pass) matches the
/// reference; the sweeps run delta-ICM over the dirty set.
pub(crate) fn infer<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    loss_augment: bool,
    ws: &mut Workspace,
) -> Vec<u32> {
    ws.prepare(inst, shared.num_label_slots);

    // Blank out the unknowns: their stored labels are gold (or a caller
    // sentinel) and must never influence inference.
    let blank = shared.global_candidates.first().copied().unwrap_or(0);
    for i in 0..ws.unknowns.len() {
        ws.labels[ws.unknowns[i] as usize] = blank;
    }
    // Evidence pass, in node order (later unknowns see earlier picks).
    for i in 0..ws.unknowns.len() {
        let u = ws.unknowns[i] as usize;
        collect_candidates(shared, inst, ws, u);
        ws.labels[u] = argmax(shared, weights, inst, ws, u, loss_augment);
    }
    // Delta-ICM sweeps: every unknown starts dirty (the reference's
    // first sweep rescans everyone); afterwards only neighbours of a
    // flipped node can change their best response, so clean nodes are
    // skipped — provably without changing the trajectory, because a
    // node's score depends only on its neighbours' labels.
    for i in 0..ws.unknowns.len() {
        ws.dirty[ws.unknowns[i] as usize] = true;
    }
    // ICM work counters accumulate locally and post once per call: this
    // is the training/serving hot loop, and one atomic add per call (not
    // per node) keeps the instrumentation overhead unmeasurable.
    let mut sweeps = 0u64;
    let mut rescores = 0u64;
    let mut flips = 0u64;
    for _ in 0..shared.max_passes {
        sweeps += 1;
        let mut changed = false;
        for i in 0..ws.unknowns.len() {
            let u = ws.unknowns[i] as usize;
            if !ws.dirty[u] {
                continue;
            }
            ws.dirty[u] = false;
            rescores += 1;
            collect_candidates(shared, inst, ws, u);
            let best = argmax(shared, weights, inst, ws, u, loss_augment);
            if best != ws.labels[u] {
                ws.labels[u] = best;
                changed = true;
                flips += 1;
                for j in ws.pair_off[u] as usize..ws.pair_off[u + 1] as usize {
                    let pf = inst.pairwise[ws.pair_adj[j] as usize];
                    let v = if pf.a == u { pf.b } else { pf.a };
                    if !inst.nodes[v].known {
                        ws.dirty[v] = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    if telemetry::enabled() {
        telemetry::count("pigeon_icm_sweeps_total", sweeps);
        telemetry::count("pigeon_icm_rescores_total", rescores);
        telemetry::count("pigeon_icm_flips_total", flips);
    }
    ws.labels.clone()
}

impl CompiledCrf {
    /// MAP inference with an external workspace (the batch/training entry
    /// point: reuse one workspace across calls to amortise its buffers).
    pub fn infer_with(&self, inst: &Instance, ws: &mut Workspace) -> Vec<u32> {
        infer(&self.shared, &self.weights, inst, false, ws)
    }

    /// MAP inference on the calling thread's cached workspace.
    pub fn infer(&self, inst: &Instance) -> Vec<u32> {
        TLS_WORKSPACE.with(|ws| self.infer_with(inst, &mut ws.borrow_mut()))
    }

    /// Inference with an explicit loss-augmentation switch — the
    /// training path, surfaced for the equivalence property tests.
    pub(crate) fn infer_augmented(
        &self,
        inst: &Instance,
        loss_augment: bool,
        ws: &mut Workspace,
    ) -> Vec<u32> {
        infer(&self.shared, &self.weights, inst, loss_augment, ws)
    }

    /// MAP inference plus the top-`k` candidates of every unknown node,
    /// all scored against the one MAP assignment — the paper's top-k
    /// suggestion (§5.1), which holds every other node at *the* MAP
    /// labels. The second vector has one entry per unknown, in node
    /// order. Bit-identical to [`CrfModel::predict`] followed by
    /// [`CrfModel::top_k`] on each unknown, at the cost of one `infer`
    /// instead of one per unknown.
    pub fn predict_with_top_k(
        &self,
        inst: &Instance,
        k: usize,
    ) -> (Vec<u32>, Vec<Vec<(u32, f32)>>) {
        TLS_WORKSPACE.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            let labels = infer(&self.shared, &self.weights, inst, false, ws);
            let mut tops = Vec::with_capacity(ws.unknowns.len());
            for i in 0..ws.unknowns.len() {
                let u = ws.unknowns[i] as usize;
                tops.push(self.rank_candidates(inst, ws, u, k));
            }
            (labels, tops)
        })
    }

    /// The top-`k` candidates for `node` under the MAP assignment —
    /// the compiled equivalent of [`CrfModel::top_k`]. Runs a whole
    /// `infer` per call; production paths use
    /// [`CompiledCrf::predict_with_top_k`].
    pub(crate) fn top_k(&self, inst: &Instance, node: usize, k: usize) -> Vec<(u32, f32)> {
        TLS_WORKSPACE.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            infer(&self.shared, &self.weights, inst, false, ws);
            self.rank_candidates(inst, ws, node, k)
        })
    }

    /// Scores `node`'s candidates with every other node held at
    /// `ws.labels` and keeps the best `k`, ties broken by label id.
    /// Reads `ws.labels` only, so successive calls after one `infer` all
    /// see the same assignment.
    fn rank_candidates(
        &self,
        inst: &Instance,
        ws: &mut Workspace,
        node: usize,
        k: usize,
    ) -> Vec<(u32, f32)> {
        collect_candidates(&self.shared, inst, ws, node);
        let pair_factors = ws.pair_factors(node);
        let unary_factors = ws.unary_factors(node);
        let mut scored: Vec<(u32, f32)> = ws
            .cand
            .iter()
            .map(|&c| {
                (
                    c,
                    node_score(
                        &self.shared,
                        &self.weights,
                        inst,
                        &ws.labels,
                        pair_factors,
                        unary_factors,
                        node,
                        c,
                        false,
                    ),
                )
            })
            .collect();
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored.truncate(k);
        scored
    }
}
