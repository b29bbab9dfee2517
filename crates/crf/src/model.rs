//! The weight store, MAP inference, and top-k suggestion.

use crate::compiled::CompiledCrf;
use crate::instance::{Instance, NodeAdjacency};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One borrowed candidate-table entry:
/// `((path, other_label, side), suggestions)` — see
/// [`CrfModel::candidate_entries`].
pub type CandidateEntryRef<'a> = ((u32, u32, u8), &'a [(u32, u32)]);

/// Upper bound on `max_candidates` accepted from any serialised model
/// (JSON or binary artifact). Trained models sit around a few dozen;
/// anything near this bound is a corrupted or hostile file, and
/// rejecting it at load time keeps a flipped length field from driving
/// pathological candidate buffers downstream.
pub const MAX_CANDIDATES_BOUND: usize = 1 << 20;

/// Upper bound on `max_passes` accepted from any serialised model —
/// same rationale as [`MAX_CANDIDATES_BOUND`], but for sweep count
/// (CPU) rather than buffer size.
pub const MAX_PASSES_BOUND: usize = 1 << 20;

/// One failed [`CrfModel::validate`] check: a stable machine-readable
/// code (reused verbatim as the `pigeon audit` diagnostic code) plus a
/// human-readable message naming the first offending entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIssue {
    /// Stable code: `model-id-range`, `model-nonfinite-weight`,
    /// `model-empty-candidates` or `model-caps`.
    pub code: &'static str,
    /// Human-readable description naming the first offender found.
    pub message: String,
}

impl ModelIssue {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ModelIssue {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ModelIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.code)
    }
}

/// Feature weights and label statistics of a trained CRF.
///
/// Scores are linear: the score of a joint assignment `y` is
/// `Σ w[(path, y_a, y_b)]` over pairwise factors plus
/// `Σ w[(path, y_a)]` over unary factors — Eq. 1 of the paper in log
/// space, restricted to MAP queries (the partition function is never
/// needed for prediction, matching Nice2Predict).
#[derive(Debug, Default)]
pub struct CrfModel {
    /// Pairwise feature weights keyed by `(path, label_a, label_b)`.
    pub(crate) pair_weights: HashMap<(u32, u32, u32), f32>,
    /// Unary feature weights keyed by `(path, label)`.
    pub(crate) unary_weights: HashMap<(u32, u32), f32>,
    /// Training-corpus frequency of each label (smoothing prior and
    /// global candidate source).
    pub(crate) label_counts: Vec<u32>,
    /// Candidate suggestions: `(path, other_label, side)` observed with
    /// each gold label. `side` is 0 when the unknown is the factor's
    /// `a` end, 1 when it is the `b` end.
    pub(crate) candidates: HashMap<(u32, u32, u8), Vec<(u32, u32)>>,
    /// Global fallback candidates (most frequent labels, descending).
    pub(crate) global_candidates: Vec<u32>,
    /// Maximum candidates considered per node during inference.
    pub(crate) max_candidates: usize,
    /// ICM sweeps per inference call.
    pub(crate) max_passes: usize,
    /// Lazily built compiled form of the model (see [`crate::compiled`]):
    /// indexed weights and candidate tables that every `predict` runs on.
    /// Built on first use; prediction threads share the one instance.
    /// Invariant: the hash-map tables above are never mutated after the
    /// cache is populated (the crate only mutates them during training
    /// and deserialisation, both of which build fresh models).
    pub(crate) compiled: OnceLock<CompiledCrf>,
    /// A compiled engine loaded directly from a binary artifact (see
    /// [`crate::artifact`]). When set, the hash-map tables above hold no
    /// weights — the artifact ships only the CSR form — and every
    /// prediction runs on this engine. `Arc` so clones share it: unlike
    /// the lazily derived cache, it cannot be re-derived from the (empty)
    /// tables.
    pub(crate) frozen: Option<Arc<CompiledCrf>>,
}

impl Clone for CrfModel {
    fn clone(&self) -> Self {
        // The compiled cache is intentionally dropped: re-deriving it on
        // first use is cheap and can never go stale against the clone's
        // own tables. The artifact-backed engine, by contrast, *is* the
        // weight store, so clones share it.
        CrfModel {
            pair_weights: self.pair_weights.clone(),
            unary_weights: self.unary_weights.clone(),
            label_counts: self.label_counts.clone(),
            candidates: self.candidates.clone(),
            global_candidates: self.global_candidates.clone(),
            max_candidates: self.max_candidates,
            max_passes: self.max_passes,
            compiled: OnceLock::new(),
            frozen: self.frozen.clone(),
        }
    }
}

impl CrfModel {
    /// The compiled engine for this model: the artifact-loaded engine
    /// when this model came from a binary artifact, otherwise built on
    /// first use from the hash-map tables.
    pub(crate) fn compiled(&self) -> &CompiledCrf {
        if let Some(frozen) = &self.frozen {
            return frozen;
        }
        self.compiled.get_or_init(|| self.compile())
    }

    /// Whether this model was loaded from a compiled binary artifact and
    /// therefore carries only the CSR engine, not the editable hash-map
    /// tables (JSON re-serialisation is impossible for such a model).
    pub fn is_artifact_backed(&self) -> bool {
        self.frozen.is_some()
    }

    /// Number of distinct pairwise features with non-zero weight.
    pub fn num_pair_features(&self) -> usize {
        match &self.frozen {
            Some(f) => f.weights.pair.keys.len(),
            None => self.pair_weights.len(),
        }
    }

    /// Checks that a deserialised model is safe to run inference on:
    /// every feature and label id fits the given vocabulary sizes (so
    /// `predict` can never index past the vocabularies the model shipped
    /// with), every weight is finite (a single `inf` poisons every score
    /// it touches), no candidate entry carries an empty suggestion list,
    /// and the inference caps are sane.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelIssue`] found; its `code` names the
    /// failure shape and its message the first offending entry.
    pub fn validate(&self, num_features: usize, num_labels: usize) -> Result<(), ModelIssue> {
        let nf = num_features as u32;
        let nl = num_labels as u32;
        let feature = |what: &str, id: u32| {
            (id < nf).then_some(()).ok_or_else(|| {
                ModelIssue::new(
                    "model-id-range",
                    format!(
                        "{what} references feature id {id}, but the feature vocabulary \
                         has {num_features} entries"
                    ),
                )
            })
        };
        let label = |what: &str, id: u32| {
            (id < nl).then_some(()).ok_or_else(|| {
                ModelIssue::new(
                    "model-id-range",
                    format!(
                        "{what} references label id {id}, but the label vocabulary \
                         has {num_labels} entries"
                    ),
                )
            })
        };
        let finite = |what: &str, key: String, w: f32| {
            w.is_finite().then_some(()).ok_or_else(|| {
                ModelIssue::new(
                    "model-nonfinite-weight",
                    format!("{what} {key} carries non-finite weight {w}"),
                )
            })
        };
        if self.label_counts.len() != num_labels {
            return Err(ModelIssue::new(
                "model-id-range",
                format!(
                    "label-count table has {} entries, but the label vocabulary \
                     has {num_labels}",
                    self.label_counts.len()
                ),
            ));
        }
        if self.max_candidates > MAX_CANDIDATES_BOUND {
            return Err(ModelIssue::new(
                "model-caps",
                format!(
                    "max_candidates is {}, above the bound of {MAX_CANDIDATES_BOUND}",
                    self.max_candidates
                ),
            ));
        }
        if self.max_passes > MAX_PASSES_BOUND {
            return Err(ModelIssue::new(
                "model-caps",
                format!(
                    "max_passes is {}, above the bound of {MAX_PASSES_BOUND}",
                    self.max_passes
                ),
            ));
        }
        for (&(path, la, lb), &w) in &self.pair_weights {
            feature("pairwise weight", path)?;
            label("pairwise weight", la)?;
            label("pairwise weight", lb)?;
            finite(
                "pairwise weight",
                format!("(path {path}, labels {la}/{lb})"),
                w,
            )?;
        }
        for (&(path, l), &w) in &self.unary_weights {
            feature("unary weight", path)?;
            label("unary weight", l)?;
            finite("unary weight", format!("(path {path}, label {l})"), w)?;
        }
        for (&(path, other, side), suggested) in &self.candidates {
            feature("candidate table", path)?;
            label("candidate table", other)?;
            if suggested.is_empty() {
                return Err(ModelIssue::new(
                    "model-empty-candidates",
                    format!(
                        "candidate entry (path {path}, label {other}, side {side}) \
                         carries no suggestions"
                    ),
                ));
            }
            for &(l, _) in suggested {
                label("candidate suggestion", l)?;
            }
        }
        for &l in &self.global_candidates {
            label("global candidate list", l)?;
        }
        Ok(())
    }

    /// Number of distinct unary features with non-zero weight.
    pub fn num_unary_features(&self) -> usize {
        match &self.frozen {
            Some(f) => f.weights.unary.keys.len(),
            None => self.unary_weights.len(),
        }
    }

    /// Read-only view of every pairwise weight as
    /// `(path, label_a, label_b, weight)` — hash-map order for trained
    /// or JSON-loaded models, packed (sorted) order for artifact-backed
    /// ones. For audit tooling; iteration never builds the compiled
    /// cache.
    pub fn pair_weight_entries(&self) -> impl Iterator<Item = (u32, u32, u32, f32)> + '_ {
        let from_map = self
            .pair_weights
            .iter()
            .map(|(&(p, a, b), &w)| (p, a, b, w));
        // Exactly one of the two sources is populated: artifact-backed
        // models keep their hash maps empty.
        let from_frozen = self
            .frozen
            .as_deref()
            .into_iter()
            .flat_map(|f| f.weights.pair.iter_entries())
            .map(|(p, key, w)| (p, (key >> 32) as u32, key as u32, w));
        from_map.chain(from_frozen)
    }

    /// Read-only view of every unary weight as `(path, label, weight)`;
    /// same ordering contract as [`CrfModel::pair_weight_entries`].
    pub fn unary_weight_entries(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        let from_map = self.unary_weights.iter().map(|(&(p, l), &w)| (p, l, w));
        let from_frozen = self
            .frozen
            .as_deref()
            .into_iter()
            .flat_map(|f| f.weights.unary.iter_entries())
            .map(|(p, key, w)| (p, key as u32, w));
        from_map.chain(from_frozen)
    }

    /// The per-label training-frequency table (indexed by label id).
    pub fn label_count_table(&self) -> &[u32] {
        &self.label_counts
    }

    /// Read-only view of the candidate tables: each entry is
    /// `((path, other_label, side), suggestions)` where suggestions are
    /// `(label, co-occurrence count)` pairs.
    pub fn candidate_entries(&self) -> impl Iterator<Item = CandidateEntryRef<'_>> {
        self.candidates.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// The global fallback candidate labels, most frequent first.
    pub fn global_candidate_labels(&self) -> &[u32] {
        &self.global_candidates
    }

    /// Maximum candidates considered per node during inference.
    pub fn max_candidates(&self) -> usize {
        self.max_candidates
    }

    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32 {
        self.pair_weights
            .get(&(path, la, lb))
            .copied()
            .unwrap_or(0.0)
    }

    fn unary_w(&self, path: u32, l: u32) -> f32 {
        self.unary_weights.get(&(path, l)).copied().unwrap_or(0.0)
    }

    /// A small tie-break prior favouring frequent labels.
    fn prior(&self, label: u32) -> f32 {
        let c = self.label_counts.get(label as usize).copied().unwrap_or(0);
        1e-3 * (1.0 + f32::ln(1.0 + c as f32))
    }

    /// The candidate label set for one unknown node: per-factor
    /// suggestions from training co-occurrence, then global frequent
    /// labels, capped at `max_candidates`.
    pub(crate) fn node_candidates(
        &self,
        inst: &Instance,
        adj: &[NodeAdjacency],
        labels: &[u32],
        node: usize,
    ) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        let push = |l: u32, out: &mut Vec<u32>| {
            if !out.contains(&l) && out.len() < self.max_candidates {
                out.push(l);
            }
        };
        for &f in &adj[node].pairwise {
            let pf = inst.pairwise[f];
            let (other, side) = if pf.a == node {
                (pf.b, 0u8)
            } else {
                (pf.a, 1u8)
            };
            let other_label = labels[other];
            if let Some(suggested) = self.candidates.get(&(pf.path, other_label, side)) {
                for &(l, _) in suggested {
                    push(l, &mut out);
                }
            }
        }
        for &l in &self.global_candidates {
            push(l, &mut out);
        }
        out
    }

    /// The score of assigning `label` to `node` with every other node
    /// held at `labels`. `loss_augment` adds a unit margin against the
    /// gold label (loss-augmented inference for max-margin training).
    pub(crate) fn node_score(
        &self,
        inst: &Instance,
        adj: &[NodeAdjacency],
        labels: &[u32],
        node: usize,
        label: u32,
        loss_augment: bool,
    ) -> f32 {
        let mut s = self.prior(label);
        for &f in &adj[node].pairwise {
            let pf = inst.pairwise[f];
            s += if pf.a == node {
                self.pair_w(pf.path, label, labels[pf.b])
            } else {
                self.pair_w(pf.path, labels[pf.a], label)
            };
        }
        for &f in &adj[node].unary {
            s += self.unary_w(inst.unary[f].path, label);
        }
        if loss_augment && label != inst.nodes[node].label {
            s += 1.0;
        }
        s
    }

    /// MAP inference by iterated conditional modes over the candidate
    /// sets: initialise each unknown to its best unary+prior candidate,
    /// then sweep until a fixpoint (or the sweep limit).
    ///
    /// Runs on the compiled engine (see [`crate::compiled`]); the result
    /// is bit-identical to the hash-map reference implementation, which
    /// [`CrfModel::predict_reference`] retains for the equivalence
    /// property tests.
    ///
    /// Returns the full label vector; known nodes keep their labels.
    pub fn predict(&self, inst: &Instance) -> Vec<u32> {
        self.compiled().infer(inst)
    }

    /// The pre-compilation hash-map inference path, kept as the oracle
    /// the compiled engine is property-tested against. Not for
    /// production use: it rebuilds adjacency and candidate vectors on
    /// every call.
    #[doc(hidden)]
    pub fn predict_reference(&self, inst: &Instance) -> Vec<u32> {
        self.infer_reference(inst, false)
    }

    /// Loss-augmented inference on the compiled engine — exposed so the
    /// equivalence property tests can drive the exact code path training
    /// runs.
    #[doc(hidden)]
    pub fn infer_compiled(&self, inst: &Instance, loss_augment: bool) -> Vec<u32> {
        let mut ws = crate::compiled::Workspace::new();
        self.compiled().infer_augmented(inst, loss_augment, &mut ws)
    }

    /// Reference loss-augmented inference — the oracle for the training
    /// path's equivalence tests.
    #[doc(hidden)]
    pub fn infer_reference(&self, inst: &Instance, loss_augment: bool) -> Vec<u32> {
        let adj = inst.adjacency();
        let mut labels: Vec<u32> = inst.nodes.iter().map(|n| n.label).collect();
        let unknowns = inst.unknown_nodes();

        // Blank out the unknowns first: their stored labels are gold (or a
        // caller sentinel) and must never influence inference.
        let blank = self.global_candidates.first().copied().unwrap_or(0);
        for &u in &unknowns {
            labels[u] = blank;
        }
        // Initialise unknowns ignoring each other: evidence-only pass.
        for &u in &unknowns {
            let cands = self.node_candidates(inst, &adj, &labels, u);
            labels[u] = self.argmax(inst, &adj, &labels, u, &cands, loss_augment);
        }
        // ICM sweeps.
        for _ in 0..self.max_passes {
            let mut changed = false;
            for &u in &unknowns {
                let cands = self.node_candidates(inst, &adj, &labels, u);
                let best = self.argmax(inst, &adj, &labels, u, &cands, loss_augment);
                if best != labels[u] {
                    labels[u] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        labels
    }

    fn argmax(
        &self,
        inst: &Instance,
        adj: &[NodeAdjacency],
        labels: &[u32],
        node: usize,
        candidates: &[u32],
        loss_augment: bool,
    ) -> u32 {
        let mut best = labels[node];
        let mut best_score = f32::NEG_INFINITY;
        for &c in candidates {
            let s = self.node_score(inst, adj, labels, node, c, loss_augment);
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
        if candidates.is_empty() {
            // No evidence at all: the most frequent training label.
            best = self.global_candidates.first().copied().unwrap_or(0);
        }
        best
    }

    /// MAP inference plus the top-`k` candidate labels of every unknown
    /// node, each scored with all other nodes fixed at the MAP
    /// assignment — the paper's added "top-k candidates suggestion" API
    /// (§5.1). Returns the full label vector (as [`CrfModel::predict`])
    /// and one ranked `(label, score)` list per unknown, in node order.
    ///
    /// One MAP run serves every node, so the cost is one inference plus
    /// one candidate scoring per unknown; the output is bit-identical to
    /// `predict` followed by [`CrfModel::top_k`] on each unknown.
    pub fn predict_with_top_k(
        &self,
        inst: &Instance,
        k: usize,
    ) -> (Vec<u32>, Vec<Vec<(u32, f32)>>) {
        self.compiled().predict_with_top_k(inst, k)
    }

    /// The top-`k` candidate labels for one node, scored with all other
    /// nodes fixed at the MAP assignment. Re-runs MAP inference on every
    /// call, so ranking every unknown this way is quadratic; it is kept
    /// as the per-node oracle [`CrfModel::predict_with_top_k`] is tested
    /// against.
    pub fn top_k(&self, inst: &Instance, node: usize, k: usize) -> Vec<(u32, f32)> {
        self.compiled().top_k(inst, node, k)
    }

    /// The total (unnormalised log-)score of a full assignment; exposed
    /// for tests and diagnostics.
    pub fn assignment_score(&self, inst: &Instance, labels: &[u32]) -> f32 {
        let mut s = 0.0;
        for pf in &inst.pairwise {
            s += self.pair_w(pf.path, labels[pf.a], labels[pf.b]);
        }
        for uf in &inst.unary {
            s += self.unary_w(uf.path, labels[uf.node]);
        }
        for (i, n) in inst.nodes.iter().enumerate() {
            if !n.known {
                s += self.prior(labels[i]);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Node;

    /// A hand-weighted model: path 0 strongly links label pairs (1,2) and
    /// (3,4); unary path 5 favours label 1.
    fn toy_model() -> CrfModel {
        let mut m = CrfModel {
            max_candidates: 8,
            max_passes: 4,
            ..CrfModel::default()
        };
        m.pair_weights.insert((0, 1, 2), 5.0);
        m.pair_weights.insert((0, 3, 4), 4.0);
        m.unary_weights.insert((5, 1), 2.0);
        m.label_counts = vec![1, 10, 10, 5, 5];
        m.global_candidates = vec![1, 2, 3, 4, 0];
        m
    }

    #[test]
    fn prediction_uses_pairwise_evidence() {
        let m = toy_model();
        let mut inst = Instance::new(vec![Node::unknown(1), Node::known(2)]);
        inst.add_pair(0, 1, 0);
        assert_eq!(
            m.predict(&inst)[0],
            1,
            "label 1 links to known 2 via path 0"
        );
    }

    #[test]
    fn prediction_uses_unary_evidence() {
        let m = toy_model();
        let mut inst = Instance::new(vec![Node::unknown(1)]);
        inst.add_unary(0, 5);
        assert_eq!(m.predict(&inst)[0], 1);
    }

    #[test]
    fn isolated_node_gets_most_frequent_label() {
        let m = toy_model();
        let inst = Instance::new(vec![Node::unknown(3)]);
        assert_eq!(m.predict(&inst)[0], 1, "global head candidate wins");
    }

    #[test]
    fn icm_never_decreases_the_objective() {
        let m = toy_model();
        let mut inst = Instance::new(vec![Node::unknown(1), Node::unknown(2), Node::known(2)]);
        inst.add_pair(0, 2, 0);
        inst.add_pair(0, 1, 0);
        inst.add_unary(1, 5);
        let init: Vec<u32> = inst.nodes.iter().map(|n| n.label).collect();
        let map = m.predict(&inst);
        assert!(m.assignment_score(&inst, &map) >= m.assignment_score(&inst, &init) - 1e-6);
    }

    #[test]
    fn top_k_ranks_by_score_and_contains_map() {
        let m = toy_model();
        let mut inst = Instance::new(vec![Node::unknown(1), Node::known(2)]);
        inst.add_pair(0, 1, 0);
        let top = m.top_k(&inst, 0, 3);
        assert_eq!(top[0].0, m.predict(&inst)[0]);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn inference_never_reads_gold_labels_of_unknowns() {
        // Two unknown nodes linked by a factor with a weight that would
        // reward agreeing with the *gold* label of the neighbour. If
        // inference leaked gold initialisations, node 0 would pick label 1
        // when B's gold is 2; with the leak fixed, predictions must be
        // identical whatever gold B carries.
        let mut m = toy_model();
        m.pair_weights.insert((9, 1, 2), 10.0);
        let mut with_gold_2 = Instance::new(vec![Node::unknown(0), Node::unknown(2)]);
        with_gold_2.add_pair(0, 1, 9);
        let mut with_gold_4 = Instance::new(vec![Node::unknown(0), Node::unknown(4)]);
        with_gold_4.add_pair(0, 1, 9);
        assert_eq!(m.predict(&with_gold_2), m.predict(&with_gold_4));
    }

    #[test]
    fn loss_augmentation_can_flip_a_weak_prediction() {
        let mut m = toy_model();
        // Weak preference (0.5) for gold label 1 on unary path 6.
        m.unary_weights.insert((6, 1), 0.5);
        let mut inst = Instance::new(vec![Node::unknown(1)]);
        inst.add_unary(0, 6);
        assert_eq!(m.infer_reference(&inst, false)[0], 1);
        // Under loss augmentation every non-gold label gains +1 > 0.5.
        assert_ne!(m.infer_reference(&inst, true)[0], 1);
    }
}
