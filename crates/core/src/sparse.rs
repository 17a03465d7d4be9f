//! Weight-structure analysis and the one rotation plan both linear layers
//! carry.
//!
//! Pruned networks are mostly zeros. This module scans a layer's weights
//! at preparation time and classifies each FC generalized diagonal
//! ([`FcStructure`]) and each conv `(channel diagonal, tap)` mask
//! ([`ConvStructure`]) as live or dead; the layers' rotation
//! plan — one [`BsgsPlan`], built by [`BsgsPlan::for_structure`] for an FC
//! layer and by [`crate::linear::ConvPlan::for_structure`] for a
//! convolution — then covers only the live masks: baby and giant steps
//! whose every mask is zero are skipped entirely, so rotations, hoisted
//! replays, plaintext multiplies, Galois-key generation, noise transitions,
//! and cost-model pricing all shrink with the measured sparsity. A dense
//! layer is the all-live structure of the same plan, not a separate path.
//!
//! Power-of-two weights are ordinary integers here: a batch-encoded mask's
//! coefficient norm is `≈ t/2` whatever its slots hold, so there is no
//! budget in factoring a shared `2^m` out of them (`docs/SPARSE.md`).
//!
//! An FC layer's unit is the **folded** diagonal of
//! [`crate::linear::fc`]: with the rows padded to `n_o' = next_pow2(n_o)`,
//! diagonal `k + m·n_o'` is diagonal `k` rotated by `m·n_o'`, so only
//! `n_o'` of them are distinct and every weight cell `(r, c)` lies on
//! exactly one — `k = (c − r) mod n_o'`. Those are the classes scanned
//! here and the units pruning kills. A layer whose input is tiled `r`
//! times multiplies by the `n_o' / r` **tiled** diagonals of
//! [`FcStructure::tiled`] instead — one mask reads `r` folded diagonals at
//! once, and is dead only when all of them are.
//!
//! Classification is exact (a diagonal is zero iff every entry is zero),
//! so skipping the dead diagonals is *bit-identical* to multiplying their
//! zero masks: the skipped terms are zero polynomials. A whole dead giant
//! group below a live one is the one exception to the bits, not to the
//! slots: Horner jumps a run of them in one rotation where the all-live
//! chain rotates its running sum once per index. Per-entry random sparsity almost never zeroes a whole
//! length-`n_i` diagonal; the structured pruning helper `cheetah_nn`'s
//! `Weights::prune_to_sparsity` zeroes whole diagonals / conv masks, which
//! is also what magnitude-pruned real networks converge to under diagonal
//! packing.

use crate::cost::HeCostParams;
use cheetah_bfv::{BfvParams, NoiseEstimate};
use cheetah_nn::layer::folded_diagonals;
use cheetah_nn::{ConvSpec, FcSpec, LinearLayer, Tensor};
use std::ops::Range;

/// Per-diagonal structure of an FC weight matrix `W (n_o × n_i)`, under
/// the folded diagonal layout `diag_k[j] = W'[j mod n_o'][(j + k) mod n_i]`
/// for `k < n_o'` (`W'` is `W` with zero rows up to `n_o' = next_pow2(n_o)`).
///
/// Both sides are zero-padded to powers of two, and shapes
/// [`crate::linear::HomFc`] refuses (`n_o > n_i`, a row narrower than the
/// input) are still classified, so the chain solver can price any layer.
#[derive(Debug, Clone)]
pub struct FcStructure {
    ni: usize,
    no: usize,
    /// Per diagonal `k`: whether it has any nonzero entry.
    live: Vec<bool>,
}

impl FcStructure {
    /// Scans row-major weights (shape `(no, ni)`) into per-diagonal
    /// liveness. `w.len()` must be `no·ni`.
    pub fn analyze(w: &[i64], no: usize, ni: usize) -> Self {
        assert_eq!(w.len(), no * ni, "weight length mismatch");
        assert!(no >= 1 && ni >= 1, "degenerate FC shape");
        let (rows, cols) = (no.next_power_of_two(), ni.next_power_of_two());
        let live = (0..folded_diagonals(no, ni))
            .map(|k| {
                (0..rows.max(cols)).any(|j| {
                    let (r, c) = (j % rows, (j + k) % cols);
                    r < no && c < ni && w[r * ni + c] != 0
                })
            })
            .collect();
        Self { ni, no, live }
    }

    /// [`FcStructure::analyze`] from a `(no, ni)` weight tensor.
    pub fn analyze_tensor(weights: &Tensor, spec: &FcSpec) -> Self {
        assert_eq!(
            weights.shape(),
            &[spec.no, spec.ni],
            "weight shape mismatch"
        );
        Self::analyze(weights.data(), spec.no, spec.ni)
    }

    /// The fully-live structure of an `no × ni` layer — what pricing
    /// without weight knowledge must assume.
    pub fn dense(no: usize, ni: usize) -> Self {
        Self {
            ni,
            no,
            live: vec![true; folded_diagonals(no, ni)],
        }
    }

    /// The structure of the `δ = d / tiles` **tiled** diagonals a layer
    /// multiplies by when its input row carries `tiles` pre-rotated copies
    /// of `x` ([`crate::linear::fc`]): tiled diagonal `k` reads the folded
    /// diagonals `k + c·δ`, `c < tiles`, through one mask, so it is dead
    /// only when all of them are. `tiles = 1` is `self`.
    ///
    /// # Panics
    ///
    /// Panics unless `tiles` divides the diagonal count.
    pub fn tiled(&self, tiles: usize) -> Self {
        let d = self.diagonals();
        assert!(
            tiles >= 1 && d.is_multiple_of(tiles),
            "tiles must divide the diagonals"
        );
        let delta = d / tiles;
        let live = (0..delta)
            .map(|k| (0..tiles).any(|c| self.live[k + c * delta]))
            .collect();
        Self {
            ni: self.ni,
            no: self.no,
            live,
        }
    }

    /// The most copies of `x` the two batching rows of a `slots`-slot
    /// ciphertext can tile ([`crate::linear::fc`]: the copies alternate
    /// between the rows): as many as fit, and no more than there are
    /// diagonals to share between them. A power of two; 0 when the padded
    /// input overflows one row.
    pub fn max_tiles(&self, slots: usize) -> usize {
        let ni = self.ni.next_power_of_two();
        if 2 * ni > slots {
            return 0;
        }
        (slots / ni).min(self.diagonals())
    }

    /// Every admissible tiling of a `slots`-slot ciphertext, ascending: the
    /// powers of two up to [`FcStructure::max_tiles`].
    pub fn tilings(&self, slots: usize) -> impl Iterator<Item = usize> {
        let max = self.max_tiles(slots);
        std::iter::successors(Some(1), |&r| Some(2 * r)).take_while(move |&r| r <= max)
    }

    /// Input width.
    pub fn ni(&self) -> usize {
        self.ni
    }

    /// Distinct diagonals — one mask, one multiply each.
    pub fn diagonals(&self) -> usize {
        self.live.len()
    }

    /// Windows of partial sums per output the diagonals leave spread over
    /// the (tiled) input, for the decryptor to add up. Tiling `r` times
    /// leaves `r` times the windows, `r·n_i' / d = n_i' / δ`.
    pub fn fold(&self) -> usize {
        self.ni.next_power_of_two() / self.diagonals()
    }

    /// Output width.
    pub fn no(&self) -> usize {
        self.no
    }

    /// Whether diagonal `k` has any nonzero entry.
    pub fn is_live(&self, k: usize) -> bool {
        self.live[k]
    }

    /// Number of live diagonals.
    pub fn live_diagonals(&self) -> usize {
        self.live.iter().filter(|&&live| live).count()
    }

    /// Whether the whole layer is zero.
    pub fn all_zero(&self) -> bool {
        self.live_diagonals() == 0
    }

    /// Live fraction in `[0, 1]`.
    pub fn live_fraction(&self) -> f64 {
        self.live_diagonals() as f64 / self.diagonals() as f64
    }
}

/// One live giant group of a [`BsgsPlan`] chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsgsGroup {
    /// Giant index: the group's inner sum is rotated by `u·unit` in all.
    pub u: usize,
    /// The baby step each of the group's masks multiplies, in mask order
    /// (`0` reads the input unrotated).
    pub steps: Vec<i64>,
}

/// The Baby-Step-Giant-Step rotation plan of one linear layer — the one
/// both layer kinds carry and [`crate::linear::PreparedKernel`] executes:
///
/// ```text
/// out_q = Σ_u rot( Σ_j mask_{q,u,j} ⊙ rot(x, step_{q,u,j}), u·unit )
/// ```
///
/// over the live groups `u < g` of each output ciphertext `q`, combined
/// by Horner over the live groups: from a chain's highest live group down,
/// `acc ← rot(acc, (u − u′)·unit) + inner_{u′}`, then one last rotation by
/// `u_min·unit` when the lowest live group is not 0. A chain of `k` live
/// groups rotates once per live `u > 0` and charges `k` rotated group sums
/// of noise — what rotating each sum home by itself would — but its giant
/// keys are the distinct gaps, so a dense chain needs one. An FC layer
/// splits its `d` (folded, or tiled) diagonals into `g = ⌈d / b⌉` groups
/// of `b` baby steps (diagonal `k = u·b + v`, step `v`, `unit = b`, one
/// chain); a convolution splits its channel block-diagonals the same way
/// with a step per `(v, tap)` and `unit = b·s`, one chain per output
/// ciphertext. Every baby step and giant group whose masks are all zero is
/// left out.
///
/// The baby rotations all read the *input*, so one hoist (one shared INTT and
/// digit decomposition) serves the whole set; only the giant rotations
/// of the per-group inner sums pay NTT plane transforms. With `b ≈ √d` the
/// rotation transform bill drops from `O(d·l_ct)` to `O(√d·l_ct)`. The
/// corners are the diagonal method: `b = 1` multiplies the fresh input by
/// each pre-shifted diagonal and rotates the partial product (Sched-PA's
/// order, nothing hoistable), `b = d` rotates the hoisted input once per
/// diagonal and never rotates a sum (hoisted Sched-IA).
///
/// Invariants: `baby_steps` holds the distinct nonzero steps some live
/// mask reads, ascending; a chain lists its groups in ascending `u`, each
/// with at least one mask. A fully-live structure keeps every step and
/// group; an all-zero layer yields empty chains — no rotations, no
/// multiplies, transparent-zero outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsgsPlan {
    /// Baby steps per group (grid width).
    pub b: usize,
    /// Giant-step groups (grid height, `⌈d / b⌉` over the `d` diagonals).
    pub g: usize,
    unit: usize,
    baby_steps: Vec<i64>,
    chains: Vec<Vec<BsgsGroup>>,
}

impl BsgsPlan {
    /// The plan over `chains` — per output ciphertext, its live groups —
    /// on a `b × g` grid whose giant index is worth `unit` row slots.
    ///
    /// # Panics
    ///
    /// Panics unless every chain lists non-empty groups in ascending
    /// `u < g`.
    pub fn new(b: usize, g: usize, unit: usize, chains: Vec<Vec<BsgsGroup>>) -> Self {
        for chain in &chains {
            assert!(
                chain.windows(2).all(|pair| pair[0].u < pair[1].u)
                    && chain
                        .iter()
                        .all(|group| group.u < g && !group.steps.is_empty()),
                "a chain lists its live groups in ascending u < g"
            );
        }
        let groups = chains.iter().flatten();
        let mut baby_steps: Vec<i64> = groups
            .flat_map(|group| group.steps.iter().copied())
            .filter(|&step| step != 0)
            .collect();
        baby_steps.sort_unstable();
        baby_steps.dedup();
        Self {
            b,
            g,
            unit,
            baby_steps,
            chains,
        }
    }

    /// An FC layer's plan for a fixed baby width `b ≥ 1` over the
    /// structure: one chain, baby step `v` for diagonal `u·b + v`, a giant
    /// index worth `b` slots.
    pub fn for_structure(s: &FcStructure, b: usize) -> Self {
        assert!(b >= 1, "degenerate baby width");
        let d = s.diagonals();
        let g = d.div_ceil(b);
        let chain = (0..g).filter_map(|u| {
            let live = (0..b.min(d - u * b)).filter(|v| s.is_live(u * b + v));
            let steps: Vec<i64> = live.map(|v| v as i64).collect();
            (!steps.is_empty()).then_some(BsgsGroup { u, steps })
        });
        Self::new(b, g, b, vec![chain.collect()])
    }

    /// Picks an FC layer's cheapest baby width under `cost`: minimizes
    /// [`BsgsPlan::rotation_mults`] — the *live* rotations only — over
    /// `b ∈ 1..=d`, keeping the smaller width unless a wider one is a
    /// strict improvement. Tiny layers stay at `b = 1`; every zeroed
    /// diagonal can only shrink the bill.
    pub fn choose(s: &FcStructure, cost: &HeCostParams) -> BsgsPlan {
        let d = s.diagonals();
        let mut best = Self::for_structure(s, 1);
        let mut best_cost = best.rotation_mults(cost);
        for b in 2..=d {
            let cand = Self::for_structure(s, b);
            let c = cand.rotation_mults(cost);
            if c < best_cost {
                best_cost = c;
                best = cand;
            }
        }
        best
    }

    /// Row slots one giant index is worth: group `u`'s inner sum travels
    /// `u·unit` slots in all.
    pub fn unit(&self) -> usize {
        self.unit
    }

    /// Distinct nonzero baby steps some live mask reads, ascending: one
    /// hoisted replay each.
    pub fn baby_steps(&self) -> &[i64] {
        &self.baby_steps
    }

    /// Per output ciphertext, its live giant groups in ascending `u`.
    pub fn chains(&self) -> &[Vec<BsgsGroup>] {
        &self.chains
    }

    /// Every live group, chain by chain.
    pub fn groups(&self) -> impl Iterator<Item = &BsgsGroup> {
        self.chains.iter().flatten()
    }

    /// Output ciphertexts.
    pub fn outputs(&self) -> usize {
        self.chains.len()
    }

    /// Whether the plan covers nothing (all-zero layer).
    pub fn is_empty(&self) -> bool {
        self.chains.iter().all(Vec::is_empty)
    }

    /// Live masks: the plaintext multiplies per evaluation.
    pub fn live_masks(&self) -> usize {
        self.groups().map(|group| group.steps.len()).sum()
    }

    /// Most live masks in any one group: the widest inner sum.
    pub fn widest_group(&self) -> usize {
        let widths = self.groups().map(|group| group.steps.len());
        widths.max().unwrap_or(0)
    }

    /// Group sums the deepest chain adds up (0 on an all-zero layer).
    fn deepest_chain(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Direct giant rotations performed: one per live group other than
    /// group 0 — a gap between two live groups, or the last way home from
    /// a lowest live group above 0.
    pub fn giant_rotations(&self) -> usize {
        self.groups().filter(|group| group.u > 0).count()
    }

    /// Total rotations: hoisted baby replays plus direct giant steps
    /// (`b + g − 2` for a fully live FC layer).
    pub fn rotations(&self) -> usize {
        self.baby_steps.len() + self.giant_rotations()
    }

    /// The exact rotation steps evaluation performs — the baby steps, then
    /// ascending each distinct giant step `gap·unit` between two live
    /// groups of a chain and `u_min·unit` home from a lowest live group
    /// above 0, unless it already is a baby step. Generate Galois keys for
    /// these and nothing more.
    pub fn rotation_steps(&self) -> Vec<i64> {
        let gaps = self.chains.iter().flat_map(|chain| {
            let between = chain.windows(2).map(|pair| pair[1].u - pair[0].u);
            between.chain(chain.first().map(|low| low.u).filter(|&u| u > 0))
        });
        let mut giant: Vec<i64> = gaps
            .map(|gap| (gap * self.unit) as i64)
            .filter(|step| self.baby_steps.binary_search(step).is_err())
            .collect();
        giant.sort_unstable();
        giant.dedup();
        let mut steps = self.baby_steps.clone();
        steps.extend(giant);
        steps
    }

    /// Rotation-side integer multiplications under `cost`: one hoist when
    /// any baby replay runs, one hoisted replay per baby step, one direct
    /// rotation per giant step.
    pub fn rotation_mults(&self, cost: &HeCostParams) -> u64 {
        let hoist = if self.baby_steps.is_empty() {
            0
        } else {
            cost.hoist_mults()
        };
        hoist
            + self.baby_steps.len() as u64 * cost.he_rotate_hoisted_mults()
            + self.giant_rotations() as u64 * cost.he_rotate_mults()
    }

    /// All integer multiplications under `cost`: the mask multiplies plus
    /// the rotations.
    pub fn int_mults(&self, cost: &HeCostParams) -> u64 {
        self.live_masks() as u64 * cost.he_mult_mults() + self.rotation_mults(cost)
    }

    /// Conservative Table-III prediction of the plan's output noise when
    /// evaluated at `level` on an input with the given estimate — the one
    /// place a linear layer's noise is priced:
    /// [`NoiseEstimate::bsgs_matvec_at`] over the live work — every group
    /// as wide as the widest, every chain as deep as the deepest, every
    /// mask charged `mask_norm`, and each group sum charged one rotation
    /// (a chain rotates once per live group above 0). A positive predicted
    /// budget at a level means the layer can safely run there — the
    /// planning query behind [`crate::linear::feasible_levels`].
    /// `mask_norm` is the centred norm of a mask's *coefficients*: a
    /// prepared kernel passes the worst its masks measure, the chain
    /// solver the `⌊t/2⌋` no plaintext exceeds.
    pub fn noise_after(
        &self,
        input: &NoiseEstimate,
        params: &BfvParams,
        level: usize,
        mask_norm: u64,
    ) -> NoiseEstimate {
        if self.is_empty() {
            return NoiseEstimate::zero();
        }
        let (widest, deepest) = (self.widest_group(), self.deepest_chain());
        input.bsgs_matvec_at(params, level, widest, deepest, 2 * mask_norm.max(1))
    }
}

/// Weight structure of a conv tensor `(co, ci, fw, fw)` under the packed
/// layout of [`crate::linear::HomConv2d`], whose unit is the `(d, tap)`
/// mask: channel block-diagonal `d < c_i' = next_pow2(c_i)` pairs output
/// channel `o` with input channel `(o + d) mod c_i'`
/// ([`cheetah_nn::layer::channel_diagonal`]), and one plaintext carries
/// that pairing's tap weight for every output channel of a ciphertext.
/// Which outputs share a ciphertext depends on the row size, so the
/// structure keeps the per-cell zero map and answers liveness per output
/// range; whole-layer counts treat all outputs as one range.
#[derive(Debug, Clone)]
pub struct ConvStructure {
    co: usize,
    ci: usize,
    taps: usize,
    /// `nonzero[(o·ci + c)·taps + tap]`.
    nonzero: Vec<bool>,
}

impl ConvStructure {
    /// Scans `(co, ci, fw, fw)` row-major weights.
    pub fn analyze(w: &[i64], co: usize, ci: usize, fw: usize) -> Self {
        let taps = fw * fw;
        assert_eq!(w.len(), co * ci * taps, "weight length mismatch");
        Self {
            co,
            ci,
            taps,
            nonzero: w.iter().map(|&v| v != 0).collect(),
        }
    }

    /// [`ConvStructure::analyze`] from a `(co, ci, fw, fw)` weight tensor.
    pub fn analyze_tensor(weights: &Tensor, spec: &ConvSpec) -> Self {
        assert_eq!(
            weights.shape(),
            &[spec.co, spec.ci, spec.fw, spec.fw],
            "weight shape mismatch"
        );
        Self::analyze(weights.data(), spec.co, spec.ci, spec.fw)
    }

    /// The fully-live structure of a `(co, ci, fw, fw)` layer — what
    /// pricing without weight knowledge must assume.
    pub fn dense(co: usize, ci: usize, fw: usize) -> Self {
        Self {
            co,
            ci,
            taps: fw * fw,
            nonzero: vec![true; co * ci * fw * fw],
        }
    }

    /// Taps per filter (`fw²`).
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Channel block-diagonals `c_i' = next_pow2(c_i)`.
    pub fn diagonals(&self) -> usize {
        self.ci.next_power_of_two()
    }

    /// Whether the `(d, tap)` mask serving output channels `outputs`
    /// carries any weight: some `o` in the range has a nonzero
    /// `f[o][(o + d) mod c_i'][tap]`.
    pub fn mask_live(&self, outputs: Range<usize>, d: usize, tap: usize) -> bool {
        let diagonals = self.diagonals();
        outputs.into_iter().any(|o| {
            let c = (o + d) % diagonals;
            c < self.ci && self.nonzero[(o * self.ci + c) * self.taps + tap]
        })
    }

    /// Live `(d, tap)` masks over all output channels, of the `c_i'·fw²`
    /// there are.
    pub fn live_masks(&self) -> usize {
        (0..self.diagonals() * self.taps)
            .filter(|i| self.mask_live(0..self.co, i / self.taps, i % self.taps))
            .count()
    }

    /// Whether the whole layer is zero.
    pub fn all_zero(&self) -> bool {
        !self.nonzero.contains(&true)
    }

    /// Live fraction of `(d, tap)` masks in `[0, 1]`.
    pub fn live_fraction(&self) -> f64 {
        self.live_masks() as f64 / (self.diagonals() * self.taps) as f64
    }
}

/// Analyzed structure of one linear layer — what the solver prices a chain
/// under instead of assuming every mask is live.
#[derive(Debug, Clone)]
pub enum LayerStructure {
    /// FC diagonal structure.
    Fc(FcStructure),
    /// Conv `(d, tap)` mask structure.
    Conv(ConvStructure),
}

impl LayerStructure {
    /// Analyzes the weights of `layer` (shape checked against the spec).
    pub fn analyze(layer: &LinearLayer, weights: &Tensor) -> Self {
        match layer {
            LinearLayer::Fc(f) => LayerStructure::Fc(FcStructure::analyze_tensor(weights, f)),
            LinearLayer::Conv(c) => LayerStructure::Conv(ConvStructure::analyze_tensor(weights, c)),
        }
    }

    /// A fully-live structure for `layer` — what pricing without weight
    /// knowledge must assume.
    pub fn dense(layer: &LinearLayer) -> Self {
        match layer {
            LinearLayer::Fc(f) => LayerStructure::Fc(FcStructure::dense(f.no, f.ni)),
            LinearLayer::Conv(c) => LayerStructure::Conv(ConvStructure::dense(c.co, c.ci, c.fw)),
        }
    }

    /// Live fraction of the layer's masks in `[0, 1]`.
    pub fn live_fraction(&self) -> f64 {
        match self {
            LayerStructure::Fc(f) => f.live_fraction(),
            LayerStructure::Conv(c) => c.live_fraction(),
        }
    }

    /// Whether the whole layer is zero.
    pub fn all_zero(&self) -> bool {
        match self {
            LayerStructure::Fc(f) => f.all_zero(),
            LayerStructure::Conv(c) => c.all_zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(l_ct: usize, limbs: usize) -> HeCostParams {
        HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct,
            limbs,
            hybrid: false,
        }
    }

    /// Weights with exactly the given diagonals zeroed.
    fn fc_weights_with_dead(no: usize, ni: usize, dead: &[usize]) -> Vec<i64> {
        let mut w = vec![0i64; no * ni];
        for k in 0..ni {
            if dead.contains(&k) {
                continue;
            }
            for off in 0..ni {
                w[(off % no) * ni + (off + k) % ni] = 3;
            }
        }
        w
    }

    #[test]
    fn mask_classes() {
        // A diagonal is dead iff every entry is zero; a lone `±2^k` makes
        // it live like any other weight.
        let mut w = vec![0i64; 16];
        w[1] = 4; // (0, 1): diagonal 1
        w[4 + 3] = -3; // (1, 3): diagonal 2
        let s = FcStructure::analyze(&w, 4, 4);
        let live: Vec<bool> = (0..4).map(|k| s.is_live(k)).collect();
        assert_eq!(live, [false, true, true, false]);
    }

    #[test]
    fn fc_structure_counts_live_diagonals() {
        // Square shape: in a rectangular FC with no | ni, diagonals k and
        // k + no read the same matrix cells, so they live or die together;
        // a square matrix keeps every diagonal independent.
        let ni = 16;
        let w = fc_weights_with_dead(ni, ni, &[0, 3, 7, 9]);
        let s = FcStructure::analyze(&w, ni, ni);
        assert_eq!(s.live_diagonals(), ni - 4);
        assert!(!s.is_live(3) && s.is_live(4));
        assert!(!s.all_zero());
        assert!((s.live_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tiled_structure_merges_member_diagonals() {
        // d = 8 folded diagonals: 1, 3 and 6 live, the rest dead.
        let ni = 8;
        let w = fc_weights_with_dead(ni, ni, &[0, 2, 4, 5, 7]);
        let s = FcStructure::analyze(&w, ni, ni);
        assert_eq!(s.live_diagonals(), 3);
        let live =
            |s: &FcStructure| -> Vec<bool> { (0..s.diagonals()).map(|k| s.is_live(k)).collect() };
        assert_eq!(live(&s.tiled(1)), live(&s));
        // δ = 4: tiled k reads folded k and k + 4 — {1, 5}, {2, 6}, {3, 7}.
        let two = s.tiled(2);
        assert_eq!(live(&two), [false, true, true, true]);
        assert_eq!((two.diagonals(), two.fold()), (4, 2));
        // δ = 1: every diagonal under one mask.
        let eight = s.tiled(8);
        assert_eq!(live(&eight), [true]);
        assert_eq!(eight.fold(), 8);
        // As many copies as fit both rows, never more than diagonals; a
        // padded input counts at its padded width and must fit one row.
        assert_eq!(s.max_tiles(4096), 8);
        assert_eq!(s.tilings(4096).collect::<Vec<_>>(), [1, 2, 4, 8]);
        assert_eq!(s.max_tiles(32), 4);
        assert_eq!(s.max_tiles(16), 2);
        assert_eq!(s.max_tiles(8), 0);
        assert_eq!(FcStructure::dense(300, 784).max_tiles(4096), 4);
        // n_i' = row: one copy a row.
        assert_eq!(FcStructure::dense(10, 2048).max_tiles(4096), 2);
        assert_eq!(FcStructure::dense(10, 2048).max_tiles(2048), 0);
        assert_eq!(FcStructure::dense(10, 2048).tilings(2048).count(), 0);
    }

    #[test]
    fn fully_live_structure_chooses_the_dense_plan() {
        // Dense is the all-live case of the one chooser: analyzed fully-live
        // weights and `FcStructure::dense` pick the same split, keep every
        // step of the `b × g` grid, and price as one hoist, `b − 1` replays
        // and `g − 1` direct rotations.
        for (d, c) in [(16usize, cost(10, 1)), (64, cost(6, 3)), (32, cost(4, 2))] {
            let w = fc_weights_with_dead(d, d, &[]);
            let plan = BsgsPlan::choose(&FcStructure::analyze(&w, d, d), &c);
            assert_eq!(plan, BsgsPlan::choose(&FcStructure::dense(d, d), &c));
            assert!(plan.b > 1 && plan.g > 1, "d={d} must split: {plan:?}");
            assert_eq!(plan.rotations(), plan.b + plan.g - 2);
            assert_eq!(
                plan.rotation_mults(&c),
                c.hoist_mults()
                    + (plan.b as u64 - 1) * c.he_rotate_hoisted_mults()
                    + (plan.g as u64 - 1) * c.he_rotate_mults()
            );
        }
    }

    #[test]
    fn sparse_plan_skips_dead_steps_and_prices_lower() {
        let ni = 32;
        let c = cost(10, 1);
        let dense_w = fc_weights_with_dead(ni, ni, &[]);
        let dense = BsgsPlan::choose(&FcStructure::analyze(&dense_w, ni, ni), &c);
        // Kill 90% of the diagonals (keep 3 of 32).
        let dead: Vec<usize> = (0..ni).filter(|k| ![0, 11, 21].contains(k)).collect();
        let s = FcStructure::analyze(&fc_weights_with_dead(ni, ni, &dead), ni, ni);
        assert_eq!(s.live_diagonals(), 3);
        let sparse = BsgsPlan::choose(&s, &c);
        assert!(sparse.rotations() < dense.rotations());
        assert!(sparse.rotation_mults(&c) < dense.rotation_mults(&c));
        // Every step the plan reports maps to a live diagonal.
        for group in sparse.groups() {
            let shift = group.u * sparse.b;
            assert!(group.steps.iter().all(|&v| s.is_live(shift + v as usize)));
        }
    }

    #[test]
    fn all_zero_layer_has_an_empty_plan() {
        let ni = 16;
        let dead: Vec<usize> = (0..ni).collect();
        let s = FcStructure::analyze(&fc_weights_with_dead(4, ni, &dead), 4, ni);
        assert!(s.all_zero());
        let plan = BsgsPlan::choose(&s, &cost(10, 1));
        assert!(plan.is_empty());
        assert_eq!(plan.rotations(), 0);
        assert!(plan.rotation_steps().is_empty());
        assert_eq!(plan.rotation_mults(&cost(10, 1)), 0);
    }

    #[test]
    fn single_diagonal_plan_is_one_rotation_at_most() {
        let ni = 16;
        for live in [0usize, 1, 9] {
            let dead: Vec<usize> = (0..ni).filter(|&k| k != live).collect();
            let s = FcStructure::analyze(&fc_weights_with_dead(ni, ni, &dead), ni, ni);
            assert_eq!(s.live_diagonals(), 1);
            let plan = BsgsPlan::choose(&s, &cost(10, 1));
            assert!(plan.rotations() <= 1, "live={live}: {plan:?}");
            if live == 0 {
                assert_eq!(plan.rotations(), 0, "diagonal 0 needs no rotation");
            }
        }
    }

    #[test]
    fn conv_structure_tracks_taps_and_channels() {
        let (co, ci, fw) = (2usize, 4usize, 3usize);
        let taps = fw * fw;
        let mut w = vec![0i64; co * ci * taps];
        // Output 0: channels 0 and 2, tap 4 (center) only — diagonals 0, 2.
        w[4] = 2;
        w[2 * taps + 4] = -4;
        // Output 1: channel 1, taps 0 and 4 — diagonal (1 − 1) mod 4 = 0.
        w[(ci + 1) * taps] = 3;
        w[(ci + 1) * taps + 4] = 1;
        let s = ConvStructure::analyze(&w, co, ci, fw);
        assert_eq!((s.diagonals(), s.taps()), (4, 9));
        assert!(s.mask_live(0..2, 0, 4) && s.mask_live(0..2, 2, 4) && s.mask_live(0..2, 0, 0));
        assert!(!s.mask_live(0..2, 1, 4) && !s.mask_live(0..2, 3, 4) && !s.mask_live(0..2, 2, 0));
        // Per output range: tap 0 of diagonal 0 belongs to output 1 alone.
        assert!(!s.mask_live(0..1, 0, 0) && s.mask_live(1..2, 0, 0));
        assert_eq!(s.live_masks(), 3);
        assert!((s.live_fraction() - 3.0 / 36.0).abs() < 1e-12);
        assert!(!s.all_zero());
        // A non-power-of-two channel count pads: diagonal d pairs output o
        // with channel (o + d) mod 4, and channel 3 does not exist.
        let s = ConvStructure::dense(2, 3, 1);
        assert_eq!(s.diagonals(), 4);
        assert!(s.mask_live(0..1, 2, 0) && !s.mask_live(0..1, 3, 0));
        assert!(
            s.mask_live(0..2, 3, 0),
            "output 1 reaches channel 0 on d = 3"
        );
        assert_eq!(s.live_masks(), 4);
        assert!(ConvStructure::analyze(&[0; 18], 2, 1, 3).all_zero());
    }

    #[test]
    fn layer_structure_dispatch() {
        let fc = LinearLayer::Fc(FcSpec {
            name: "fc".into(),
            ni: 8,
            no: 4,
        });
        let w = Tensor::from_data(&[4, 8], vec![0; 32]);
        let s = LayerStructure::analyze(&fc, &w);
        assert!(s.all_zero());
        assert_eq!(s.live_fraction(), 0.0);
        let d = LayerStructure::dense(&fc);
        assert!(!d.all_zero());
        assert_eq!(d.live_fraction(), 1.0);
    }
}
