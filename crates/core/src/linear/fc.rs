//! Homomorphic fully connected layers: the layout that turns a matrix–vector
//! product into the shared Baby-Step-Giant-Step kernel
//! ([`super::PreparedKernel`]) over the live **tiled** diagonals of a
//! periodically packed input. The kernel's partial sums are the layer's
//! output; whoever decrypts adds them up.
//!
//! # Layout
//!
//! Pad `n_i` to `n_i' = next_pow2(n_i)` (zero columns) and `n_o` to
//! `d = n_o' = next_pow2(n_o)` (zero rows); call the padded matrix `W'` and
//! the padded input `x`. The client — who encrypts every layer's input in
//! this protocol — fills the batching rows (`row = n/2` slots each) with
//! `r = tiles` pre-rotated copies of `x`, over and over. Copy `c` is `x`
//! rotated left by `c·δ`; it sits in row `c mod 2`, at copy position
//! `⌊c/2⌋` of that row's period:
//!
//! ```text
//! in[ρ][s] = x[src(ρ, s)]    src(ρ, s) = ((s mod n_i') + (R·⌊(s mod T) / n_i'⌋ + ρ)·δ) mod n_i'
//!                            δ = d / r,  R = min(r, 2),  T = (r / R)·n_i'
//! ```
//!
//! `R` rows are used; each holds `r / R` copies whose offsets step by `R·δ`
//! — across the end of a period too, since `r·δ = d ≡ 0 (mod d)`. `T`
//! divides the row, so a row rotation is a cyclic shift of each row with
//! no seam: nothing in this file special-cases a wrap. A row rotation turns
//! both rows by the same step, so nothing ever moves between them and the
//! second row needs no column-swap key. `r` is a power of two with
//! `1 ≤ r ≤ min(n / n_i', d)` ([`FcStructure::max_tiles`]); `r = 1` is
//! plain `x` repeated through row 0 and leaves row 1 zero.
//!
//! # Tiled diagonals
//!
//! Folded diagonal `j < d` of `W'` holds the cells `(ρ, γ)` with
//! `γ − ρ ≡ j (mod d)`; every cell lies on exactly one, and they are the
//! units [`FcStructure`] classifies and pruning zeroes. The kernel
//! multiplies by the `δ` **tiled** diagonals
//!
//! ```text
//! mask_k[ρ][s] = W'[s mod d][src(ρ, (s + k) mod row)]        k < δ, s < row, ρ < R
//! ```
//!
//! Where slot `s + k` of row `ρ` sits in copy `c`,
//! `src(ρ, s + k) − s ≡ k + c·δ (mod d)`: one mask reads the `r` folded
//! diagonals `k, k + δ, …, k + (r−1)·δ` at once — the even copies' in row
//! 0, the odd copies' in row 1 — each under the copy pre-rotated to meet it
//! (a slot whose `s + k` crosses into the next copy of its row reads that
//! copy's offset instead — the same `r` diagonals, met in another order).
//! A tiled diagonal is live iff any of its members is
//! ([`FcStructure::tiled`]). The partial product
//!
//! ```text
//! y_part[ρ][s] = Σ_{k < δ} in[ρ][(s + k) mod row] · mask_k[ρ][s]
//! ```
//!
//! leaves in slot `s` of either row the part of output row `s mod d` over
//! `δ` columns.
//!
//! # The kernel
//!
//! Writing `k = u·b + v` (`v < b` baby, `u < g` giant, `b·g ≥ δ`):
//!
//! ```text
//! y_part = Σ_u rot( Σ_v rot(in, v) ⊙ rot⁻ᵘᵇ(mask_{ub+v}), u·b )
//! ```
//!
//! which is [`BsgsPlan`]'s sum with one chain, baby step `v` for diagonal
//! `u·b + v`, a giant index worth `b` slots, and the group sums met by
//! Horner over the live groups (`acc ← rot(acc, (u − u′)·b) + inner_{u′}`),
//! so a dense layer's giant steps share the one Galois key `b`;
//! [`super::PreparedKernel`] runs it. This file only lays the masks out:
//! the giant-step pre-rotation of each mask is a cyclic shift of its row at
//! preparation time (free). Only **live** tiled diagonals carry a mask: a
//! baby step no live diagonal reads is never replayed, a group with no live
//! diagonal is never summed and the running sum jumps it in one rotation.
//! The skipped terms are zero polynomials (and the all-live chain rotates
//! only zeros above the top live group), so while no dead group sits below
//! a live one the ciphertext is the one the all-live evaluation of the
//! same weights produces, bit for bit; below a live group the all-live
//! chain key-switches once per dead index where this one jumps the run in
//! one rotation, so the bits differ there and the decrypted slots do not.
//!
//! A dense layer is the all-live case, an untiled one the `r = 1` case, and
//! the diagonal method of Fig. 5 the two corners: `b = 1` multiplies the
//! fresh input by each pre-shifted diagonal and rotates the partial product
//! (Sched-PA's order), `b = δ` rotates the hoisted input once per diagonal
//! and rotates no sum (hoisted Sched-IA). Tiling and baby width are chosen
//! per layer from [`HeCostParams`] by [`FcPlan::choose`] — the one chooser
//! the engine and the chain solver share; a layer takes no schedule
//! argument.
//!
//! # Where the client adds
//!
//! `y_part` is what [`HomFc::apply_with_scratch`] returns. Each output
//! row's partial sums sit `T / d` windows apart at stride `d` in each of
//! the `R` rows:
//!
//! ```text
//! y[i] = Σ_{ρ < R} Σ_{m < T/d} y_part[ρ][i + m·d]   (mod t)        y = W'·x,  i < d
//! ```
//!
//! The `fold = R·T / d = n_i' / δ` windows of `δ` slots meet, in each of
//! the `r` copies, the residues `[c·δ, (c+1)·δ)` of `γ − s (mod d)` —
//! between them every residue once — and `n_i' / d` windows per copy cover
//! every column of each: output row `i` meets every column exactly once.
//! No rotate-and-sum gathers them under encryption: the client decrypts
//! every slot of a download anyway, the protocol hands it an additive share
//! of `y`, and a sum of shares is a share of the sum —
//! [`HomFc::output_slots`] names the windows, row 0's then row 1's, and
//! [`HomFc::decode_output`] adds them. An `n_o'`-row layer pays
//! `δ = n_o' / r` mask multiplies and the kernel's `O(√δ)` rotations, all
//! below `δ`; at `r = n_o'` (one tiled diagonal) it is one mask multiply
//! and no rotation at all. With both rows full (`r·n_i' = n`) that is
//! Table IV's `n_i'·n_o' / n` multiplies. A square untiled layer has
//! `T = d`: one window.
//!
//! # Which slots hold what
//!
//! **Every** slot `s` of each used row holds a partial sum of output row
//! `s mod d` (zero on the padding rows `[n_o, d)`), periodic in `T`:
//! windows `i + m·d`, `m < T/d`, of each row's first period are read, the
//! `row / T − 1` further periods repeat them. On a hidden layer these are
//! partial pre-activations — strictly more than the pre-activations
//! themselves — so **no slot of either row may ship unmasked**:
//! `cheetah-serve` splits each output's mask into `fold` additive
//! shares, one per window, and blinds every other slot with a fresh
//! uniform draw before a download leaves the server. Row 1 is zero iff
//! `r = 1`.
//!
//! Constraints: `1 ≤ n_o ≤ n_i`, `n_i' ≤ n/2`.

use std::ops::Deref;

use cheetah_bfv::arith::Modulus;
use cheetah_bfv::{
    BatchEncoder, Ciphertext, Error, Evaluator, GaloisKeys, Plaintext, Result, Scratch,
};
use cheetah_nn::{FcSpec, Tensor};

use crate::cost::HeCostParams;
use crate::linear::PreparedKernel;
use crate::sparse::{BabyWidth, BsgsGroup, BsgsPlan, FcStructure};

/// The whole plan of one FC layer: how many copies of the input the client
/// tiles the batching rows with, the BSGS kernel over the tiled diagonals,
/// and how many windows of partial sums the client adds up after
/// decryption.
/// [`HomFc`] executes exactly this and the chain solver prices exactly
/// this. Dereferences to its kernel plan: rotations, Galois steps,
/// integer-multiply counts and the noise prediction are [`BsgsPlan`]'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcPlan {
    /// Pre-rotated copies `r` of the input per period of the two rows (a
    /// power of two; 1 = plain `x`, repeated through row 0).
    pub tiles: usize,
    /// The kernel's baby/giant split and which of its steps are live.
    pub kernel: BsgsPlan,
    /// Tiled diagonals `δ = n_o' / r` the kernel covers. The windows'
    /// stride is `n_o' = tiles · diagonals`.
    pub diagonals: usize,
    /// Tiled diagonals that carry a mask: the plaintext multiplies per
    /// evaluation.
    pub live: usize,
    /// Windows of partial sums per output the client adds, `r·n_i' / n_o'`
    /// (1 on a square untiled layer: the slot is the output).
    pub fold: usize,
}

impl FcPlan {
    /// Picks the cheapest plan under `cost` for a ciphertext of `slots`
    /// slots (both batching rows): for every admissible tiling `r`
    /// ([`FcStructure::tilings`]) the
    /// baby width minimizing the live rotations' bill
    /// ([`BsgsPlan::choose`]), keeping the least [`BsgsPlan::int_mults`] —
    /// the smaller `r` unless a larger one is strictly cheaper, with every
    /// rotation past the untiled plan's charged one direct rotation more (a
    /// surcharge on wider tilings at [`super::ConvPlan::choose`]'s key
    /// rate, priced on rotations: a dense FC plan's keys are `1..b` plus
    /// `b`, a prefix the model's layers share). The windows a wider tiling
    /// multiplies are the client's to add and have no price here. Every
    /// `(r, b)` is priced from counts on the tiled structure — live
    /// diagonals, live baby columns, live groups above 0 — and only the
    /// winner is built.
    pub fn choose(s: &FcStructure, slots: usize, cost: &HeCostParams) -> Self {
        let tilings = std::iter::once(1).chain(s.tilings(slots).skip(1));
        let widths: Vec<(usize, usize, BabyWidth)> = tilings
            .map(|tiles| {
                let tiled = s.tiled(tiles);
                (
                    tiles,
                    tiled.live_diagonals(),
                    BabyWidth::cheapest(&tiled, cost),
                )
            })
            .collect();
        let untiled = widths[0].2.rotations;
        let price = |&(_, live, width): &(usize, usize, BabyWidth)| {
            let extra = width.rotations.saturating_sub(untiled) as u64;
            width.int_mults(live, cost) + extra * cost.he_rotate_mults()
        };
        // `min_by_key` keeps the first of equal minima: the smaller tiling.
        let &(tiles, _, width) = widths
            .iter()
            .min_by_key(|cand| price(cand))
            .expect("the untiled plan is a candidate");
        Self::for_tiles(s, tiles, Some(width.b), cost)
    }

    /// The plan over `s` tiled `tiles` times, under baby width `baby`
    /// (trimmed to the tiled diagonals) or the chooser's.
    fn for_tiles(s: &FcStructure, tiles: usize, baby: Option<usize>, cost: &HeCostParams) -> Self {
        let tiled = s.tiled(tiles);
        let kernel = match baby {
            Some(b) => BsgsPlan::for_structure(&tiled, b.min(tiled.diagonals())),
            None => BsgsPlan::choose(&tiled, cost),
        };
        Self {
            tiles,
            kernel,
            diagonals: tiled.diagonals(),
            live: tiled.live_diagonals(),
            fold: tiled.fold(),
        }
    }

    /// The windows' stride `d = n_o'`: slot `s` holds a partial sum of
    /// output row `s mod d`.
    pub fn stride(&self) -> usize {
        self.tiles * self.diagonals
    }

    /// Batching rows the copies fill, `R = min(r, 2)`: copy `c` sits in
    /// row `c mod 2`.
    pub fn rows(&self) -> usize {
        self.tiles.min(2)
    }

    /// Which element of the zero-padded input slot `s` of batching row
    /// `rho` holds: `src(ρ, s)` of the module header
    /// (`n_i' = fold · diagonals`). Every divisor there is a power of two,
    /// so each `mod` is a mask and the division a shift.
    fn src(&self, rho: usize, s: usize) -> usize {
        let ni = self.fold * self.diagonals;
        let period = self.tiles / self.rows() * ni;
        let copy = ((s & (period - 1)) >> ni.trailing_zeros()) * self.rows() + rho;
        ((s & (ni - 1)) + copy * self.diagonals) & (ni - 1)
    }

    /// `src(ρ, s)` for every slot of the plan's rows of `row` slots, row
    /// 0's then row 1's: built once per layer, read once per mask slot.
    fn src_table(&self, row: usize) -> Vec<u32> {
        let rows = (0..self.rows()).flat_map(|rho| (0..row).map(move |s| (rho, s)));
        rows.map(|(rho, s)| self.src(rho, s) as u32).collect()
    }

    /// The packed input: each of the plan's rows of `row` slots filled
    /// with `x[src(ρ, s)]` (zero past `x`), the rest zero.
    fn input_slots(&self, x: &[i64], row: usize) -> Vec<i64> {
        let mut slots = vec![0i64; 2 * row];
        for (rho, half) in slots.chunks_mut(row).take(self.rows()).enumerate() {
            for (s, slot) in half.iter_mut().enumerate() {
                *slot = x.get(self.src(rho, s)).copied().unwrap_or(0);
            }
        }
        slots
    }

    /// [`HomFc::output_slots`] for `row`-slot batching rows.
    fn windows(&self, i: usize, row: usize) -> impl Iterator<Item = usize> {
        let d = self.stride();
        let period = self.fold / self.rows() * d;
        let second = if self.rows() == 2 {
            row + i..row + period
        } else {
            0..0
        };
        (i..period).step_by(d).chain(second.step_by(d))
    }

    /// Human-readable label for transcripts, reports and solver plans:
    /// `fc bsgs tiles=.. b=.. g=.. live=../.. fold=..`.
    pub fn label(&self) -> String {
        format!(
            "fc bsgs tiles={} b={} g={} live={}/{} fold={}",
            self.tiles, self.kernel.b, self.kernel.g, self.live, self.diagonals, self.fold
        )
    }
}

impl Deref for FcPlan {
    type Target = BsgsPlan;

    fn deref(&self) -> &BsgsPlan {
        &self.kernel
    }
}

/// A prepared homomorphic FC layer.
#[derive(Debug)]
pub struct HomFc {
    spec: FcSpec,
    plan: FcPlan,
    /// `plan.kernel` with one mask per live tiled diagonal.
    kernel: PreparedKernel,
    /// The plaintext modulus the windows are added under.
    t: Modulus,
    /// Slots per batching row, where row 1's windows start.
    row: usize,
}

/// The typed refusals every constructor shares.
fn check_shape(spec: &FcSpec, weights: &Tensor, encoder: &BatchEncoder) -> Result<()> {
    if spec.no == 0 || spec.no > spec.ni {
        return Err(Error::Unsupported("HomFc needs 1 <= n_o <= n_i"));
    }
    if weights.shape() != [spec.no, spec.ni] {
        return Err(Error::Unsupported(
            "FC weight tensor shape does not match the spec",
        ));
    }
    if spec.ni.next_power_of_two() > encoder.row_size() {
        return Err(Error::TooManyValues {
            given: spec.ni.next_power_of_two(),
            slots: encoder.row_size(),
        });
    }
    Ok(())
}

/// Slot mask of tiled diagonal `k = shift + v`, laid out to multiply the
/// input rotated by `v` ahead of a rotation by `shift`: `mask_k` of the
/// module header shifted cyclically right by `shift` within each row, so
/// that after that rotation slot `s` of either row reads weight row
/// `s mod d` (zero past `n_o`) and input slot `(s + k) mod row` of its own
/// row. `shift = u·b` for the member of giant group `u`; `v = 0`
/// throughout at `b = 1`, `shift = 0` throughout at `b = δ`. Both rows of
/// `row` slots each; `src` is the plan's [`FcPlan::src_table`].
fn diagonal_mask(
    spec: &FcSpec,
    weights: &Tensor,
    plan: &FcPlan,
    src: &[u32],
    shift: usize,
    v: usize,
    row: usize,
) -> Vec<i64> {
    // `d` divides the row and both are powers of two: (s − shift) mod d
    // and (s + v) mod row are masks, with no wrap case.
    let (d_mask, row_mask) = (plan.stride() - 1, row - 1);
    let w = weights.data();
    let mut mask = vec![0i64; 2 * row];
    for (half, src) in mask.chunks_mut(row).zip(src.chunks(row)) {
        for (s, slot) in half.iter_mut().enumerate() {
            let out = (s + row - shift) & d_mask;
            let col = src[(s + v) & row_mask] as usize;
            if out < spec.no && col < spec.ni {
                *slot = w[out * spec.ni + col];
            }
        }
    }
    mask
}

impl HomFc {
    /// Prepares the layer (encodes and NTT-transforms every live tiled
    /// diagonal), choosing the tiling and the rotation plan from the
    /// parameter set's cost model at level 0 via [`FcPlan::choose`] — the
    /// plan the chain solver prices, at whatever level its record runs.
    ///
    /// `weights` has shape `(no, ni)`.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] unless `1 ≤ n_o ≤ n_i` and the weights are
    /// `(n_o, n_i)`; [`Error::TooManyValues`] when `next_pow2(n_i)`
    /// exceeds the row size.
    pub fn new(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let cost = HeCostParams::for_bfv(eval.params(), 0);
        let structure = FcStructure::analyze_tensor(weights, spec);
        let plan = FcPlan::choose(&structure, encoder.slots(), &cost);
        Self::build(spec, weights, encoder, eval, plan)
    }

    /// Test/benchmark hook: prepares the layer as if its weights had the
    /// structure `assume`, tiled `tiles` times under baby width `baby`
    /// (trimmed to the `δ` tiled diagonals) instead of the cost model's
    /// choices. [`FcStructure::dense`] gives every diagonal a mask, dead
    /// or not; `baby = 1` is the diagonal method in Sched-PA's order,
    /// `baby = δ` its hoisted Sched-IA form; `tiles = 1` is the untiled
    /// layout.
    ///
    /// # Errors
    ///
    /// As [`HomFc::new`], plus [`Error::Unsupported`] for `baby = 0`, a
    /// `tiles` that is not one of [`FcStructure::tilings`], or an `assume`
    /// the weights do not fit: another shape, or a live diagonal called
    /// dead.
    pub fn with_forced_plan(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        assume: &FcStructure,
        baby: usize,
        tiles: usize,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let actual = FcStructure::analyze_tensor(weights, spec);
        let fits = (assume.no(), assume.ni()) == (spec.no, spec.ni)
            && (0..actual.diagonals()).all(|k| assume.is_live(k) || !actual.is_live(k));
        let tiles_fit = assume.tilings(encoder.slots()).any(|r| r == tiles);
        if baby == 0 || !fits || !tiles_fit {
            return Err(Error::Unsupported(
                "forced FC plan does not fit the weights",
            ));
        }
        let cost = HeCostParams::for_bfv(eval.params(), 0);
        let plan = FcPlan::for_tiles(assume, tiles, Some(baby), &cost);
        Self::build(spec, weights, encoder, eval, plan)
    }

    /// Encodes and prepares one mask per tiled diagonal `plan` calls live.
    /// The shape was checked by the caller.
    fn build(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        plan: FcPlan,
    ) -> Result<Self> {
        let row = encoder.row_size();
        let src = plan.src_table(row);
        let masks_of = |_, group: &BsgsGroup| {
            let masks = group.steps.iter().map(|&v| {
                let shift = group.u * plan.b;
                let mask = diagonal_mask(spec, weights, &plan, &src, shift, v as usize, row);
                encoder.encode_signed(&mask)
            });
            masks.collect()
        };
        let kernel = PreparedKernel::prepare(plan.kernel.clone(), plan.label(), eval, masks_of)?;
        Ok(Self {
            spec: spec.clone(),
            plan,
            kernel,
            t: *encoder.params().plain_modulus(),
            row,
        })
    }

    /// The layer spec.
    pub fn spec(&self) -> &FcSpec {
        &self.spec
    }

    /// The whole plan this layer executes: tiling, kernel, live
    /// diagonals, windows.
    pub fn fc_plan(&self) -> &FcPlan {
        &self.plan
    }

    /// The prepared kernel [`HomFc::apply_with_scratch`] runs: the plan's
    /// kernel with this layer's masks.
    pub fn kernel(&self) -> &PreparedKernel {
        &self.kernel
    }

    /// The exact rotation steps this prepared layer performs
    /// ([`BsgsPlan::rotation_steps`]): generate Galois keys for these and
    /// nothing more.
    pub fn rotation_steps(&self) -> Vec<i64> {
        self.plan.rotation_steps()
    }

    /// Packs an input vector into the layout this layer's plan reads: each
    /// of the plan's rows filled with `x[src(ρ, s)]` (the module header's
    /// `src`; zero past `n_i`, and row 1 zero when untiled), so row
    /// rotations are seamless and each mask meets `plan.tiles` folded
    /// diagonals at once.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when the input length is not `n_i`;
    /// propagates encoding errors.
    pub fn encode_input(&self, input: &Tensor, encoder: &BatchEncoder) -> Result<Plaintext> {
        if input.len() != self.spec.ni {
            return Err(Error::Unsupported(
                "FC input length does not match the spec",
            ));
        }
        encoder.encode_signed(&self.plan.input_slots(input.data(), self.row))
    }

    /// Applies the layer: the kernel's partial sums `y_part`, `fold`
    /// windows per output ([`HomFc::output_slots`]) for the decryptor to add
    /// ([`HomFc::decode_output`]) — nothing is gathered under encryption,
    /// and every slot of the plan's rows holds a partial sum (module
    /// header). An all-zero layer returns a transparent zero without a
    /// single rotation or multiply. Every temporary is leased from
    /// `scratch` and handed back ([`PreparedKernel::apply_with_scratch`]),
    /// so a session that keeps one `Scratch` across layers faults its
    /// workspace in once.
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors.
    pub fn apply_with_scratch(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
    ) -> Result<Ciphertext> {
        let outputs = self.kernel.apply_with_scratch(input, eval, keys, scratch)?;
        let [part] = <[Ciphertext; 1]>::try_from(outputs).expect("an FC plan has one chain");
        Ok(part)
    }

    /// The slots whose sum mod `t` is output element `i < n_o`, ascending:
    /// window `i + m·d` of each used row for `m < fold / R`, all inside the
    /// row's first period — row 0's, then (tiled) row 1's.
    pub fn output_slots(&self, i: usize) -> impl Iterator<Item = usize> {
        self.plan.windows(i, self.row)
    }

    /// Extracts the output vector from decoded slots: element `i` is the
    /// sum of its [`HomFc::output_slots`], centred mod `t` — exact on the
    /// layer's own output, and on a download whose mask was shared over
    /// the same windows it yields `y + r`.
    pub fn decode_output(&self, slots: &[i64]) -> Tensor {
        let sum = |i| self.output_slots(i).map(|s| slots[s]).sum();
        let data = (0..self.spec.no)
            .map(|i| self.t.center(self.t.from_signed(sum(i))))
            .collect();
        Tensor::from_data(&[self.spec.no], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator};
    use cheetah_nn::inference::eval_linear;
    use cheetah_nn::LinearLayer;
    use rand::{Rng, SeedableRng};

    fn spec(ni: usize, no: usize) -> FcSpec {
        FcSpec {
            name: "fc".into(),
            ni,
            no,
        }
    }

    struct Ctx {
        encoder: BatchEncoder,
        enc: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        kg: KeyGenerator,
    }

    impl Ctx {
        /// Applies `layer` under keys for exactly its own steps — what a
        /// session generates.
        fn apply(&mut self, layer: &HomFc, ct: &Ciphertext) -> Ciphertext {
            let steps = layer.rotation_steps();
            let keys = self.kg.galois_keys_for_steps(&steps).unwrap();
            layer
                .apply_with_scratch(ct, &self.eval, &keys, &mut self.eval.new_scratch())
                .unwrap()
        }
    }

    fn ctx() -> Ctx {
        let params = BfvParams::builder()
            .degree(4096)
            .plain_bits(16)
            .moduli_bits(&[60])
            .a_dcmp(1 << 6)
            .build()
            .unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 51);
        let pk = kg.public_key().unwrap();
        Ctx {
            encoder: BatchEncoder::new(params.clone()),
            enc: Encryptor::from_public_key(pk, 52),
            dec: Decryptor::new(kg.secret_key().clone()),
            eval: Evaluator::new(params),
            kg,
        }
    }

    fn random_weights(s: &FcSpec, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_data(
            &[s.no, s.ni],
            (0..s.no * s.ni).map(|_| rng.random_range(-5..=5)).collect(),
        )
    }

    /// `input` encrypted in the layout `layer`'s plan reads.
    fn encrypt(c: &mut Ctx, layer: &HomFc, input: &Tensor) -> Ciphertext {
        c.enc
            .encrypt(&layer.encode_input(input, &c.encoder).unwrap())
            .unwrap()
    }

    /// The layer forced to every diagonal live, `tiles` copies and baby
    /// width `baby`.
    fn forced(c: &Ctx, s: &FcSpec, w: &Tensor, baby: usize, tiles: usize) -> HomFc {
        let dense = FcStructure::dense(s.no, s.ni);
        HomFc::with_forced_plan(s, w, &c.encoder, &c.eval, &dense, baby, tiles).unwrap()
    }

    /// The untiled baby width the chooser picks for a dense layer.
    fn dense_baby(c: &Ctx, s: &FcSpec) -> usize {
        let cost = HeCostParams::for_bfv(c.eval.params(), 0);
        BsgsPlan::choose(&FcStructure::dense(s.no, s.ni), &cost).b
    }

    fn decrypt_slots(c: &Ctx, ct: &Ciphertext) -> Vec<i64> {
        c.encoder.decode_signed(&c.dec.decrypt_checked(ct).unwrap())
    }

    /// Every admissible tiling of a dense layer, ascending.
    fn tilings(c: &Ctx, s: &FcSpec) -> Vec<usize> {
        let dense = FcStructure::dense(s.no, s.ni);
        dense.tilings(c.encoder.slots()).collect()
    }

    /// The auto plan and, under every tiling, both diagonal-method corners
    /// against cleartext.
    fn check_fc(spec: &FcSpec) {
        let mut c = ctx();
        let weights = random_weights(spec, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let input = Tensor::from_data(
            &[spec.ni],
            (0..spec.ni).map(|_| rng.random_range(-9..=9)).collect(),
        );
        let expect = eval_linear(&LinearLayer::Fc(spec.clone()), &weights, &input);
        let d = spec.no.next_power_of_two();
        let mut layers = vec![(
            "auto".to_string(),
            HomFc::new(spec, &weights, &c.encoder, &c.eval).unwrap(),
        )];
        for tiles in tilings(&c, spec) {
            for b in [1, d / tiles] {
                let layer = forced(&c, spec, &weights, b, tiles);
                layers.push((format!("tiles={tiles} b={b}"), layer));
            }
        }
        for (what, layer) in layers {
            let ct = encrypt(&mut c, &layer, &input);
            let out_ct = c.apply(&layer, &ct);
            let budget = c.dec.invariant_noise_budget(&out_ct).unwrap();
            assert!(budget > 0.0, "{what}: budget exhausted");
            let slots = c.encoder.decode_signed(&c.dec.decrypt(&out_ct).unwrap());
            assert_eq!(
                layer.decode_output(&slots).data(),
                expect.data(),
                "{what} FC mismatch for ({}, {})",
                spec.ni,
                spec.no
            );
        }
    }

    #[test]
    fn fc_square_both_schedules() {
        check_fc(&spec(16, 16));
    }

    #[test]
    fn fc_rectangular() {
        check_fc(&spec(32, 10));
    }

    #[test]
    fn fc_single_output() {
        check_fc(&spec(8, 1));
    }

    #[test]
    fn fc_padded_input() {
        // n_i = 24 pads to 32 zero columns; n_o = 5 to 8 zero rows.
        check_fc(&spec(24, 5));
    }

    #[test]
    fn tiled_slot_arithmetic_reproduces_the_matrix_product() {
        // The layout, the masks and the windows as plain slot arithmetic,
        // no ciphertext anywhere: for the benchmark and LeNet-300-100
        // shapes, every tiling and a ragged baby width, the windows at
        // stride d from any slot s of a row, in both rows once tiled, add
        // up to (W'·x)[s mod d] — wrap-around included. A rotation turns
        // each row by itself, as a row rotation does.
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let cost = HeCostParams::for_bfv(&params, 0);
        let (row, n) = (encoder.row_size(), encoder.slots());
        let rot = |v: &[i64], k: usize| -> Vec<i64> {
            (0..n).map(|s| v[s / row * row + (s + k) % row]).collect()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x711e);
        for (ni, no) in [
            (1024, 256),
            (256, 64),
            (64, 16),
            (256, 16),
            (784, 300),
            (300, 100),
            (100, 10),
            (2048, 10),
        ] {
            let s = spec(ni, no);
            let w = random_weights(&s, 3);
            let x: Vec<i64> = (0..ni).map(|_| rng.random_range(-9..=9)).collect();
            let y = eval_linear(
                &LinearLayer::Fc(s.clone()),
                &w,
                &Tensor::from_data(&[ni], x.clone()),
            );
            let dense = FcStructure::dense(no, ni);
            for tiles in dense.tilings(n) {
                let delta = dense.diagonals() / tiles;
                for baby in [None, Some(1), Some(delta.min(3))] {
                    let plan = FcPlan::for_tiles(&dense, tiles, baby, &cost);
                    let (b, d, rows) = (plan.kernel.b, plan.stride(), plan.rows());
                    let src = plan.src_table(row);
                    let input: Vec<i64> = (0..n)
                        .map(|slot| match slot / row {
                            rho if rho < rows => x.get(plan.src(rho, slot % row)),
                            _ => None,
                        })
                        .map(|v| v.copied().unwrap_or(0))
                        .collect();
                    let mut part = vec![0i64; n];
                    for u in 0..plan.kernel.g {
                        let mut inner = vec![0i64; n];
                        for v in 0..b.min(delta - u * b) {
                            let mask = diagonal_mask(&s, &w, &plan, &src, u * b, v, row);
                            let baby = rot(&input, v);
                            for slot in 0..n {
                                inner[slot] += baby[slot] * mask[slot];
                            }
                            let row1_zero = mask[row..].iter().all(|&m| m == 0);
                            assert_eq!(row1_zero, tiles == 1, "row 1 is zero iff r = 1");
                        }
                        let giant = rot(&inner, u * b);
                        part.iter_mut().zip(giant).for_each(|(p, g)| *p += g);
                    }
                    let per_row = plan.fold / rows;
                    for slot in 0..row {
                        let folded: i64 = (0..rows * per_row)
                            .map(|m| part[m / per_row * row + (slot + m % per_row * d) % row])
                            .sum();
                        let expect = y.data().get(slot % d).copied().unwrap_or(0);
                        assert_eq!(folded, expect, "({ni}, {no}) {} slot {slot}", plan.label());
                    }
                }
            }
        }
    }

    #[test]
    fn two_row_windows_read_every_column_once() {
        // Pure index arithmetic over every power-of-two (row ≤ 256, n_i',
        // d, r) — r = 1, r = 2 at n_i' = row and r = d among them, 5 208
        // (case, output) pairs: every output's windows
        // in both rows, each summing δ slots of its own row, read every
        // input column exactly once; and every mask slot multiplies the
        // input slot of its own row that holds the column it weighs.
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let cost = HeCostParams::for_bfv(&params, 0);
        let mut cases = 0;
        for row in (1..=8).map(|e| 1usize << e) {
            let n = 2 * row;
            for ni in (0..).map(|e| 1usize << e).take_while(|&ni| ni <= row) {
                for d in (0..).map(|e| 1usize << e).take_while(|&d| d <= ni) {
                    let dense = FcStructure::dense(d, ni);
                    let all: Vec<usize> = dense.tilings(n).collect();
                    assert_eq!(all.last(), Some(&(n / ni).min(d)));
                    for tiles in all {
                        let delta = d / tiles;
                        let plan = FcPlan::for_tiles(&dense, tiles, Some(delta), &cost);
                        let rows = plan.rows();
                        // Which column each slot of the packed input holds.
                        let col = |slot: usize| {
                            (slot / row < rows).then(|| plan.src(slot / row, slot % row))
                        };
                        for i in 0..d {
                            let mut seen = vec![0usize; ni];
                            for w in plan.windows(i, row) {
                                assert_eq!(w % row % d, i, "a window of output {i} off its row");
                                for k in 0..delta {
                                    let c = col(w / row * row + (w % row + k) % row)
                                        .expect("a window reads an unused row");
                                    seen[c] += 1;
                                }
                            }
                            assert!(
                                seen.iter().all(|&m| m == 1),
                                "row={row} ni={ni} d={d} r={tiles} output {i}: {seen:?}"
                            );
                            cases += 1;
                        }
                        // Weight (o, c) encoded as 1 + o·ni + c: slot s of
                        // row ρ of mask k weighs output s mod d and the
                        // column the input holds at slot s + k of its own
                        // row, and an unused row stays zero.
                        let s = spec(ni, d);
                        let w = Tensor::from_data(
                            &[d, ni],
                            (0..d * ni).map(|j| 1 + j as i64).collect(),
                        );
                        let src = plan.src_table(row);
                        for k in 0..delta {
                            let mask = diagonal_mask(&s, &w, &plan, &src, 0, k, row);
                            for (slot, &m) in mask.iter().enumerate() {
                                let read = col(slot / row * row + (slot % row + k) % row);
                                let weighs = (m != 0).then(|| (m as usize - 1) % ni);
                                assert_eq!(weighs, read, "r={tiles} mask {k} slot {slot}");
                                if m != 0 {
                                    assert_eq!((m as usize - 1) / ni, slot % row % d);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 5208);
    }

    /// `src(ρ, s)` as the module header writes it, `mod` and division
    /// and all.
    fn header_src(plan: &FcPlan, rho: usize, s: usize) -> usize {
        let (ni, delta) = (plan.fold * plan.diagonals, plan.diagonals);
        let rows = plan.tiles.min(2);
        let period = plan.tiles / rows * ni;
        ((s % ni) + (rows * ((s % period) / ni) + rho) * delta) % ni
    }

    #[test]
    fn mask_fill_and_input_packing_are_the_header_formulas() {
        // For every tiling from 1 to max_tiles, three baby widths and every
        // live (u, v) of the plan, on dense and half-pruned weights of
        // padded shapes (n_i and n_o not powers of two): the mask the
        // layer prepares is the header's
        //   mask_k[ρ][s] = W'[s mod d][src(ρ, (s + k) mod row)]
        // shifted cyclically right by u·b within each used row, zero in an
        // unused row; and the packed input is x[src(ρ, s)], zero past n_i
        // and in an unused row.
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let cost = HeCostParams::for_bfv(&params, 0);
        let (row, n) = (params.row_size(), params.slots());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf111);
        for (ni, no) in [
            (24, 5),
            (100, 10),
            (300, 100),
            (784, 300),
            (20, 20),
            (1000, 3),
        ] {
            let s = spec(ni, no);
            let d = no.next_power_of_two();
            let dense = random_weights(&s, 5);
            let mut pruned = dense.clone();
            for (j, w) in pruned.data_mut().iter_mut().enumerate() {
                let (r, c) = (j / ni, j % ni);
                if (c + d - r % d) % d % 2 == 1 {
                    *w = 0;
                }
            }
            let x: Vec<i64> = (0..ni).map(|_| rng.random_range(-9..=9)).collect();
            for w in [&dense, &pruned] {
                let structure = FcStructure::analyze_tensor(w, &s);
                for tiles in structure.tilings(n) {
                    let delta = structure.diagonals() / tiles;
                    for baby in [1, 3.min(delta), delta] {
                        let plan = FcPlan::for_tiles(&structure, tiles, Some(baby), &cost);
                        let (b, rows) = (plan.kernel.b, plan.rows());
                        let at = format!("({ni}, {no}) {}", plan.label());
                        let src = plan.src_table(row);
                        for group in plan.kernel.groups() {
                            for &v in &group.steps {
                                let (shift, k) = (group.u * b, group.u * b + v as usize);
                                let mask =
                                    diagonal_mask(&s, w, &plan, &src, shift, v as usize, row);
                                for (slot, &m) in mask.iter().enumerate() {
                                    let (rho, at_s) =
                                        (slot / row, (slot % row + row - shift) % row);
                                    let col = header_src(&plan, rho, (at_s + k) % row);
                                    let (o, c) = (at_s % d, col);
                                    let expect = if rho < rows && o < no && c < ni {
                                        w.data()[o * ni + c]
                                    } else {
                                        0
                                    };
                                    assert_eq!(m, expect, "{at} u={} v={v} slot {slot}", group.u);
                                }
                            }
                        }
                        let packed = plan.input_slots(&x, row);
                        for (slot, &got) in packed.iter().enumerate() {
                            let rho = slot / row;
                            let expect = if rho < rows {
                                x.get(header_src(&plan, rho, slot % row))
                                    .copied()
                                    .unwrap_or(0)
                            } else {
                                0
                            };
                            assert_eq!(got, expect, "{at} input slot {slot}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_input_fills_the_row_exactly() {
        // 2048 → 10 at n = 4096: the x ‖ x layout needed 2·n_i slots and
        // refused this layer; the periodic one needs n_i' ≤ row, and tiles
        // it twice, a copy in each row.
        let s = spec(2048, 10);
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 61);
        let encoder = BatchEncoder::new(params.clone());
        let eval = Evaluator::new(params.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        let weights = Tensor::from_data(
            &[s.no, s.ni],
            (0..s.no * s.ni).map(|_| rng.random_range(-1..=1)).collect(),
        );
        let input = Tensor::from_data(
            &[s.ni],
            (0..s.ni).map(|_| rng.random_range(-3..=3)).collect(),
        );
        let layer = HomFc::new(&s, &weights, &encoder, &eval).unwrap();
        // n_i' = row: one copy in each row, half the masks of one row.
        assert_eq!((layer.fc_plan().tiles, layer.fc_plan().fold), (2, 256));
        assert_eq!(layer.fc_plan().live, 8);
        let keys = kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 63);
        let ct = enc
            .encrypt(&layer.encode_input(&input, &encoder).unwrap())
            .unwrap();
        let out = layer
            .apply_with_scratch(&ct, &eval, &keys, &mut eval.new_scratch())
            .unwrap();
        let dec = Decryptor::new(kg.secret_key().clone());
        let slots = encoder.decode_signed(&dec.decrypt_checked(&out).unwrap());
        let expect = eval_linear(&LinearLayer::Fc(s.clone()), &weights, &input);
        assert_eq!(layer.decode_output(&slots).data(), expect.data());
    }

    #[test]
    fn bsgs_plan_is_chosen_and_reduces_rotation_ntts() {
        // d = 32 diagonals, untiled (square: no fold, the ops of the
        // unfolded engine): the chooser's width must split, perform
        // b + g − 2 rotations, and pay NTT planes for one hoist plus the
        // g − 1 giant steps only — the O(√d) plane-transform headline,
        // pinned against OpCounts.
        let s = spec(32, 32);
        let mut c = ctx();
        let weights = random_weights(&s, 13);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).collect());

        let bsgs = forced(&c, &s, &weights, dense_baby(&c, &s), 1);
        let ct = encrypt(&mut c, &bsgs, &input);
        let plan = bsgs.fc_plan().kernel.clone();
        assert!(plan.b > 1 && plan.g > 1, "√d split expected, got {plan:?}");

        let params = c.eval.params();
        let planes = (params.l_ct_at(0) as u64 + 1) * params.limbs() as u64;
        c.eval.reset_op_counts();
        let out = c.apply(&bsgs, &ct);
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate as usize, plan.b + plan.g - 2);
        assert_eq!(
            counts.ntt,
            planes * plan.g as u64,
            "one hoist + (g−1) giant rotations worth of plane transforms"
        );

        // The diagonal method (b = 1) pays a full rotation per diagonal.
        let diag = forced(&c, &s, &weights, 1, 1);
        c.eval.reset_op_counts();
        let out_diag = c.apply(&diag, &ct);
        let diag_counts = c.eval.op_counts();
        assert_eq!(diag_counts.ntt, planes * (s.ni as u64 - 1));
        assert!(counts.ntt < diag_counts.ntt / 4, "BSGS must slash NTT work");

        // And both decrypt to identical slots.
        assert_eq!(
            decrypt_slots(&c, &out),
            decrypt_slots(&c, &out_diag),
            "BSGS and diagonal outputs diverged"
        );
    }

    #[test]
    fn forced_padding_plan_matches_diagonal_path() {
        // b = 3 over d = 8: the last of the ⌈8/3⌉ = 3 groups is short;
        // output must still match the b = 1 plan slot for slot.
        let s = spec(8, 8);
        let mut c = ctx();
        let weights = random_weights(&s, 17);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| i - 3).collect());
        let ragged = forced(&c, &s, &weights, 3, 1);
        let ct = encrypt(&mut c, &ragged, &input);
        let a = c.apply(&ragged, &ct);
        let b = c.apply(&forced(&c, &s, &weights, 1, 1), &ct);
        assert_eq!(decrypt_slots(&c, &a), decrypt_slots(&c, &b));
        let kernel = &ragged.fc_plan().kernel;
        assert_eq!((kernel.b, kernel.g), (3, 3));
        // Baby steps 1 and 2, then Horner's one giant step b = 3, twice.
        assert_eq!(ragged.rotation_steps(), vec![1, 2, 3]);
        // A width past d is trimmed to d: one group, every step a replay.
        let wide = forced(&c, &s, &weights, 100, 1);
        assert_eq!((wide.fc_plan().kernel.b, wide.fc_plan().kernel.g), (8, 1));
        // Tiled, the same width covers δ = 4 diagonals in two groups and
        // leaves T/d = 2 windows for the client to add: no step reaches d.
        let tiled = forced(&c, &s, &weights, 3, 2);
        assert_eq!(tiled.rotation_steps(), vec![1, 2, 3]);
        let tiled_ct = encrypt(&mut c, &tiled, &input);
        let t = c.apply(&tiled, &tiled_ct);
        assert_eq!(
            tiled.decode_output(&decrypt_slots(&c, &t)).data(),
            ragged.decode_output(&decrypt_slots(&c, &a)).data()
        );
        assert_eq!(
            tiled.fc_plan().label(),
            "fc bsgs tiles=2 b=3 g=2 live=4/4 fold=2"
        );
    }

    #[test]
    fn pa_noise_budget_at_least_ia() {
        // The diagonal method's two corners: b = 1 multiplies the fresh
        // input and rotates the partial (Sched-PA), b = d rotates first and
        // multiplies the noisier result (hoisted Sched-IA).
        let s = spec(32, 8);
        let mut c = ctx();
        let weights = random_weights(&s, 10);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).collect());
        let pa = forced(&c, &s, &weights, 1, 1);
        let ct = encrypt(&mut c, &pa, &input);
        let pa = c.apply(&pa, &ct);
        let ia = c.apply(&forced(&c, &s, &weights, 8, 1), &ct);
        let pa_budget = c.dec.invariant_noise_budget(&pa).unwrap();
        let ia_budget = c.dec.invariant_noise_budget(&ia).unwrap();
        assert!(
            pa_budget >= ia_budget,
            "PA {pa_budget:.1} vs IA {ia_budget:.1}"
        );
    }

    /// Square weights (diagonals independent) with exactly `live`
    /// diagonals populated from `rng`.
    fn sparse_square_weights(ni: usize, live: &[usize], rng: &mut rand::rngs::StdRng) -> Tensor {
        let mut w = vec![0i64; ni * ni];
        for &k in live {
            for off in 0..ni {
                let mut v = 0;
                while v == 0 {
                    v = rng.random_range(-5..=5);
                }
                w[(off % ni) * ni + (off + k) % ni] = v;
            }
        }
        Tensor::from_data(&[ni, ni], w)
    }

    #[test]
    fn sparse_fc_matches_dense_and_skips_dead_rotations() {
        let s = spec(32, 32);
        let mut c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let weights = sparse_square_weights(s.ni, &[0, 5, 11, 19, 30], &mut rng);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| i - 16).collect());
        let structure = FcStructure::analyze_tensor(&weights, &s);
        let cost = HeCostParams::for_bfv(c.eval.params(), 0);

        // Under every tiling: the plan over the live tiled diagonals
        // against the same weights with every diagonal given a mask, under
        // the width the cost model picks for the dense layer there.
        for tiles in tilings(&c, &s) {
            let tiled = structure.tiled(tiles);
            let b = BsgsPlan::choose(&tiled, &cost).b;
            let sparse =
                HomFc::with_forced_plan(&s, &weights, &c.encoder, &c.eval, &structure, b, tiles)
                    .unwrap();
            let plan = sparse.fc_plan();
            assert_eq!(
                plan.live,
                tiled.live_diagonals(),
                "dead diagonals carry no mask"
            );
            let dense_b = BsgsPlan::choose(&FcStructure::dense(s.no, s.ni).tiled(tiles), &cost).b;
            let dense = forced(&c, &s, &weights, dense_b, tiles);
            let ct = encrypt(&mut c, &sparse, &input);

            c.eval.reset_op_counts();
            let out_sparse = c.apply(&sparse, &ct);
            let sparse_counts = c.eval.op_counts();
            c.eval.reset_op_counts();
            let out_dense = c.apply(&dense, &ct);
            let dense_counts = c.eval.op_counts();

            // Skipped terms are zero polynomials: every slot matches.
            assert_eq!(
                decrypt_slots(&c, &out_sparse),
                decrypt_slots(&c, &out_dense),
                "tiles={tiles}: sparse and all-live outputs diverged"
            );
            assert_eq!(sparse_counts.rotate as usize, plan.rotations());
            assert_eq!(
                (sparse_counts.mul as usize, dense_counts.mul as usize),
                (plan.live, plan.diagonals)
            );
            if tiles == 1 {
                assert_eq!((plan.live, plan.diagonals), (5, 32));
                assert!(
                    sparse_counts.rotate < dense_counts.rotate,
                    "sparse {} vs dense {} rotations",
                    sparse_counts.rotate,
                    dense_counts.rotate
                );
                assert!(sparse_counts.ntt < dense_counts.ntt);
            }
        }
    }

    #[test]
    fn all_zero_fc_is_transparent_and_rotation_free() {
        let s = spec(16, 16);
        let mut c = ctx();
        let weights = Tensor::zeros(&[s.ni, s.ni]);
        let input = Tensor::from_data(&[s.ni], (1..=s.ni as i64).collect());
        let layer = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let ct = encrypt(&mut c, &layer, &input);
        assert!(layer.fc_plan().kernel.is_empty());
        assert!(layer.rotation_steps().is_empty());
        c.eval.reset_op_counts();
        let out = c.apply(&layer, &ct);
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate, 0, "all-zero layer must not rotate");
        assert_eq!(counts.mul, 0);
        assert_eq!(
            out.noise().bound_log2,
            f64::NEG_INFINITY,
            "all-zero layer outputs transparent zero"
        );
        let slots = c.encoder.decode_signed(&c.dec.decrypt(&out).unwrap());
        assert!(slots.iter().all(|&v| v == 0));
    }

    #[test]
    fn pow2_weights_are_ordinary_integers_and_stay_exact() {
        let s = spec(16, 16);
        // Live diagonals carry only ±4 and ±8, pruned (four live) and
        // fully live (all sixteen): nothing is factored out of the masks.
        for live in [vec![0usize, 3, 7, 12], (0..16).collect()] {
            let mut c = ctx();
            let mut w = vec![0i64; s.ni * s.ni];
            for (i, &k) in live.iter().enumerate() {
                for off in 0..s.ni {
                    let v = if (off + i) % 2 == 0 { 4 } else { -8 };
                    w[(off % s.ni) * s.ni + (off + k) % s.ni] = v;
                }
            }
            let weights = Tensor::from_data(&[s.ni, s.ni], w);
            let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| 7 - i).collect());
            let layer = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
            let ct = encrypt(&mut c, &layer, &input);
            let out = c.apply(&layer, &ct);
            let expect = eval_linear(&LinearLayer::Fc(s.clone()), &weights, &input);
            let slots = decrypt_slots(&c, &out);
            assert_eq!(layer.decode_output(&slots).data(), expect.data());
            // Forced all-live under the same tiling: same slots.
            let plan = layer.fc_plan();
            let plain = forced(&c, &s, &weights, plan.kernel.b, plan.tiles);
            let out_plain = c.apply(&plain, &ct);
            assert_eq!(slots, decrypt_slots(&c, &out_plain));
        }
    }

    #[test]
    fn unsupported_shapes_are_typed_errors() {
        let c = ctx();
        let try_new = |s: &FcSpec, w: &Tensor| HomFc::new(s, w, &c.encoder, &c.eval).map(|_| ());
        // n_o > n_i, n_o = 0, weights of another shape.
        for (s, w) in [
            (spec(8, 16), Tensor::zeros(&[16, 8])),
            (spec(8, 0), Tensor::zeros(&[1, 8])),
            (spec(16, 4), Tensor::zeros(&[4, 8])),
        ] {
            assert!(
                matches!(try_new(&s, &w), Err(Error::Unsupported(_))),
                "({}, {}) with weights {:?}",
                s.ni,
                s.no,
                w.shape()
            );
        }
        // A wrong-length input is refused, not a panic.
        let layer = HomFc::new(
            &spec(16, 16),
            &Tensor::zeros(&[16, 16]),
            &c.encoder,
            &c.eval,
        );
        let short = Tensor::zeros(&[8]);
        assert!(matches!(
            layer.unwrap().encode_input(&short, &c.encoder),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn forced_plans_that_do_not_fit_the_weights_are_refused() {
        let s = spec(16, 16);
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let weights = sparse_square_weights(s.ni, &[0, 5], &mut rng);
        let try_forced = |assume: &FcStructure, baby: usize, tiles: usize| {
            HomFc::with_forced_plan(&s, &weights, &c.encoder, &c.eval, assume, baby, tiles)
                .map(|_| ())
        };
        let actual = FcStructure::analyze_tensor(&weights, &s);
        assert!(try_forced(&actual, 4, 1).is_ok());
        assert!(try_forced(&actual, 4, 16).is_ok());
        // Baby width 0, another layer's structure, a live diagonal called
        // dead; no copies, a count that is no power of two, more copies
        // than diagonals.
        let other_live = sparse_square_weights(s.ni, &[0], &mut rng);
        for (assume, baby, tiles) in [
            (actual.clone(), 0, 1),
            (FcStructure::dense(8, 16), 4, 1),
            (FcStructure::analyze_tensor(&other_live, &s), 4, 1),
            (actual.clone(), 4, 0),
            (actual.clone(), 4, 3),
            (actual.clone(), 4, 32),
        ] {
            assert!(matches!(
                try_forced(&assume, baby, tiles),
                Err(Error::Unsupported(_))
            ));
        }
    }

    #[test]
    fn oversized_input_rejected() {
        // 2048 columns exceed the 1024-slot row of n = 2048; 1024 fill it.
        let params = BfvParams::builder()
            .degree(2048)
            .plain_bits(20)
            .moduli_bits(&[54])
            .build()
            .unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let eval = Evaluator::new(params);
        assert!(matches!(
            HomFc::new(
                &spec(2048, 10),
                &Tensor::zeros(&[10, 2048]),
                &encoder,
                &eval
            ),
            Err(Error::TooManyValues {
                given: 2048,
                slots: 1024
            })
        ));
        assert!(HomFc::new(
            &spec(1024, 10),
            &Tensor::zeros(&[10, 1024]),
            &encoder,
            &eval
        )
        .is_ok());
    }
}
