//! The integer-multiplication cost model of §IV-A.
//!
//! "HE-PTune's performance model analytically derives the total number of
//! underlying integer multiplications per layer." Every HE operator reduces
//! to modular multiplications and NTT butterflies:
//!
//! * a modular multiplication = 1 product + 5 Barrett-reduction
//!   multiplications ([`MULTS_PER_MODMUL`]);
//! * a Harvey butterfly = 3 multiplications ([`MULTS_PER_BUTTERFLY`]);
//! * an `n`-point NTT = `(n/2)·log2 n` butterflies;
//! * `HE_Mult` = 2 element-wise polynomial multiplications per plaintext
//!   digit, each spanning every limb plane (`2n·l_limbs` modmuls × `l_pt`);
//! * `HE_Rotate` = `2·l_ct` polynomial multiplications +
//!   `(l_ct + 1)·l_limbs` NTT **plane transforms** — an RNS polynomial
//!   transform runs one `n`-point NTT per limb, so multi-limb chains do
//!   `l_limbs×` the NTT work the seed-era model charged.
//!
//! Hybrid (special-prime `P·Q`) key switching runs the same pipeline
//! with a different shape — one digit per live limb, each over `live + 1`
//! key-switch planes — plus one extra stage, the `P`-rescale of the two
//! accumulators. The bill is read off that shape
//! ([`HeCostParams::ks_digits`] × [`HeCostParams::ks_planes`]), less what
//! the engine keeps in evaluation form: each hybrid digit's own plane is
//! scaled rather than transformed, and the rescale transforms only the `P`
//! plane and its lifts onto the live limbs (`ks_planes` per accumulator).
//! So plan choosers ([`crate::sparse::BsgsPlan`], [`crate::linear::FcPlan`],
//! [`crate::linear::ConvPlan`]) price whichever path the chain runs.
//!
//! These constants match the real engine: `cheetah-bfv`'s Barrett reduction
//! performs exactly four partial products plus the `t·q` product, its NTT
//! uses three-multiplication Shoup butterflies, and its `OpCounts::ntt`
//! counter tallies the same plane transforms this model predicts.

/// Integer multiplications per modular multiplication
/// (1 operand product + 5 for Barrett reduction).
pub const MULTS_PER_MODMUL: u64 = 6;

/// Integer multiplications per NTT butterfly (Harvey).
pub const MULTS_PER_BUTTERFLY: u64 = 3;

/// Parameters the cost model needs from an HE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeCostParams {
    /// Polynomial degree `n`.
    pub n: usize,
    /// Plaintext decomposition levels `l_pt` (1 = no decomposition).
    pub l_pt: usize,
    /// Ciphertext decomposition levels `l_ct` (total per-limb digits
    /// `Σ_i ceil(log_A q_i)` for an RNS chain).
    pub l_ct: usize,
    /// RNS limb count `l_limbs` of the ciphertext modulus (1 for the
    /// classic single-word `q`). Every polynomial transform and pointwise
    /// multiplication spans this many planes.
    pub limbs: usize,
    /// Whether key switching runs the hybrid special-prime path: one digit
    /// per live limb over `limbs + 1` key-switch planes (the `P` plane)
    /// instead of `l_ct` base-`A` digits over `limbs` planes.
    pub hybrid: bool,
}

impl HeCostParams {
    /// Cost parameters of a real parameter set **at a level** of its
    /// modulus chain: `level` limbs dropped leaves `limbs - level` live
    /// planes and the live digit count `l_ct(level)`. Level 0 reproduces
    /// the full-chain costs; deeper levels are how the model prices the
    /// cheaper tail of a leveled circuit (every entry below scales with
    /// the live counts). The engine multiplies undecomposed plaintexts, so
    /// `l_pt = 1`; windowed points are HE-PTune's to price.
    ///
    /// # Panics
    ///
    /// Panics for a level past the chain's deepest.
    pub fn for_bfv(params: &cheetah_bfv::BfvParams, level: usize) -> Self {
        Self {
            n: params.degree(),
            l_pt: 1,
            l_ct: params.l_ct_at(level),
            limbs: params.live_limbs_at(level),
            hybrid: params.has_special(),
        }
    }

    /// Digits per key switch on the path this chain actually runs: `l_ct`
    /// base-`A` digits on the decomposition path, one per live limb on the
    /// hybrid path.
    pub fn ks_digits(&self) -> usize {
        if self.hybrid {
            self.limbs
        } else {
            self.l_ct
        }
    }

    /// Planes each key-switch pointwise product spans: the live limbs,
    /// plus the special `P` plane on the hybrid path.
    pub fn ks_planes(&self) -> usize {
        self.limbs + usize::from(self.hybrid)
    }

    /// Integer multiplications in one `n`-point NTT plane transform:
    /// `3 · (n/2) · log2(n)`.
    pub fn ntt_mults(&self) -> u64 {
        let n = self.n as u64;
        MULTS_PER_BUTTERFLY * (n / 2) * n.ilog2() as u64
    }

    /// Integer multiplications in one `HE_Mult` (pt-ct with `l_pt` digits):
    /// `l_pt · 2n · l_limbs` modular multiplications (pointwise products
    /// run on every limb plane). No NTTs — Cheetah keeps operands in the
    /// evaluation domain.
    pub fn he_mult_mults(&self) -> u64 {
        self.l_pt as u64 * 2 * self.n as u64 * self.limbs as u64 * MULTS_PER_MODMUL
    }

    /// Pointwise modular multiplications in one key switch: `2·digits`
    /// polynomial products, each spanning every key-switch plane.
    pub fn ks_pointwise_mults(&self) -> u64 {
        2 * self.ks_digits() as u64 * self.n as u64 * self.ks_planes() as u64 * MULTS_PER_MODMUL
    }

    /// Integer multiplications in one `HE_Rotate`: the key-switch
    /// pointwise products plus [`HeCostParams::ntts_per_rotate`] NTT
    /// plane transforms.
    pub fn he_rotate_mults(&self) -> u64 {
        self.ks_pointwise_mults() + self.ntts_per_rotate() * self.ntt_mults()
    }

    /// NTT plane transforms per `HE_Rotate`: a key switch's front half
    /// ([`HeCostParams::ntts_per_hoist`]) plus its back half
    /// ([`HeCostParams::ntts_per_rotate_hoisted`]) — a direct rotation is
    /// a hoist of the permuted `c1` followed by one replay. On a digit
    /// chain that is `(l_ct + 1)·l_limbs`; the seed-era model charged
    /// `l_ct + 1` regardless of the chain length, under-counting
    /// multi-limb NTT work by a factor of `l_limbs`.
    ///
    /// A rotation *set* over one source ciphertext pays the front once
    /// and the back per step — the split that makes BSGS layers
    /// priceable.
    pub fn ntts_per_rotate(&self) -> u64 {
        self.ntts_per_hoist() + self.ntts_per_rotate_hoisted()
    }

    /// NTT plane transforms in one hoist (`Evaluator::hoist_into`), the key
    /// switch's front half, paid **once** for an entire same-source
    /// rotation set: the `c1` INTT over the live planes plus one forward
    /// transform per digit over every key-switch plane,
    /// `l_limbs + ks_digits·ks_planes` — except, on a hybrid chain, each
    /// digit's own plane, which the engine writes in evaluation form:
    /// `l_limbs + ks_digits·(ks_planes − 1)`.
    pub fn ntts_per_hoist(&self) -> u64 {
        let planes = self.ks_planes() - usize::from(self.hybrid);
        (self.limbs + self.ks_digits() * planes) as u64
    }

    /// NTT plane transforms in one hoisted replay
    /// (`Evaluator::rotate_hoisted_into`), the key switch's back half:
    /// zero on a digit chain (only slot permutations and the key-switch
    /// inner products remain). The hybrid arm is the engine's rescale
    /// tail, run per step in evaluation form: per accumulator, the INTT of
    /// the `P` plane and one NTT of its lift onto each of the
    /// `ks_planes − 1` data planes, `2·ks_planes`.
    pub fn ntts_per_rotate_hoisted(&self) -> u64 {
        if self.hybrid {
            2 * self.ks_planes() as u64
        } else {
            0
        }
    }

    /// Integer multiplications in one **hoisted** `HE_Rotate` replay: the
    /// key-switch pointwise products plus (hybrid only) the per-step
    /// rescale transforms.
    pub fn he_rotate_hoisted_mults(&self) -> u64 {
        self.ks_pointwise_mults() + self.ntts_per_rotate_hoisted() * self.ntt_mults()
    }

    /// Integer multiplications in one hoist: pure NTT plane-transform work.
    pub fn hoist_mults(&self) -> u64 {
        self.ntts_per_hoist() * self.ntt_mults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntt_mults_formula() {
        let p = HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct: 3,
            limbs: 1,
            hybrid: false,
        };
        assert_eq!(p.ntt_mults(), 3 * 2048 * 12);
    }

    #[test]
    fn he_mult_scales_with_l_pt() {
        let base = HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct: 3,
            limbs: 1,
            hybrid: false,
        };
        let windowed = HeCostParams { l_pt: 3, ..base };
        assert_eq!(windowed.he_mult_mults(), 3 * base.he_mult_mults());
        assert_eq!(base.he_mult_mults(), 2 * 4096 * 6);
    }

    #[test]
    fn rotate_cost_structure() {
        let p = HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct: 3,
            limbs: 1,
            hybrid: false,
        };
        let expect = 2 * 3 * 4096 * 6 + 4 * p.ntt_mults();
        assert_eq!(p.he_rotate_mults(), expect);
        assert_eq!(p.ntts_per_rotate(), 4);
    }

    #[test]
    fn multi_limb_chains_scale_plane_counts() {
        // The op-count bugfix: each digit NTT and the c1 INTT transform
        // every limb plane, so a 3-limb chain does 3x the plane
        // transforms (and 3x the pointwise work) of a 1-limb chain with
        // the same digit count.
        let single = HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct: 6,
            limbs: 1,
            hybrid: false,
        };
        let three = HeCostParams { limbs: 3, ..single };
        assert_eq!(three.ntts_per_rotate(), 3 * single.ntts_per_rotate());
        assert_eq!(three.he_rotate_mults(), 3 * single.he_rotate_mults());
        assert_eq!(three.he_mult_mults(), 3 * single.he_mult_mults());
        // The per-plane transform cost itself is limb-independent.
        assert_eq!(three.ntt_mults(), single.ntt_mults());
    }

    #[test]
    fn per_level_accounting_matches_live_counts() {
        // Level 1 of the 3x36 preset: two live limbs, the live digit
        // prefix — strictly cheaper rotations than level 0, and exactly
        // the counts the engine's OpCounts reports at that level.
        let params = cheetah_bfv::BfvParams::preset_rns_3x36(4096).unwrap();
        let full = HeCostParams::for_bfv(&params, 0);
        let lvl1 = HeCostParams::for_bfv(&params, 1);
        assert_eq!(full.limbs, 3);
        assert_eq!(full.l_ct, params.l_ct_at(0));
        assert_eq!(lvl1.limbs, 2);
        assert_eq!(lvl1.l_ct, params.l_ct_at(1));
        assert!(lvl1.ntts_per_rotate() < full.ntts_per_rotate());
        assert!(lvl1.he_rotate_mults() < full.he_rotate_mults());
        assert!(lvl1.he_mult_mults() < full.he_mult_mults());
        // Deepest level: one live limb.
        let bottom = HeCostParams::for_bfv(&params, params.max_level());
        assert_eq!(bottom.limbs, 1);
    }

    #[test]
    fn hoisted_direct_split_prices_bsgs_sets() {
        let p = HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct: 10,
            limbs: 2,
            hybrid: false,
        };
        // The hoist costs exactly one direct rotation's transform bill;
        // replays cost its pointwise bill and zero NTTs.
        assert_eq!(p.ntts_per_hoist(), p.ntts_per_rotate());
        assert_eq!(p.ntts_per_rotate_hoisted(), 0);
        assert_eq!(
            p.hoist_mults() + p.he_rotate_hoisted_mults(),
            p.he_rotate_mults()
        );
        // A √d × √d BSGS set (one hoist, 7 replays, 7 direct giant steps)
        // is strictly cheaper than d − 1 direct rotations for d = 64.
        let direct = 63 * p.he_rotate_mults();
        let bsgs = p.hoist_mults() + 7 * p.he_rotate_hoisted_mults() + 7 * p.he_rotate_mults();
        assert!(bsgs < direct, "BSGS {bsgs} must beat direct {direct}");
    }

    #[test]
    fn hybrid_pricing_matches_engine_bills() {
        // hybrid_2x36-shaped point: 2 live data limbs plus the P plane.
        let h = HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct: 4,
            limbs: 2,
            hybrid: true,
        };
        assert_eq!(h.ks_digits(), 2);
        assert_eq!(h.ks_planes(), 3);
        // live² + 3·live + 2 = (live + 1)(live + 2): a front of
        // live² + live and a rescale of 2·(live + 1).
        assert_eq!(h.ntts_per_rotate(), 2 * 2 + 3 * 2 + 2);
        assert_eq!(h.ntts_per_hoist(), 2 * 2 + 2);
        assert_eq!(h.ntts_per_rotate_hoisted(), 2 * (2 + 1));
        // Hoist + replay = direct, in transforms and in total mults —
        // the same conservation the digit path satisfies, with the
        // per-step P-rescale transforms living in the replay.
        assert_eq!(
            h.ntts_per_hoist() + h.ntts_per_rotate_hoisted(),
            h.ntts_per_rotate()
        );
        assert_eq!(
            h.hoist_mults() + h.he_rotate_hoisted_mults(),
            h.he_rotate_mults()
        );
        // Against the equal-total-plane digit preset (3 data limbs,
        // rns_3x36's l_ct = 6), the hybrid transform bill wins.
        let d = HeCostParams {
            l_ct: 6,
            limbs: 3,
            hybrid: false,
            ..h
        };
        assert!(h.ntts_per_rotate() < d.ntts_per_rotate());
    }

    #[test]
    fn for_bfv_flags_hybrid_chains() {
        let params = cheetah_bfv::BfvParams::preset_hybrid_2x36(4096).unwrap();
        let full = HeCostParams::for_bfv(&params, 0);
        assert!(full.hybrid);
        assert_eq!(full.limbs, 2);
        assert_eq!(full.ntts_per_rotate(), 12);
        let lvl1 = HeCostParams::for_bfv(&params, 1);
        assert_eq!(lvl1.ntts_per_rotate(), 6);
        // Hybrid replays are NOT transform-free — BSGS pricing must see
        // the per-step rescale or it will over-hoist.
        assert!(full.ntts_per_rotate_hoisted() > 0);
        let digit =
            HeCostParams::for_bfv(&cheetah_bfv::BfvParams::preset_rns_3x36(4096).unwrap(), 0);
        assert!(!digit.hybrid);
        assert!(full.ntts_per_rotate() < digit.ntts_per_rotate());
    }

    #[test]
    fn ntt_dominates_rotate_cost() {
        // The Fig. 7 observation: NTT is the bottleneck inside rotations.
        let p = HeCostParams {
            n: 8192,
            l_pt: 1,
            l_ct: 3,
            limbs: 1,
            hybrid: false,
        };
        let ntts = (p.l_ct as u64 + 1) * p.ntt_mults();
        let poly = p.he_rotate_mults() - ntts;
        assert!(ntts > poly, "NTT {ntts} should exceed pointwise {poly}");
    }
}
