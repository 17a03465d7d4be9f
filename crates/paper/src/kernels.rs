//! The HE kernels, priced two ways: measured on the BFV engine (§VI) and
//! modeled as HLS hardware (§VIII-A).
//!
//! ## Measured latencies ([`KernelTimer`])
//!
//! The Fig. 7 profile multiplies *measured* kernel times by *modeled*
//! kernel counts (Table IV), reproducing the paper's methodology at
//! tractable scale: the paper ran the full 970-second ResNet50 inference
//! under SEAL and attributed time with a profiler; we measure each hot
//! kernel directly (they are the same kernels) and scale by the same
//! per-layer counts its DSE uses.
//!
//! ## HLS cost model ([`evaluate`])
//!
//! The paper builds each HE kernel (`HE_Mult`, `HE_Add`, and `HE_Rotate`
//! split into Swap / INTT / Decompose / NTT / SIMDMult / Compose) with
//! Catapult HLS against a 40 nm library at 400 MHz, sweeping memory
//! bandwidth, datapath parallelism (unrolling), and pipelining (initiation
//! interval). Neither the HLS tool nor the cell library exists here, so
//! this module substitutes a first-order analytical model with the same
//! parameter space:
//!
//! * latency = `ceil(work / unroll) · II + pipeline depth` cycles;
//! * area = datapath units × per-unit area + banked SRAM, where small
//!   SRAM banks pay the ≈2.5× bit-density penalty the paper measures for
//!   128×60 vs 1024×60 arrays;
//! * power = switching energy × activity + SRAM access energy + leakage.
//!
//! Constants are representative 40 nm figures; EXPERIMENTS.md records the
//! calibration. The DSE *mechanism* — sweep, extract Pareto, feed the
//! architecture simulator — is the paper's, reproduced exactly.

use std::collections::HashMap;
use std::time::Instant;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
    PreparedPlaintext, SecurityLevel,
};

/// The hardware kernels of the Lane datapath (Fig. 9c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Forward NTT (Harvey butterflies, strided SRAM access).
    Ntt,
    /// Inverse NTT.
    Intt,
    /// Element-wise modular multiplication (`HE_Mult`, key-switch products).
    SimdMult,
    /// Element-wise modular addition (partial reduction network).
    SimdAdd,
    /// NTT-domain Galois permutation.
    Swap,
    /// Digit decomposition (base `A_dcmp`).
    Decompose,
    /// Digit recomposition.
    Compose,
}

impl KernelKind {
    /// All kernels, in Lane dataflow order.
    pub const ALL: [KernelKind; 7] = [
        KernelKind::SimdMult,
        KernelKind::Swap,
        KernelKind::Intt,
        KernelKind::Decompose,
        KernelKind::Ntt,
        KernelKind::Compose,
        KernelKind::SimdAdd,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Ntt => "NTT",
            KernelKind::Intt => "INTT",
            KernelKind::SimdMult => "SIMDmult",
            KernelKind::SimdAdd => "SIMDadd",
            KernelKind::Swap => "Swap",
            KernelKind::Decompose => "Decompose",
            KernelKind::Compose => "Compose",
        }
    }

    /// Whether the kernel needs internal staging SRAM (strided access) —
    /// true for the transforms, false for streaming kernels (§VII-A2).
    pub fn needs_sram(&self) -> bool {
        matches!(self, KernelKind::Ntt | KernelKind::Intt)
    }
}

/// A microarchitectural design point for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelDesign {
    /// Which kernel.
    pub kind: KernelKind,
    /// Polynomial degree processed per invocation.
    pub n: usize,
    /// Datapath parallelism (operations per cycle).
    pub unroll: u32,
    /// Initiation interval (cycles between issues).
    pub ii: u32,
    /// Clock frequency in MHz (the paper targets 400).
    pub clock_mhz: f64,
}

/// Modeled cost of a kernel design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Latency per invocation, cycles.
    pub cycles: u64,
    /// Latency per invocation, seconds.
    pub latency_s: f64,
    /// Average power while active, watts @40 nm.
    pub power_w: f64,
    /// Datapath (compute) area, mm² @40 nm.
    pub compute_area_mm2: f64,
    /// SRAM area, mm² @40 nm.
    pub sram_area_mm2: f64,
    /// Internal SRAM bandwidth requirement, GB/s.
    pub sram_bw_gbps: f64,
    /// Energy per invocation, joules @40 nm.
    pub energy_j: f64,
}

impl KernelCost {
    /// Total area (compute + SRAM), mm² @40 nm.
    pub fn area_mm2(&self) -> f64 {
        self.compute_area_mm2 + self.sram_area_mm2
    }
}

// ---- 40 nm cost constants -------------------------------------------------

/// Area of one Harvey butterfly datapath (3 × 64-bit multipliers + adders),
/// mm² @40 nm.
const BUTTERFLY_AREA_MM2: f64 = 0.12;
/// Energy per butterfly operation, joules @40 nm.
const BUTTERFLY_ENERGY_J: f64 = 45.0e-12;
/// Area of one Barrett modular multiplier, mm² @40 nm.
const MODMUL_AREA_MM2: f64 = 0.018;
/// Energy per modular multiplication, joules @40 nm.
const MODMUL_ENERGY_J: f64 = 12.0e-12;
/// Area of one modular adder / mux / shifter lane, mm² @40 nm.
const SIMPLE_AREA_MM2: f64 = 0.0015;
/// Energy per simple lane operation, joules @40 nm.
const SIMPLE_ENERGY_J: f64 = 1.0e-12;
/// Large-array SRAM density, mm² per bit @40 nm (1024×60-class arrays).
const SRAM_MM2_PER_BIT_LARGE: f64 = 0.4e-6;
/// Small-array penalty: 128×60-class arrays are ≈2.5× less dense (§VIII-B3).
const SRAM_SMALL_PENALTY: f64 = 2.5;
/// Rows below which an SRAM bank pays the small-array penalty.
const SRAM_SMALL_ROWS: usize = 256;
/// SRAM read/write energy per 64-bit word, joules @40 nm.
const SRAM_ENERGY_PER_WORD_J: f64 = 8.0e-12;
/// Leakage power density, W/mm² @40 nm.
const LEAKAGE_W_PER_MM2: f64 = 0.004;
/// Pipeline fill depth, cycles.
const PIPELINE_DEPTH: u64 = 32;

/// Evaluates the cost model for a design point.
///
/// # Panics
///
/// Panics on zero unroll/ii or a non-power-of-two `n`.
pub fn evaluate(design: &KernelDesign) -> KernelCost {
    assert!(design.unroll >= 1 && design.ii >= 1);
    assert!(design.n.is_power_of_two() && design.n >= 8);
    let n = design.n as f64;
    let log_n = design.n.ilog2() as f64;
    let clock_hz = design.clock_mhz * 1e6;

    // Work items and per-item datapath characteristics.
    let (work_items, unit_area, unit_energy, words_per_item) = match design.kind {
        KernelKind::Ntt | KernelKind::Intt => (
            (n / 2.0) * log_n,
            BUTTERFLY_AREA_MM2,
            BUTTERFLY_ENERGY_J,
            4.0,
        ),
        KernelKind::SimdMult => (n, MODMUL_AREA_MM2, MODMUL_ENERGY_J, 3.0),
        KernelKind::SimdAdd => (n, SIMPLE_AREA_MM2, SIMPLE_ENERGY_J, 3.0),
        KernelKind::Swap => (n, SIMPLE_AREA_MM2, SIMPLE_ENERGY_J, 2.0),
        KernelKind::Decompose => (n, SIMPLE_AREA_MM2 * 2.0, SIMPLE_ENERGY_J * 2.0, 2.0),
        KernelKind::Compose => (n, MODMUL_AREA_MM2, MODMUL_ENERGY_J, 3.0),
    };

    let issue_slots = (work_items / design.unroll as f64).ceil() as u64;
    let cycles = issue_slots * design.ii as u64 + PIPELINE_DEPTH;
    let latency_s = cycles as f64 / clock_hz;

    let compute_area_mm2 = design.unroll as f64 * unit_area;

    // SRAM: transforms double-buffer the polynomial and hold twiddles,
    // banked so each unrolled unit gets conflict-free access. More unroll
    // => more, smaller banks => worse density (the Fig. 11c effect).
    let (sram_area_mm2, sram_bw_gbps, small_banks) = if design.kind.needs_sram() {
        // Double-buffered data + twiddle factors with Shoup companions.
        let bits = (2.0 * n + 2.0 * n) * 64.0;
        let banks = (2 * design.unroll) as usize;
        let rows_per_bank = (design.n / banks.max(1)).max(1);
        let density = if rows_per_bank < SRAM_SMALL_ROWS {
            SRAM_MM2_PER_BIT_LARGE * SRAM_SMALL_PENALTY
        } else {
            SRAM_MM2_PER_BIT_LARGE
        };
        let bw = design.unroll as f64 * words_per_item * 8.0 * clock_hz / design.ii as f64 / 1e9;
        (bits * density, bw, rows_per_bank < SRAM_SMALL_ROWS)
    } else {
        (0.0, 0.0, false)
    };

    // Energy: datapath + SRAM word movement; power = energy / latency +
    // leakage over the full footprint.
    let sram_energy = if design.kind.needs_sram() {
        // Heavily banked (small) arrays cost more energy per access.
        let bank_penalty = if small_banks { 1.5 } else { 1.0 };
        work_items * words_per_item * SRAM_ENERGY_PER_WORD_J * bank_penalty
    } else {
        0.0
    };
    // Wide datapaths pay fanout/mux energy: ~10% per doubling of unroll.
    let fanout = 1.0 + 0.1 * (design.unroll as f64).log2();
    let energy_j = work_items * unit_energy * fanout + sram_energy;
    let leakage_w = (compute_area_mm2 + sram_area_mm2) * LEAKAGE_W_PER_MM2;
    let power_w = energy_j / latency_s + leakage_w;

    KernelCost {
        cycles,
        latency_s,
        power_w,
        compute_area_mm2,
        sram_area_mm2,
        sram_bw_gbps,
        energy_j: energy_j + leakage_w * latency_s,
    }
}

/// Measured seconds per kernel invocation at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTimes {
    /// One forward/inverse NTT.
    pub ntt_s: f64,
    /// One `HE_Mult` (2 pointwise polynomial multiplications), `l_pt = 1`.
    pub mult_s: f64,
    /// One `HE_Add`.
    pub add_s: f64,
    /// One `HE_Rotate`, *excluding* its internal NTTs (they are attributed
    /// to the NTT bucket, as in Fig. 7).
    pub rotate_excl_ntt_s: f64,
    /// One full `HE_Rotate` including NTTs.
    pub rotate_total_s: f64,
    /// One hoist (`Evaluator::hoist_into`): the INTT + decompose + digit
    /// NTT precomputation a same-source rotation set shares.
    pub hoist_s: f64,
    /// One hoisted rotation replay (`Evaluator::rotate_hoisted_into`):
    /// permutations + key-switch inner products, zero NTTs — the marginal
    /// cost of each extra baby step in a BSGS layer.
    pub rotate_hoisted_s: f64,
    /// Per-operation bookkeeping overhead (allocation/copy) — the "Other"
    /// sliver of Fig. 7.
    pub other_s: f64,
}

/// Key identifying a measurement configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Polynomial degree.
    pub n: usize,
    /// Ciphertext modulus bits.
    pub q_bits: u32,
    /// `log2(A_dcmp)` (sets `l_ct`, the rotate cost).
    pub a_dcmp_log2: u32,
}

/// Lazily measures and caches kernel times per configuration.
#[derive(Debug, Default)]
pub struct KernelTimer {
    cache: HashMap<KernelConfig, KernelTimes>,
    /// Repetitions per measurement (higher = steadier).
    pub reps: u32,
}

impl KernelTimer {
    /// Creates a timer with the given repetition count.
    pub fn new(reps: u32) -> Self {
        Self {
            cache: HashMap::new(),
            reps: reps.max(1),
        }
    }

    /// Measures (or returns cached) kernel times for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot be instantiated (no NTT prime).
    pub fn measure(&mut self, cfg: KernelConfig) -> KernelTimes {
        if let Some(t) = self.cache.get(&cfg) {
            return *t;
        }
        let times = measure_kernels(cfg, self.reps);
        self.cache.insert(cfg, times);
        times
    }
}

struct Bench {
    params: BfvParams,
    eval: Evaluator,
    keys: GaloisKeys,
    ct: Ciphertext,
    ct2: Ciphertext,
    pt: PreparedPlaintext,
}

fn setup(cfg: KernelConfig) -> Bench {
    let params = BfvParams::builder()
        .degree(cfg.n)
        .plain_bits(17)
        .cipher_bits(cfg.q_bits)
        .a_dcmp(1u64 << cfg.a_dcmp_log2)
        // Sweeps cover insecure corners too; the timer must still run them.
        .security(SecurityLevel::None)
        .build()
        .expect("kernel-timing parameters must instantiate");
    let mut kg = KeyGenerator::from_seed(params.clone(), 2024);
    let pk = kg.public_key().expect("public key");
    let keys = kg.galois_keys_for_steps(&[1]).expect("galois key");
    let encoder = BatchEncoder::new(params.clone());
    let mut enc = Encryptor::from_public_key(pk, 7);
    let eval = Evaluator::new(params.clone());
    let values: Vec<u64> = (0..cfg.n as u64).collect();
    let pt_raw = encoder.encode(&values).expect("encode");
    let ct = enc.encrypt(&pt_raw).expect("encrypt");
    let ct2 = enc.encrypt(&pt_raw).expect("encrypt");
    let pt = eval.prepare_plaintext_at(&pt_raw, 0).expect("prepare");
    Bench {
        params,
        eval,
        keys,
        ct,
        ct2,
        pt,
    }
}

fn time_loop<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    // One warmup.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn measure_kernels(cfg: KernelConfig, reps: u32) -> KernelTimes {
    let b = setup(cfg);
    // One limb-plane transform of the first chain limb — the scalar NTT
    // unit the Fig. 7 attribution multiplies by modeled counts.
    let table = b.params.chain().table(0);

    let mut scratch: Vec<u64> = b.ct.c0().limb(0).to_vec();
    let ntt_s = time_loop(reps, || {
        table.forward(&mut scratch);
    });

    // Each operator writes a fresh output: a clone of its input, or a new one.
    let mult_s = time_loop(reps, || {
        b.eval
            .mul_plain_assign(&mut b.ct.clone(), &b.pt)
            .expect("mult");
    });

    let add_s = time_loop(reps, || {
        b.eval.add_assign(&mut b.ct.clone(), &b.ct2).expect("add");
    });

    let mut scratch = b.eval.new_scratch();
    let rotate_total_s = time_loop(reps, || {
        let mut out = Ciphertext::transparent_zero_at(&b.params, 0);
        b.eval
            .rotate_rows_into(&mut out, &b.ct, 1, &b.keys, &mut scratch)
            .expect("rotate");
    });

    // Hoisted-rotation split: the one-time hoist and the per-step replay —
    // what BSGS layers (b − 1 replays + g − 1 direct rotations) are priced
    // from.
    let mut hoisted = cheetah_bfv::HoistedDecomposition::empty(&b.params);
    let hoist_s = time_loop(reps, || {
        b.eval
            .hoist_into(&mut hoisted, &b.ct, &mut scratch)
            .expect("hoist");
    });
    let mut replay_out = Ciphertext::transparent_zero_at(&b.params, 0);
    let rotate_hoisted_s = time_loop(reps, || {
        b.eval
            .rotate_hoisted_into(&mut replay_out, &b.ct, &hoisted, 1, &b.keys, &mut scratch)
            .expect("hoisted replay");
    });

    // Attribute the rotate's internal NTT plane transforms to the NTT
    // bucket (Fig. 7), via the shared per-level cost model (kernel timing
    // runs at level 0; leveled circuits scale by the live counts).
    let ntts_in_rotate =
        cheetah_core::cost::HeCostParams::for_bfv(&b.params, 0).ntts_per_rotate() as f64;
    let rotate_excl_ntt_s = (rotate_total_s - ntts_in_rotate * ntt_s).max(rotate_total_s * 0.05);

    let other_s = time_loop(reps, || {
        let _ = b.ct.clone();
    });

    KernelTimes {
        ntt_s,
        mult_s,
        add_s,
        rotate_excl_ntt_s,
        rotate_total_s,
        hoist_s,
        rotate_hoisted_s,
        other_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ntt(unroll: u32, ii: u32) -> KernelDesign {
        KernelDesign {
            kind: KernelKind::Ntt,
            n: 4096,
            unroll,
            ii,
            clock_mhz: 400.0,
        }
    }

    #[test]
    fn unrolling_trades_area_for_latency() {
        let slow = evaluate(&ntt(1, 1));
        let fast = evaluate(&ntt(64, 1));
        assert!(fast.cycles < slow.cycles / 32);
        assert!(fast.compute_area_mm2 > slow.compute_area_mm2 * 32.0);
        // Energy is roughly conserved (same work), within leakage slack.
        let ratio = fast.energy_j / slow.energy_j;
        assert!((0.5..2.0).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn pipelining_scales_latency() {
        let ii1 = evaluate(&ntt(4, 1));
        let ii4 = evaluate(&ntt(4, 4));
        assert!(ii4.cycles > 3 * (ii1.cycles - PIPELINE_DEPTH));
    }

    #[test]
    fn extreme_unroll_pays_small_sram_penalty() {
        // The paper's Pareto points 0/1: tiny banks are ~2.5x less dense.
        let modest = evaluate(&ntt(4, 1));
        let extreme = evaluate(&ntt(512, 1));
        let density_modest = modest.sram_area_mm2;
        let density_extreme = extreme.sram_area_mm2;
        assert!(
            density_extreme > density_modest * 2.0,
            "banked SRAM should bloat: {density_modest} -> {density_extreme}"
        );
    }

    #[test]
    fn ntt_needs_high_internal_bandwidth() {
        // §VII-A2: "each NTT kernel requires 13 GB/s of combined internal
        // bandwidth" in the worst case — our model should be in that
        // regime for a modest design.
        let c = evaluate(&ntt(1, 1));
        assert!(
            (5.0..30.0).contains(&c.sram_bw_gbps),
            "bandwidth {:.1} GB/s",
            c.sram_bw_gbps
        );
    }

    #[test]
    fn streaming_kernels_have_no_sram() {
        for kind in [
            KernelKind::SimdMult,
            KernelKind::SimdAdd,
            KernelKind::Swap,
            KernelKind::Decompose,
            KernelKind::Compose,
        ] {
            let c = evaluate(&KernelDesign {
                kind,
                n: 4096,
                unroll: 8,
                ii: 1,
                clock_mhz: 400.0,
            });
            assert_eq!(c.sram_area_mm2, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn adds_are_much_cheaper_than_mults() {
        let add = evaluate(&KernelDesign {
            kind: KernelKind::SimdAdd,
            n: 4096,
            unroll: 8,
            ii: 1,
            clock_mhz: 400.0,
        });
        let mult = evaluate(&KernelDesign {
            kind: KernelKind::SimdMult,
            n: 4096,
            unroll: 8,
            ii: 1,
            clock_mhz: 400.0,
        });
        assert!(add.energy_j < mult.energy_j / 5.0);
        assert!(add.compute_area_mm2 < mult.compute_area_mm2 / 5.0);
    }

    #[test]
    fn kernel_times_are_sane() {
        let mut timer = KernelTimer::new(3);
        let t = timer.measure(KernelConfig {
            n: 2048,
            q_bits: 54,
            a_dcmp_log2: 16,
        });
        assert!(t.ntt_s > 0.0);
        assert!(
            t.add_s < t.mult_s,
            "add {:.2e} vs mult {:.2e}",
            t.add_s,
            t.mult_s
        );
        assert!(
            t.rotate_total_s > t.mult_s,
            "rotate {:.2e} should dominate mult {:.2e}",
            t.rotate_total_s,
            t.mult_s
        );
        assert!(t.rotate_excl_ntt_s < t.rotate_total_s);
        // A hoisted replay skips every NTT: it must be measurably cheaper
        // than a full rotation (the BSGS pricing premise).
        assert!(
            t.rotate_hoisted_s < t.rotate_total_s,
            "replay {:.2e} vs rotate {:.2e}",
            t.rotate_hoisted_s,
            t.rotate_total_s
        );
        assert!(t.hoist_s > 0.0);
    }

    #[test]
    fn cache_returns_identical_values() {
        let mut timer = KernelTimer::new(2);
        let cfg = KernelConfig {
            n: 2048,
            q_bits: 54,
            a_dcmp_log2: 16,
        };
        let a = timer.measure(cfg);
        let b = timer.measure(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn larger_degree_costs_more() {
        let mut timer = KernelTimer::new(2);
        let small = timer.measure(KernelConfig {
            n: 2048,
            q_bits: 54,
            a_dcmp_log2: 16,
        });
        let big = timer.measure(KernelConfig {
            n: 8192,
            q_bits: 60,
            a_dcmp_log2: 16,
        });
        assert!(big.ntt_s > small.ntt_s);
        assert!(big.mult_s > small.mult_s);
    }
}
