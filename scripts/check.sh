#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 verify.
#
#   ./scripts/check.sh          # everything
#   ./scripts/check.sh quick    # skip the release build (debug tests only)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings"
# Every intra-doc link resolves and no public doc links a private item: a
# deleted or renamed function that a doc comment still names fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> one-representation gate"
# One FC kernel, one conv kernel, one apply per layer, no simd cargo
# feature: the deleted parallel forms must not grow back.
if git grep -nE 'FcKernelPlan|FcKernel::|apply_threaded|apply_diagonal|apply_bsgs|feature = "simd"|ChannelReduce|apply_partial_aligned|apply_input_aligned|merge_partial_vecs' -- crates src tests examples; then
    echo "FAIL: a deleted parallel representation is back (see matches above)"
    exit 1
fi

echo "==> one-form gate"
# Each engine operation has one public form: in place (_assign) or into a
# caller-owned output (_into), and a level-dependent quantity is asked for
# at an explicit level (_at). A level-0 twin beside an _at function answers
# for the wrong level on a switched ciphertext, and an allocating wrapper
# is a second entry point to the same body; neither may grow back. Two
# twins stay, each for its reason:
#   chain          - the key chain, level 0 by definition (chain_at(0) alike);
#   encrypt_seeded - the benchmark's frozen sources call it.
for file in $(git ls-files 'crates/bfv/src/*.rs'); do
    for base in $(grep -oE 'pub fn [a-z0-9_]+_at\b' "$file" | sed -E 's/^pub fn (.*)_at$/\1/' | sort -u); do
        case "$base" in
            chain | encrypt_seeded) continue ;;
        esac
        if grep -nE "pub fn ${base}[[:space:]]*[(<]" "$file"; then
            echo "FAIL: $file has pub fn ${base}_at and its level-0 twin pub fn ${base} (see match above)"
            exit 1
        fi
    done
done
if awk '/^[[:space:]]*pub fn / { sig = ""; on = 1 }
        on { sig = sig $0 }
        on && /[{;][[:space:]]*$/ {
            if (sig ~ /->[[:space:]]*Result<(Ciphertext|HoistedDecomposition)>/) { print FILENAME ": " sig; found = 1 }
            on = 0
        }
        END { exit !found }' crates/bfv/src/evaluator.rs; then
    echo "FAIL: evaluator.rs has an allocating operation again (see signatures above)"
    exit 1
fi
# Two second forms the pairing above cannot see: the one-term accumulate
# (a one-term mul_plain_accumulate_many) and the into-form of a mod switch
# (copy_from follows the source's level, then mod_switch_to_next_assign).
if grep -nE 'pub fn (mul_plain_accumulate|mod_switch_to_next_into)[[:space:]]*[(<]' crates/bfv/src/evaluator.rs; then
    echo "FAIL: evaluator.rs has a second form of mul_plain_accumulate_many or mod_switch_to_next_assign again (see match above)"
    exit 1
fi

echo "==> one-level-of-parallelism gate"
# Sessions are the unit of parallel work: the ServerPool runs them on its
# worker threads, and a layer runs start to finish on its session's thread
# out of the session's one Scratch. Nothing else in the engine or the
# serving crate starts a thread or sizes itself to the core count, and the
# retired in-layer fork (the chunk splitter, its per-worker scratch, the
# default thread count, Scratch's child pools) stays deleted. The frozen
# benchmark sources may still name it.
if git grep -nE 'thread::(scope|spawn)|available_parallelism|threads: usize' -- crates/core/src crates/serve/src ':!crates/serve/src/pool.rs'; then
    echo "FAIL: a thread is started or counted outside the ServerPool (see matches above)"
    exit 1
fi
if git grep -nE 'map_chunks|WorkerScratch|default_threads|linear::parallel|fn workers\(' -- crates src tests examples ':!crates/bench/src/bin/bench_e2e/'; then
    echo "FAIL: the in-layer thread fork is back (see matches above)"
    exit 1
fi

echo "==> one-inner-product gate"
# Every mask sum and every key switch is one lazy pass
# (RnsPoly::dot_pair_prefix): the evaluator calls no per-term
# fma_pointwise*, and the per-term prefix/pow2 accumulate kernels the dot
# kernel replaced must not grow back.
if git grep -n 'fma_pointwise' -- crates/bfv/src/evaluator.rs; then
    echo "FAIL: evaluator.rs accumulates term by term again (see matches above)"
    exit 1
fi
if git grep -nE 'fma_pointwise_prefix|fma_pow2' -- crates src tests examples; then
    echo "FAIL: a per-term accumulate kernel the dot kernel replaced is back"
    exit 1
fi

echo "==> one-session gate"
# A protocol round has one implementation, the session halves in
# crates/serve (PrivateInferenceSession is a façade over them): only the
# function itself and ServerSession::process_upload may draw a download
# mask. The crossbeam shim and the host-thread "GPU" NTT stay deleted.
mask_drawers=$(git grep -l 'draw_output_mask(' -- crates/serve/src | sort | tr '\n' ' ')
if [[ "$mask_drawers" != "crates/serve/src/model.rs crates/serve/src/session.rs " ]]; then
    echo "FAIL: draw_output_mask( is called outside the one server round: $mask_drawers"
    exit 1
fi
if git grep -n 'crossbeam\|PolyBatch' -- crates src tests examples Cargo.toml; then
    echo "FAIL: the crossbeam shim or PolyBatch is back (see matches above)"
    exit 1
fi

echo "==> one-serving-crate gate"
# The engine depends on no workspace crate, not even for its tests (the
# fault harness is cheetah_bfv::wire::faults), and the retired protocol
# crate and its prepared-layers type stay gone. Only the benchmark's
# sources (unchanged until the benchmark itself is revised) and the
# top-level planning documents (CHANGES.md, ROADMAP.md, …) may still name
# them; the pattern is bracketed so this script does not match itself.
if sed -n '/dependencies\]/,$p' crates/bfv/Cargo.toml | grep -n 'cheetah-'; then
    echo "FAIL: crates/bfv/Cargo.toml depends on a workspace crate (see matches above)"
    exit 1
fi
if git grep -nE 'cheetah[_-]protocol|Prepared[L]ayers' -- . ':!crates/bench/src/bin/bench_e2e/' ':(glob,exclude)*.md'; then
    echo "FAIL: the protocol crate or its prepared-layers type is named again (see matches above)"
    exit 1
fi

echo "==> tier-direction gate"
# Two tiers: the engine (cheetah-bfv, -nn, -core, -serve) runs on
# ciphertexts; the paper tier (cheetah-paper: HE-PTune's models and tuner,
# the speedups, the profile, the accelerator, the GPU study) reads the
# engine through ordinary dependencies. No engine crate depends on the
# paper tier, for its tests either, or names it in its sources, and core's
# retired ptune module stays gone.
for crate in bfv nn core serve; do
    if sed -n '/dependencies\]/,$p' "crates/$crate/Cargo.toml" | grep -n 'cheetah-paper'; then
        echo "FAIL: crates/$crate/Cargo.toml depends on the paper tier (see matches above)"
        exit 1
    fi
done
if git grep -n 'cheetah_paper' -- crates/bfv/src crates/nn/src crates/core/src crates/serve/src; then
    echo "FAIL: an engine crate's sources name the paper tier (see matches above)"
    exit 1
fi
if git grep -nE 'cheetah_core::ptune|core::ptune::' -- crates src tests examples; then
    echo "FAIL: cheetah_core::ptune is named again (see matches above)"
    exit 1
fi

echo "==> one-dispatcher gate"
# Explicit vector intrinsics stay behind cheetah_bfv::simd's dispatcher
# (runtime detection, the bit-identity contract, the scalar reference).
if git grep -l '_mm512_' -- '*.rs' ':!crates/bfv/src/simd.rs'; then
    echo "FAIL: _mm512_ intrinsics outside crates/bfv/src/simd.rs (see files above)"
    exit 1
fi

echo "==> client-side-fold gate"
# An FC layer ships its kernel's partial sums and the client adds them up
# after decryption: no layer folds under encryption, and the rotate-and-sum
# planner that did (ReducePlan, rotate_sum_reduce, and linear/dot.rs, its
# last caller) stays deleted.
if git grep -nE 'rotate_sum_reduce\(|ReducePlan' -- crates src tests examples; then
    echo "FAIL: a server-side rotate-and-sum is back (see matches above)"
    exit 1
fi

echo "==> two-row FC gate"
# An FC layer tiles its input's copies over both batching rows (copy c in
# row c mod 2; a row rotation turns both rows alike): its chooser and
# tilings are asked for the slot count, never one row's, and the
# column-swap rotation stays out of the engine tier.
if git grep -nE '(FcPlan::choose|tilings|max_tiles)\([^)]*(row_size\(|\brow\b)' -- crates/core/src/linear/fc.rs crates/core/src/solver.rs; then
    echo "FAIL: an FC layer is planned over one batching row again (see matches above)"
    exit 1
fi
if git grep -n 'rotate_columns' -- '*.rs'; then
    echo "FAIL: rotate_columns is back in the workspace (see matches above)"
    exit 1
fi

echo "==> one-noise-model gate"
# The chain solver asks the engine instead of modelling it: a layer's noise
# is its kernel plan's noise_after (BsgsPlan's, the function a prepared
# kernel calls with its measured mask norm) and its levels are
# linear::feasible_levels', the runtime planner's rule. The solver's
# private copy of Table III, its own margin and its Schedule argument must
# not grow back.
if git grep -nE 'layer_noise_on_chain|\bPLAN_MARGIN_BITS\b|\bSchedule\b' -- crates/core/src/solver.rs; then
    echo "FAIL: the chain solver models noise, a margin or a schedule of its own again (see matches above)"
    exit 1
fi
if git grep -n 'layer_noise_on_chain' -- crates src tests examples; then
    echo "FAIL: layer_noise_on_chain is back (see matches above)"
    exit 1
fi

echo "==> one-level-rule gate"
# The level a layer runs at (linear::feasible_levels) and the level its
# download ships at (linear::shipping_level) clear one margin,
# LEVEL_PLAN_MARGIN_BITS, defined once beside both rules; the serving
# crate, which applies them, defines no margin of its own. The shipping
# rule has one caller, the round record's builder (solver::LayerPlan::new),
# which the solver and PreparedModel both call (one-round-record gate).
margin_homes=$(git grep -lE '(const|static)[[:space:]]+LEVEL_PLAN_MARGIN_BITS\b' -- '*.rs' | tr '\n' ' ')
if [[ "$margin_homes" != "crates/core/src/linear/mod.rs " ]]; then
    echo "FAIL: LEVEL_PLAN_MARGIN_BITS must be defined once, in crates/core/src/linear/mod.rs: $margin_homes"
    exit 1
fi
if git grep -nE '(const|static)[[:space:]]+[A-Za-z0-9_]*MARGIN[A-Za-z0-9_]*BITS' -- crates/serve/src; then
    echo "FAIL: crates/serve/src defines a margin of its own (see matches above)"
    exit 1
fi

echo "==> one-switch gate"
# A layer's upload arrives at the level the layer runs at: the client
# encrypts it there (PreparedModel::round(k).level, fixed when the model is
# prepared) and the server refuses any other, so a round modulus-switches
# once — the layer's outputs, down to their shipping level — and plans no
# level per upload.
switches=$(grep -o 'mod_switch_to_assign' crates/serve/src/session.rs | wc -l)
if ((switches > 1)); then
    echo "FAIL: crates/serve/src/session.rs calls mod_switch_to_assign $switches times (the ship switch only)"
    exit 1
fi
if grep -n 'plan_level(' crates/serve/src/session.rs; then
    echo "FAIL: crates/serve/src/session.rs plans a level per upload again (see matches above)"
    exit 1
fi

echo "==> one-round-record gate"
# A round's facts are fixed once, when the model is prepared, in one record
# per linear layer (cheetah_core::solver::LayerPlan, built by LayerPlan::new
# for the solver and PreparedModel alike): the level the upload runs at,
# the level the download ships at, and both messages' bytes. The session
# halves execute that record and check every message against it; the
# serving crate's code decides no shipping level and sizes no message from
# the wire module (its test module replays the old rule as the record's
# reference), and the run-time accounting check stays deleted.
if git grep -nE 'shipping_level\(|(seeded_)?ciphertext_wire_bytes\(' -- crates/serve/src ':!crates/serve/src/session/tests.rs'; then
    echo "FAIL: crates/serve/src decides a shipping level or sizes a message itself (see matches above)"
    exit 1
fi
if git grep -n 'check_wire_accounting' -- crates src tests examples; then
    echo "FAIL: check_wire_accounting is back (see matches above)"
    exit 1
fi

echo "==> one-kernel gate"
# A linear layer is its rotations, mask multiplies and adds, and that loop
# exists once: linear/kernel.rs is the only file under linear/ that hoists a
# baby set or forms a group sum (fc.rs and conv.rs lay masks and slots out).
# The pow2 shift-add half of the engine — the Pow2 mask class, the factored
# layer scale, the doubling chains behind mul_plain — was removed on data
# (docs/SPARSE.md) and stays removed, as does the chunk-partial merge the
# kernel's in-order combine replaced; the quantiser
# (Weights::round_to_pow2) is not an engine path and is not matched.
kernel_files=$(git grep -lE 'mul_plain_accumulate_many\(|rotate_set_hoisted_into\(' -- crates/core/src/linear | tr '\n' ' ')
if [[ "$kernel_files" != "crates/core/src/linear/kernel.rs " ]]; then
    echo "FAIL: the rotate-multiply-accumulate loop lives outside linear/kernel.rs: $kernel_files"
    exit 1
fi
if git grep -nE 'Pow2Scalar|pow2_scalar|without_pow2|mul_pow2|POW2_CHAIN_MAX_EXP|pow2_scale_log2|MaskClass::Pow2|merge_partials' -- crates src tests examples; then
    echo "FAIL: a removed pow2 engine name (or merge_partials) is back (see matches above)"
    exit 1
fi

echo "==> one-combine-rule gate"
# A plan's group sums meet one way for both layer kinds: Horner over the
# live groups, rotating the running sum by the gap to the next live group
# (linear/kernel.rs's horner). The per-group combine — each sum rotated
# home under a key of its own, added onto a transparent zero — and the
# enum that chose between the two are gone.
if git grep -nE 'enum Combine|Combine::|PerGroup' -- crates src tests examples ':!crates/bench/src/bin/bench_e2e/'; then
    echo "FAIL: a second combine rule is back (see matches above)"
    exit 1
fi

echo "==> one-key-switch gate"
# permute -> INTT -> decompose -> digit NTTs -> key sum (-> P-rescale) is
# written once, as Evaluator::key_switch_front / key_switch_back, under
# direct, hoisted, digit and hybrid rotations; keygen is one loop. The
# per-path bodies stay deleted, the chains fork only where they differ in
# arithmetic (the decompose arm and the rescale tail in the evaluator, the
# pair scale in keygen; the key's shape is BfvParams::ks_digits_at /
# ks_chain_at, which wire.rs and scratch.rs read), and the NTT-count
# closed forms live in crates/core/src/cost.rs only.
if git grep -nE 'galois_key_switch_hybrid|galois_key_switch\b|hoist_into_hybrid|galois_key_hybrid' -- crates src tests examples; then
    echo "FAIL: a per-path key-switch or keygen body is back (see matches above)"
    exit 1
fi
while read -r file limit; do
    forks=$(grep -c 'has_special()' "crates/bfv/src/$file" || true)
    if ((forks > limit)); then
        echo "FAIL: crates/bfv/src/$file forks on has_special() $forks times (at most $limit)"
        exit 1
    fi
done <<'LIMITS'
evaluator.rs 2
keys.rs 1
wire.rs 0
scratch.rs 0
LIMITS
if grep -nF -e 'live * live + 6 * live' -e 'live * live + 2 * live' -e '4 * live + 2' crates/bfv/src/evaluator.rs; then
    echo "FAIL: evaluator.rs carries an NTT-count closed form again (cost.rs is their home)"
    exit 1
fi

echo "==> one-divide-and-round gate"
# HE_ModSwitch and the hybrid P-rescale are one evaluation-form body,
# ModulusChain::divide_round_by_last (behind the evaluator's divide_round):
# it inverse-transforms the dropped plane only. The coefficient-form limb
# drop and its SIMD kernel family stay deleted (the formula lives on as the
# reference in crates/bfv/tests/simd_equivalence.rs), and neither body
# takes a whole polynomial through coefficient form again.
if git grep -nE 'mod_switch_in_place|simd::rescale|fn rescale\(' -- crates/bfv/src; then
    echo "FAIL: the coefficient-form limb drop is back in crates/bfv/src (see matches above)"
    exit 1
fi
for file in crates/bfv/src/rns.rs crates/bfv/src/evaluator.rs; do
    body=$(awk '/fn divide_round(_by_last)?\(/ { on = 1 } on { print } on && /^    }$/ { on = 0 }' "$file")
    if [[ -z "$body" ]]; then
        echo "FAIL: no divide-and-round body found in $file"
        exit 1
    fi
    if grep -n 'to_coeff(' <<<"$body"; then
        echo "FAIL: the divide-and-round in $file goes through coefficient form again"
        exit 1
    fi
done

echo "==> one-plaintext-multiply gate"
# The engine multiplies undecomposed plaintexts (l_pt = 1): Gazelle's
# plaintext windowing is a dimension HE-PTune prices analytically
# (crates/paper/src/ptune, deliberately outside the paths below), not a
# second multiply path. The wire carries what a round sends: the full
# public-key kind (2) and the plaintext-mask kind (4) stay retired.
if git grep -nE 'mul_plain_windowed|WindowedCiphertext|encrypt_windowed|digits_from_coeffs|plaintext_windows|digits_mut|\.w_dcmp\(|\.l_pt\(\)' -- crates/bfv crates/serve src tests examples; then
    echo "FAIL: an engine plaintext-windowing name is back (see matches above)"
    exit 1
fi
if git grep -nE 'Kind::PublicKey\b|PlaintextMask|encode_public_key\(|plaintext_mask' -- crates/bfv/src/wire.rs; then
    echo "FAIL: a retired wire kind is back in wire.rs (see matches above)"
    exit 1
fi

echo "==> one-polynomial gate"
# RnsPoly is the engine's only polynomial type: a single-modulus polynomial
# is a one-limb RnsPoly and a plaintext is its coefficient vector mod t
# (Plaintext::from_coeffs). The seed-era single-modulus type and its module
# stay deleted, in the library and in the tests' references alike.
if git grep -nE 'struct Poly\b|mod poly\b|poly::' -- '*.rs'; then
    echo "FAIL: a second polynomial type or its module is back (see matches above)"
    exit 1
fi

echo "==> seeded-keys gate"
# A client ships its Galois keys seeded, (element, seed, k0) per key, and the
# server expands every pair's a from the seed (SeededGaloisKeys::expand, the
# only place a k1 is made). The full key-set kind (3) stays retired, keygen
# draws no uniform polynomial from its own stream, and what a client
# registers (ClientSetup) holds no k1.
if git grep -nE 'Kind::GaloisKeys\b|encode_galois_keys\(|decode_galois_keys\(|\bgalois_keys_wire_bytes' -- crates src tests examples; then
    echo "FAIL: the full Galois key-set wire kind is back (see matches above)"
    exit 1
fi
if git grep -n 'uniform_rns(' -- crates/bfv/src/keys.rs; then
    echo "FAIL: keys.rs draws a uniform polynomial from the generator stream again"
    exit 1
fi
if ! git grep -qE '^    pub keys: SeededGaloisKeys,' -- crates/serve/src/session.rs; then
    echo "FAIL: ClientSetup's key field is no longer SeededGaloisKeys"
    exit 1
fi

echo "==> one-residue-codec gate"
# Every residue crosses the wire packed at its limb's width, through one
# plane writer (push_plane) and one reader that unpacks and
# canonical-checks in the same pass (Reader::poly), in one format version:
# the u64-per-residue writer and reader and the second version must not
# grow back, and no size on the wire path is a word count times 8 again
# (sizes come from wire::plane_bytes / wire::poly_bytes).
if git grep -nE 'fn push_words|fn words\(|SEEDED_VERSION' -- crates/bfv/src/wire.rs; then
    echo "FAIL: a u64-per-residue writer/reader or a second format version is back in wire.rs (see matches above)"
    exit 1
fi
if git grep -nF -e 'degree() * 8' -e 'n * 8' -- crates/bfv/src/wire.rs crates/bfv/src/wire/faults.rs crates/serve/src; then
    echo "FAIL: a u64-per-residue size is back on the wire path (see matches above)"
    exit 1
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> tier-1: cargo build --release"
    cargo build --release

    echo "==> bench_he_ops smoke (JSON key regression gate)"
    smoke_json=$(mktemp /tmp/bench_he_ops.XXXXXX.json)
    BENCH_SMOKE=1 cargo run --release -q -p cheetah-bench --bin bench_he_ops "$smoke_json" >/dev/null
    # Every key present in the committed BENCH_he_ops.json must still be
    # emitted — losing a key means the bench silently dropped coverage.
    json_keys() { grep -o '"[a-zA-Z0-9_]*":' "$1" | sort -u; }
    missing=$(comm -23 <(json_keys BENCH_he_ops.json) <(json_keys "$smoke_json"))
    if [[ -n "$missing" ]]; then
        echo "FAIL: bench_he_ops no longer emits these BENCH_he_ops.json keys:"
        echo "$missing"
        rm -f "$smoke_json"
        exit 1
    fi
    rm -f "$smoke_json"

    echo "==> BSGS regression gate (committed non-smoke BENCH_he_ops.json)"
    # The committed JSON is a full (non-smoke) run: the auto-chosen BSGS
    # split must beat the same kernel forced to baby width 1 (the diagonal
    # method) on the 3-limb preset, else the headline optimization has
    # regressed. (Smoke-run numbers are too noisy to gate, so the check
    # reads the committed file.)
    json_val() { grep -o "\"$2\": [0-9.]*" "$1" | head -1 | awk '{print $2}'; }
    fc_diag=$(json_val BENCH_he_ops.json l3_fc_diag)
    fc_bsgs=$(json_val BENCH_he_ops.json l3_fc_bsgs)
    if [[ -z "$fc_diag" || -z "$fc_bsgs" ]]; then
        echo "FAIL: BENCH_he_ops.json lacks l3_fc_diag / l3_fc_bsgs"
        exit 1
    fi
    if ! awk -v b="$fc_bsgs" -v d="$fc_diag" 'BEGIN { exit !(b < d) }'; then
        echo "FAIL: committed l3_fc_bsgs ($fc_bsgs ns) is not faster than l3_fc_diag ($fc_diag ns)"
        exit 1
    fi

    echo "==> tiled FC regression gate (committed non-smoke BENCH_he_ops.json)"
    # The auto plan tiles the input row (one mask multiply serves several
    # folded diagonals): it must beat the same layer forced to tiles = 1
    # under the baby width the chooser picks there, on the 3-limb preset.
    fc_untiled=$(json_val BENCH_he_ops.json l3_fc_bsgs_untiled)
    if [[ -z "$fc_untiled" ]]; then
        echo "FAIL: BENCH_he_ops.json lacks l3_fc_bsgs_untiled"
        exit 1
    fi
    if ! awk -v b="$fc_bsgs" -v u="$fc_untiled" 'BEGIN { exit !(b < u) }'; then
        echo "FAIL: committed l3_fc_bsgs ($fc_bsgs ns) is not faster than l3_fc_bsgs_untiled ($fc_untiled ns)"
        exit 1
    fi

    echo "==> lazy group-sum gate (committed non-smoke BENCH_he_ops.json)"
    # A 26-term mul_plain_accumulate_many pays one reduction per
    # coefficient where 26 multiplies pay 26: on every preset the one-pass
    # sum must cost under 0.6 of 26 separate multiplies.
    for limbs in 1 2 3; do
        dot=$(json_val BENCH_he_ops.json "l${limbs}_dot_plain_26")
        mul=$(json_val BENCH_he_ops.json "l${limbs}_mul")
        if [[ -z "$dot" || -z "$mul" ]]; then
            echo "FAIL: BENCH_he_ops.json lacks l${limbs}_dot_plain_26 / l${limbs}_mul"
            exit 1
        fi
        if ! awk -v d="$dot" -v m="$mul" 'BEGIN { exit !(d < 0.6 * 26 * m) }'; then
            echo "FAIL: committed l${limbs}_dot_plain_26 ($dot ns) is not under 0.6 x 26 x l${limbs}_mul ($mul ns)"
            exit 1
        fi
    done

    echo "==> sparse FC regression gate (committed non-smoke BENCH_he_ops.json)"
    # Weight-structure plans must keep paying: a 90%-pruned FC layer's
    # live-diagonal plan must beat the all-live plan on the 3-limb preset —
    # the rotations and mask multiplies the structure analyzer skips are
    # real time. The all-live plan it is held against is the untiled one:
    # the dense layer's tiled plan shares sixteen folded diagonals per
    # mask, which the bench's contiguous pruning pattern cannot skip any of.
    fc_sparse90=$(json_val BENCH_he_ops.json l3_fc_bsgs_sparse90)
    if [[ -z "$fc_sparse90" ]]; then
        echo "FAIL: BENCH_he_ops.json lacks l3_fc_bsgs_sparse90"
        exit 1
    fi
    if ! awk -v s="$fc_sparse90" -v b="$fc_untiled" 'BEGIN { exit !(s < b) }'; then
        echo "FAIL: committed l3_fc_bsgs_sparse90 ($fc_sparse90 ns) is not faster than dense l3_fc_bsgs_untiled ($fc_untiled ns)"
        exit 1
    fi

    echo "==> hybrid key-switch regression gate (committed non-smoke BENCH_he_ops.json)"
    # Special-prime hybrid rotation vs its equal-plane-count digit twin,
    # like with like: hybrid_2x36 (2 data limbs + P) against rns_3x36
    # (three data limbs) — all 36-bit limbs, both under the detected
    # backend, so the pair compares key-switch algorithms and not NTT
    # kernels (the old `l2_rotate_hybrid < l2_rotate` held 54-bit lanes
    # against a 30-bit chain pinned to scalar; both keys are still emitted).
    # Per rotation hybrid runs 12 transforms and 2 digits of 3 planes
    # against the twin's 21 transforms and 6 digits, and pays an
    # evaluation-form P-rescale per accumulator (the P plane's INTT, its
    # lifts and their NTTs, the IFMA constant multiplier's few µs): if
    # the committed full run ever shows the digit twin winning, the hybrid
    # datapath has regressed (ROADMAP item 5c keeps the score).
    rot_hybrid=$(json_val BENCH_he_ops.json l3_rotate_hybrid)
    rot_digit=$(json_val BENCH_he_ops.json l3_rotate_simd)
    if [[ -z "$rot_hybrid" || -z "$rot_digit" ]]; then
        echo "FAIL: BENCH_he_ops.json lacks l3_rotate_hybrid / l3_rotate_simd"
        exit 1
    fi
    if ! awk -v h="$rot_hybrid" -v d="$rot_digit" 'BEGIN { exit !(h < d) }'; then
        echo "FAIL: committed l3_rotate_hybrid ($rot_hybrid ns) is not faster than its digit twin l3_rotate_simd ($rot_digit ns)"
        exit 1
    fi

    echo "==> SIMD kernel regression gate (committed non-smoke BENCH_he_ops.json)"
    # In the committed full run the unsuffixed keys are pinned to the
    # forced-scalar reference, the `_simd` twins run the runtime-detected
    # backend named in the header's `simd_backend`. When that is the
    # AVX-512 IFMA backend the 36-bit NTT pair must show a vector kernel:
    # each transform under 0.4 x its scalar pin (measured ~0.12 x) and the
    # forward one under the forced AVX2 lanes. (A plain `<=` let a scalar
    # "vector" NTT pass for seven PRs.) The same goes for the kernels made
    # of residue products: the transform-free digit replay (the lazy inner
    # product and nothing else), the hybrid lift and the P-rescale (its
    # three plane transforms included) must each run under 0.5 x their
    # forced-AVX2 twin (measured ~0.3, 0.16, 0.15). On any other backend,
    # and for the 2/3-limb rotations, the
    # vector twin must not lose to its scalar pin.
    # The `l1_rotate` pair is emitted and tracked but not gated: a
    # single-limb rotation is dominated by key-switch bookkeeping, so its
    # SIMD margin is inside run-to-run noise.
    simd_backend=$(grep -o '"simd_backend": "[a-z0-9]*"' BENCH_he_ops.json | cut -d'"' -f4)
    if [[ -z "$simd_backend" ]]; then
        echo "FAIL: BENCH_he_ops.json lacks simd_backend"
        exit 1
    fi
    ntt_factor=1.0
    if [[ "$simd_backend" == "avx512ifma" ]]; then
        ntt_factor=0.4
    fi
    for gate in "ntt ntt_simd $ntt_factor" "intt intt_simd $ntt_factor" \
        "l2_rotate l2_rotate_simd 1.0" "l3_rotate l3_rotate_simd 1.0"; do
        set -- $gate
        scalar=$(json_val BENCH_he_ops.json "$1")
        vector=$(json_val BENCH_he_ops.json "$2")
        if [[ -z "$scalar" || -z "$vector" ]]; then
            echo "FAIL: BENCH_he_ops.json lacks $1 / $2"
            exit 1
        fi
        if ! awk -v v="$vector" -v s="$scalar" -v f="$3" 'BEGIN { exit !(v <= f * s) }'; then
            echo "FAIL: committed $2 ($vector ns) is not within $3 x its scalar pin $1 ($scalar ns) on $simd_backend"
            exit 1
        fi
    done
    if [[ "$simd_backend" == "avx512ifma" ]]; then
        ntt_avx2=$(json_val BENCH_he_ops.json ntt_avx2)
        ntt_simd=$(json_val BENCH_he_ops.json ntt_simd)
        if [[ -z "$ntt_avx2" ]] || ! awk -v v="$ntt_simd" -v a="$ntt_avx2" 'BEGIN { exit !(v < a) }'; then
            echo "FAIL: committed ntt_simd ($ntt_simd ns) does not beat the forced AVX2 lanes ntt_avx2 ($ntt_avx2 ns)"
            exit 1
        fi
        for key in l3_rotate_hoisted hybrid_decompose rescale; do
            ifma=$(json_val BENCH_he_ops.json "$key")
            avx2=$(json_val BENCH_he_ops.json "${key}_avx2")
            if [[ -z "$ifma" || -z "$avx2" ]]; then
                echo "FAIL: BENCH_he_ops.json lacks $key / ${key}_avx2"
                exit 1
            fi
            if ! awk -v v="$ifma" -v a="$avx2" 'BEGIN { exit !(v <= 0.5 * a) }'; then
                echo "FAIL: committed $key ($ifma ns) is not within 0.5 x the forced AVX2 lanes ${key}_avx2 ($avx2 ns)"
                exit 1
            fi
        done
    fi

    echo "==> setup-kernel gate (committed non-smoke BENCH_he_ops.json)"
    # A session's key setup multiplies pointwise: keygen's a·s, the public
    # key's, a seeded encryption's and a decryption's. On the AVX-512 IFMA
    # backend each pointwise product and multiply-accumulate over a
    # 36-bit key-switch chain must run under 0.5 x its forced-AVX2 twin
    # (measured ~0.2): the lanes multiply in scalar u128, the IFMA body
    # eight at a time.
    if [[ "$simd_backend" == "avx512ifma" ]]; then
        for preset in rns_3x36 hybrid_2x36; do
            for op in mul_pointwise fma_pointwise; do
                key="${preset}_${op}"
                ifma=$(json_val BENCH_he_ops.json "$key")
                avx2=$(json_val BENCH_he_ops.json "${key}_avx2")
                if [[ -z "$ifma" || -z "$avx2" ]]; then
                    echo "FAIL: BENCH_he_ops.json lacks $key / ${key}_avx2"
                    exit 1
                fi
                if ! awk -v v="$ifma" -v a="$avx2" 'BEGIN { exit !(v <= 0.5 * a) }'; then
                    echo "FAIL: committed $key ($ifma ns) is not within 0.5 x the forced AVX2 lanes ${key}_avx2 ($avx2 ns)"
                    exit 1
                fi
            done
        done
    fi

    echo "==> bench_throughput smoke (JSON key regression gate)"
    smoke_json=$(mktemp /tmp/bench_throughput.XXXXXX.json)
    BENCH_SMOKE=1 cargo run --release -q -p cheetah-bench --bin bench_throughput "$smoke_json" >/dev/null
    missing=$(comm -23 <(json_keys BENCH_throughput.json) <(json_keys "$smoke_json"))
    if [[ -n "$missing" ]]; then
        echo "FAIL: bench_throughput no longer emits these BENCH_throughput.json keys:"
        echo "$missing"
        rm -f "$smoke_json"
        exit 1
    fi
    rm -f "$smoke_json"

    echo "==> serving amortization gate (committed non-smoke BENCH_throughput.json)"
    # The committed JSON is a full run: serving 16 clients through one
    # shared prepared model must beat 16 serial runs that each rebuild
    # the preparation, else the serving layer's headline win is gone.
    serial16=$(json_val BENCH_throughput.json serial_16_sessions_per_sec)
    batched16=$(json_val BENCH_throughput.json batched_16_sessions_per_sec)
    if [[ -z "$serial16" || -z "$batched16" ]]; then
        echo "FAIL: BENCH_throughput.json lacks serial_16/batched_16 sessions_per_sec"
        exit 1
    fi
    if ! awk -v b="$batched16" -v s="$serial16" 'BEGIN { exit !(b > s) }'; then
        echo "FAIL: committed batched_16_sessions_per_sec ($batched16) does not beat serial_16_sessions_per_sec ($serial16)"
        exit 1
    fi
fi

echo "==> panic-lint: wire/fault/serve modules deny unwrap/expect; the wire and serve are panic-free"
for f in crates/bfv/src/wire.rs crates/bfv/src/wire/faults.rs crates/serve/src/lib.rs; do
    if ! grep -q '#!\[deny(clippy::unwrap_used, clippy::expect_used)\]' "$f"; then
        echo "FAIL: $f lost its #![deny(clippy::unwrap_used, clippy::expect_used)] attribute"
        exit 1
    fi
done
# The protocol boundary must never panic on hostile input: no panic-family
# macros anywhere in the serving crate's sources (it feeds client bytes
# straight into decode) or in the wire module's submodules (the fault
# harness). The chain solver (crates/core/src/solver.rs) feeds
# serving-side preparation, so an infeasible request must come back as a
# typed InfeasibleLayer, never a panic; HE-PTune's tuner
# (crates/paper/src/ptune), which raises the same error, holds the same
# line. The weight-structure analyzer
# (crates/core/src/sparse.rs) also feeds preparation and holds the line.
# The NTT boundary (crates/bfv/src/ntt.rs) converted its entry asserts to
# typed errors and must not grow new panic macros.
for d in crates/bfv/src/wire crates/serve/src crates/core/src/solver.rs crates/paper/src/ptune crates/core/src/sparse.rs crates/bfv/src/ntt.rs; do
    if grep -rnE '\b(panic!|unimplemented!|todo!|unreachable!)\(' "$d"; then
        echo "FAIL: panic-family macro in $d (boundary must return typed errors)"
        exit 1
    fi
done

echo "==> fault-injection smoke (fixed seed)"
# A second fixed seed on top of the suite's built-in default, so the gate
# replays a different deterministic corruption draw than plain `cargo test`.
FAULT_SEED=20260808 cargo test -q -p cheetah-serve --test transcript_faults

echo "==> multi-client serving smoke (fixed-seed fleet, fault containment)"
# Deterministic multi-client fleet through the server pool: a faulted
# client must die typed while its neighbors' transcripts stay
# bit-identical to a clean run.
cargo test -q -p cheetah-serve --test concurrency_determinism faulted_client_does_not_perturb_neighbors

if [[ "${1:-}" != "quick" ]]; then
    echo "==> bench_e2e smoke (the frozen driver's pack -> apply -> unpack replay)"
    # BENCHMARK.json's driver packs inputs, builds keys from
    # required_steps() and replays every layer through the public
    # PreparedModel calls, checking each prediction against cleartext: a
    # layout or key-set change that breaks it exits non-zero here.
    cargo run --release -q -p cheetah-bench --bin bench_e2e -- --smoke >/dev/null
fi

echo "==> scalar/SIMD bit-identity"
# A vector backend must never change an output bit: the equivalence suite
# holds the forced-scalar reference against every runnable backend.
cargo test -q -p cheetah-bfv --test simd_equivalence

echo "==> tier-1: cargo test -q"
cargo test -q

echo "OK"
