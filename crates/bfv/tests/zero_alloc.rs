//! Proof of the zero-allocation hot path: a counting global allocator
//! wraps `System`, and after one warmup pass each in-place evaluator
//! operation must execute with **zero** heap allocations.
//!
//! This is the acceptance criterion of the scratch-pool refactor: the
//! steady-state cost of `HE_Add` / `HE_Mult` / `HE_Rotate` is arithmetic
//! only, never allocator traffic.
//!
//! The counter is per thread: the harness runs this file's tests on
//! parallel threads, and the evaluator ops counted here run inline on the
//! caller's, so one test's allocations must not land in another's window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, HoistedDecomposition,
    KeyGenerator, Scratch,
};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and it outlives every allocation its thread makes.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_inplace_ops_do_not_allocate() {
    let digit_chain = BfvParams::builder()
        .degree(2048)
        .plain_bits(16)
        .moduli_bits(&[54])
        .a_dcmp(1 << 16)
        .build()
        .unwrap();
    // The digit key switch and its special-prime hybrid twin: both lease
    // every temporary — and hand it back at the width it was taken. The
    // multi-limb chains also drop a limb: the divide-and-round's
    // temporary plane comes from the evaluator's own pool.
    for params in [
        digit_chain,
        BfvParams::preset_rns_3x36(4096).unwrap(),
        BfvParams::preset_hybrid_2x36(4096).unwrap(),
    ] {
        steady_state_on(params);
    }
}

fn steady_state_on(params: BfvParams) {
    let mut kg = KeyGenerator::from_seed(params.clone(), 99);
    let pk = kg.public_key().unwrap();
    let keys = kg.galois_keys_for_steps(&[1, 2]).unwrap();
    let encoder = BatchEncoder::new(params.clone());
    let mut enc = Encryptor::from_public_key(pk, 7);
    let dec = Decryptor::new(kg.secret_key().clone());
    let eval = Evaluator::new(params.clone());

    let vals: Vec<u64> = (0..100).collect();
    let pt = encoder.encode(&vals).unwrap();
    let prepared = eval.prepare_plaintext_at(&pt, 0).unwrap();
    let base = enc.encrypt(&pt).unwrap();
    let other = enc.encrypt(&pt).unwrap();

    let mut scratch: Scratch = eval.new_scratch();
    let mut work = base.clone();
    let mut rot = Ciphertext::transparent_zero_at(&params, 0);
    let mut switched = Ciphertext::transparent_zero_at(&params, 0);
    let mut hoisted = HoistedDecomposition::empty(&params);

    let run_all = |work: &mut Ciphertext,
                   rot: &mut Ciphertext,
                   switched: &mut Ciphertext,
                   hoisted: &mut HoistedDecomposition,
                   scratch: &mut Scratch| {
        eval.add_assign(work, &other).unwrap();
        eval.sub_assign(work, &other).unwrap();
        eval.negate_assign(work).unwrap();
        eval.negate_assign(work).unwrap();
        eval.mul_plain_assign(work, &prepared).unwrap();
        eval.mul_plain_accumulate_many(work, &[(&other, &prepared)])
            .unwrap();
        eval.mul_plain_accumulate_many(
            work,
            &[(&other, &prepared), (&base, &prepared), (&other, &prepared)],
        )
        .unwrap();
        eval.add_plain_assign(work, &pt, scratch).unwrap();
        eval.rotate_rows_into(rot, work, 1, &keys, scratch).unwrap();
        eval.rotate_rows_into(rot, work, 0, &keys, scratch).unwrap();
        eval.apply_galois_into(rot, work, 3, &keys, scratch)
            .unwrap();
        eval.hoist_into(hoisted, work, scratch).unwrap();
        eval.rotate_hoisted_into(rot, work, hoisted, 1, &keys, scratch)
            .unwrap();
        eval.rotate_hoisted_into(rot, work, hoisted, 2, &keys, scratch)
            .unwrap();
        if params.max_level() > 0 {
            switched.copy_from(work);
            eval.mod_switch_to_next_assign(switched).unwrap();
        }
    };

    // Warmup: populates the scratch pool (temporary poly + l_ct digits)
    // and the hoisted digit storage.
    run_all(
        &mut work,
        &mut rot,
        &mut switched,
        &mut hoisted,
        &mut scratch,
    );

    // Steady state: not a single trip to the allocator.
    let before = allocations();
    for _ in 0..5 {
        run_all(
            &mut work,
            &mut rot,
            &mut switched,
            &mut hoisted,
            &mut scratch,
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "in-place evaluator ops allocated {} times at steady state",
        after - before
    );

    // The ciphertext still decrypts (values are garbage arithmetic, but
    // the pipeline must stay structurally sound).
    let _ = dec.decrypt(&rot).unwrap();
}
