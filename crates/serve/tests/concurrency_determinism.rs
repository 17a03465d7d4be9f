//! Concurrency determinism suite: the serving layer must be a *pure
//! throughput* optimization.
//!
//! Pins, on all three preset chains:
//!
//! * N sessions run concurrently through a [`ServerPool`] decrypt
//!   **bit-identically** to the same N sessions run serially — outputs
//!   and full transcripts (labels, accounted bytes, wire payloads);
//! * both match the cleartext reference network and the one-party
//!   [`PrivateInferenceSession`] for the same seed — sharing a prepared
//!   model changes nothing observable;
//! * a faulted client (upload corrupted in flight by the fault injector)
//!   dies with a typed error and a fault-bearing report while its
//!   neighbors' outputs and transcripts stay bit-identical to a clean
//!   run;
//! * a worker thread that panics mid-sweep fails the session it was
//!   stepping with a typed error — the pool returns, and the rest of the
//!   fleet finishes on the surviving workers;
//! * a pool that lived through such a panic serves the next clean fleet
//!   byte-identically to its first, and its idle scratch list never holds
//!   more than one scratch per worker.

use std::sync::Arc;

use cheetah_bfv::wire::faults::{Corruption, FaultInjector};
use cheetah_bfv::BfvParams;
use cheetah_nn::inference::{client_inputs, infer};
use cheetah_nn::models::tiny_cnn;
use cheetah_nn::Weights;
use cheetah_serve::{
    PreparedModel, PrivateInferenceSession, ServerPool, SessionDriver, SessionOutcome, Transcript,
};

const N: usize = 4096;
const CLIENTS: usize = 3;
const BASE_SEED: u64 = 9000;

/// The three preset chains with the session's decomposition base.
fn preset_chains() -> Vec<(&'static str, BfvParams)> {
    let single_60 = BfvParams::builder()
        .degree(N)
        .plain_bits(18)
        .moduli_bits(&[60])
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    let rns_2x30 = BfvParams::builder()
        .degree(N)
        .plain_bits(16)
        .moduli_bits(&[30, 30])
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    let rns_3x36 = BfvParams::builder()
        .degree(N)
        .plain_bits(17)
        .moduli_bits(&[36, 36, 36])
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    vec![
        ("single_60", single_60),
        ("rns_2x30", rns_2x30),
        ("rns_3x36", rns_3x36),
    ]
}

/// Everything observable about a transcript, for bit-identity checks.
fn transcript_sig(t: &Transcript) -> Vec<(String, usize, Vec<u8>)> {
    t.messages()
        .iter()
        .map(|m| (m.label.clone(), m.bytes, m.payload.clone()))
        .collect()
}

fn drivers(model: &Arc<PreparedModel>, inputs: &[cheetah_nn::Tensor]) -> Vec<SessionDriver> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| SessionDriver::new(model, i as u64, BASE_SEED + i as u64, input).unwrap())
        .collect()
}

#[test]
fn concurrent_sessions_match_serial_runs_and_references_on_all_presets() {
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 424);
    let inputs = client_inputs(&net.input_shape, 3, 7100, CLIENTS);

    for (name, params) in preset_chains() {
        let model = PreparedModel::new(&net, &weights, params.clone()).unwrap();

        // Concurrent: every client at once, multi-worker sweeps.
        let pool = ServerPool::new(Arc::clone(&model), CLIENTS);
        let concurrent = pool.run(drivers(&model, &inputs));
        assert_eq!(concurrent.len(), CLIENTS);

        // Serial: the same sessions one at a time on a single worker.
        let serial_pool = ServerPool::new(Arc::clone(&model), 1);
        let serial: Vec<_> = drivers(&model, &inputs)
            .into_iter()
            .flat_map(|d| serial_pool.run(vec![d]))
            .collect();

        for (i, (c, s)) in concurrent.iter().zip(&serial).enumerate() {
            let c_out = c.result.as_ref().unwrap();
            let s_out = s.result.as_ref().unwrap();
            assert_eq!(
                c_out.data(),
                s_out.data(),
                "{name} client {i}: concurrent != serial output"
            );
            assert_eq!(
                transcript_sig(&c.transcript),
                transcript_sig(&s.transcript),
                "{name} client {i}: concurrent != serial transcript"
            );

            // Cleartext reference.
            let expect = infer(&net, &weights, &inputs[i]).output;
            assert_eq!(
                c_out.data(),
                expect.data(),
                "{name} client {i}: served inference diverged from cleartext"
            );

            // One-party protocol reference: same seed, same everything.
            let mut reference =
                PrivateInferenceSession::new(&net, &weights, params.clone(), BASE_SEED + i as u64)
                    .unwrap();
            let (ref_out, ref_transcript) = reference.run(&inputs[i]).unwrap();
            assert_eq!(
                c_out.data(),
                ref_out.data(),
                "{name} client {i}: served != one-party session output"
            );
            assert_eq!(
                transcript_sig(&c.transcript),
                transcript_sig(&ref_transcript),
                "{name} client {i}: served != one-party session transcript"
            );
        }

        // Scratch instances went back to the server-level pool warm.
        assert!(
            pool.scratch_idle() >= 1,
            "{name}: sweeps must return leased scratch to the pool"
        );
    }
}

#[test]
fn solver_planned_model_serves_concurrent_clients() {
    // HE-PTune v2 end to end through the serving layer: the chain solver
    // picks the parameter chain and per-layer levels, PreparedModel::new on
    // its params builds the shared model at those levels, and a concurrent
    // pool of clients decrypts bit-identically to the cleartext reference.
    use cheetah_core::solver::solve_chain_plan;
    use cheetah_core::QuantSpec;

    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 424);
    let inputs = client_inputs(&net.input_shape, 3, 7100, CLIENTS);

    let plan = solve_chain_plan(&net.linear_layers(), &QuantSpec::default(), &[N])
        .expect("tiny CNN must be solvable");
    let model = PreparedModel::new(&net, &weights, plan.params.clone()).unwrap();
    let levels: Vec<usize> = (0..model.linear_count())
        .map(|k| model.round(k).level)
        .collect();
    assert_eq!(levels, plan.levels());

    let pool = ServerPool::new(Arc::clone(&model), CLIENTS);
    let results = pool.run(drivers(&model, &inputs));
    assert_eq!(results.len(), CLIENTS);
    for (i, r) in results.iter().enumerate() {
        let out = r.result.as_ref().unwrap();
        let expect = infer(&net, &weights, &inputs[i]).output;
        assert_eq!(
            out.data(),
            expect.data(),
            "{} client {i}: solver-planned serving diverged from cleartext",
            plan.name
        );
    }
}

#[test]
fn sparse_and_pow2_models_serve_concurrent_clients_exactly() {
    // Weight-structure variants through the full serving stack: an
    // 80%-pruned model (sparse BSGS plans, live conv masks only, smaller
    // Galois key set) and a pow2-rounded model (weights `±2^k`, ordinary
    // integers to the engine) each serve a concurrent client fleet
    // bit-identically to the cleartext reference on the same transformed
    // weights.
    let net = tiny_cnn();
    let inputs = client_inputs(&net.input_shape, 3, 7100, CLIENTS);
    let (_, params) = preset_chains().pop().unwrap(); // rns_3x36

    let mut sparse = Weights::random(&net, 2, 424);
    sparse.prune_to_sparsity(0.8, 17);
    let mut pow2 = Weights::random(&net, 3, 425);
    pow2.round_to_pow2(2);

    let dense_steps = PreparedModel::new(&net, &Weights::random(&net, 2, 424), params.clone())
        .unwrap()
        .required_steps()
        .len();

    for (what, weights) in [("sparse", &sparse), ("pow2", &pow2)] {
        let model = PreparedModel::new(&net, weights, params.clone()).unwrap();
        if what == "sparse" {
            assert!(
                model.required_steps().len() < dense_steps,
                "sparse serving model must need fewer Galois steps ({} vs {dense_steps})",
                model.required_steps().len()
            );
        }
        let pool = ServerPool::new(Arc::clone(&model), CLIENTS);
        let results = pool.run(drivers(&model, &inputs));
        assert_eq!(results.len(), CLIENTS);
        for (i, r) in results.iter().enumerate() {
            let out = r.result.as_ref().unwrap();
            let expect = infer(&net, weights, &inputs[i]).output;
            assert_eq!(
                out.data(),
                expect.data(),
                "{what} client {i}: served inference diverged from cleartext"
            );
        }
    }
}

/// A failing session's neighbor is bit-identical to its clean run.
fn assert_neighbor_untouched(i: usize, mixed: &SessionOutcome, clean: &SessionOutcome) {
    assert_eq!(
        mixed.result.as_ref().unwrap().data(),
        clean.result.as_ref().unwrap().data(),
        "client {i}: neighbor output perturbed by a failing peer"
    );
    assert_eq!(
        transcript_sig(&mixed.transcript),
        transcript_sig(&clean.transcript),
        "client {i}: neighbor transcript perturbed by a failing peer"
    );
}

#[test]
fn faulted_client_does_not_perturb_neighbors() {
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 424);
    let inputs = client_inputs(&net.input_shape, 3, 7100, CLIENTS);
    let (_, params) = preset_chains().pop().unwrap(); // rns_3x36

    let model = PreparedModel::new(&net, &weights, params.clone()).unwrap();

    // Clean baseline run.
    let pool = ServerPool::new(Arc::clone(&model), CLIENTS);
    let clean = pool.run(drivers(&model, &inputs));

    // Same fleet, but client 1's layer-1 upload is corrupted in flight.
    let faulted_idx = 1usize;
    let tampered: Vec<SessionDriver> = drivers(&model, &inputs)
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            if i == faulted_idx {
                let params = params.clone();
                d.with_tamper(Box::new(move |layer, bytes| {
                    if layer == 1 {
                        *bytes =
                            FaultInjector::apply(bytes, &Corruption::ForeignFingerprint, &params);
                    }
                }))
            } else {
                d
            }
        })
        .collect();
    let mixed = pool.run(tampered);

    for (i, (m, c)) in mixed.iter().zip(&clean).enumerate() {
        if i == faulted_idx {
            // The faulted client dies with a typed error and says which
            // message killed it.
            assert!(m.result.is_err(), "tampered client must not succeed");
            let fault = m
                .reports
                .iter()
                .find_map(|r| r.fault.as_ref())
                .expect("faulted session leaves a fault-bearing report");
            assert!(
                fault.contains("foreign parameter chain"),
                "unexpected fault: {fault}"
            );
            // It got through layer 0 before the corruption hit.
            assert!(
                m.transcript.messages().len() < c.transcript.messages().len(),
                "faulted transcript must stop early"
            );
        } else {
            assert_neighbor_untouched(i, m, c);
        }
    }
}

#[test]
fn panicking_worker_fails_its_session_and_spares_the_rest() {
    // A bug below the typed-error boundary, stood in for by a tamper hook
    // that panics: the sweep joins every worker, sees the panic, and the
    // stall guard fails the one session that made no progress. Two
    // workers for three clients, so the survivor has to pick up the rest
    // of each sweep.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 424);
    let inputs = client_inputs(&net.input_shape, 3, 7100, CLIENTS);
    let (_, params) = preset_chains().pop().unwrap(); // rns_3x36
    let model = PreparedModel::new(&net, &weights, params).unwrap();
    let pool = ServerPool::new(Arc::clone(&model), 2);

    let clean = pool.run(drivers(&model, &inputs));

    let panicking_idx = 1usize;
    let mut fleet = drivers(&model, &inputs);
    let doomed = fleet.remove(panicking_idx);
    fleet.insert(
        panicking_idx,
        doomed.with_tamper(Box::new(|layer, _| {
            assert!(layer != 1, "injected worker panic at layer 1");
        })),
    );
    let mixed = pool.run(fleet);

    assert_eq!(mixed.len(), CLIENTS);
    for (i, (m, c)) in mixed.iter().zip(&clean).enumerate() {
        if i == panicking_idx {
            let err = m.result.as_ref().unwrap_err();
            assert!(
                err.to_string().contains("stalled"),
                "unexpected error for the panicked session: {err}"
            );
            // Layer 0 completed before the panic; layer 1 never reached
            // the server.
            assert_eq!(m.reports.len(), 1);
        } else {
            assert_neighbor_untouched(i, m, c);
        }
    }
}

/// Everything observable about an outcome, for byte-identity checks.
fn outcome_sig(o: &SessionOutcome) -> String {
    let result = o.result.as_ref().map(|t| t.data().to_vec());
    format!(
        "{} {result:?} {:?} {:?}",
        o.client_id,
        transcript_sig(&o.transcript),
        o.reports
    )
}

#[test]
fn pool_soak_replays_clean_after_a_panic_and_bounds_its_scratch() {
    // One pool through three fleets: clean, one worker panicking at layer
    // 1, clean again. The panicked worker's scratch is dropped, not
    // reused, so the second clean fleet must replay the first byte for
    // byte; the idle list holds at most one scratch per worker, and a
    // worker each after a fleet at least as wide as the pool.
    const WORKERS: usize = 2;
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 424);
    let inputs = client_inputs(&net.input_shape, 3, 7100, CLIENTS);
    let (_, params) = preset_chains().pop().unwrap(); // rns_3x36
    let model = PreparedModel::new(&net, &weights, params).unwrap();
    let pool = ServerPool::new(Arc::clone(&model), WORKERS);
    assert_eq!(pool.scratch_idle(), 0, "scratch is made on first use");

    let first: Vec<String> = pool
        .run(drivers(&model, &inputs))
        .iter()
        .map(outcome_sig)
        .collect();
    assert_eq!(pool.scratch_idle(), WORKERS, "after the first clean fleet");

    let mut fleet = drivers(&model, &inputs);
    let doomed = fleet.remove(1);
    fleet.insert(
        1,
        doomed.with_tamper(Box::new(|layer, _| {
            assert!(layer != 1, "injected worker panic at layer 1");
        })),
    );
    let mixed = pool.run(fleet);
    assert!(mixed[1].result.is_err(), "the panicked session fails");
    assert!(
        pool.scratch_idle() <= WORKERS,
        "after the panicking fleet: {} idle",
        pool.scratch_idle()
    );

    let again: Vec<String> = pool
        .run(drivers(&model, &inputs))
        .iter()
        .map(outcome_sig)
        .collect();
    assert_eq!(pool.scratch_idle(), WORKERS, "after the second clean fleet");
    assert_eq!(
        again, first,
        "a clean fleet after a panic must replay the first clean fleet"
    );
}
