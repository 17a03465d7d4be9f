//! Serving-throughput benchmark: emits `BENCH_throughput.json` for the
//! concurrent inference service (`crates/serve`) on the 3-limb preset
//! chain.
//!
//! Two families of numbers:
//!
//! * **Serving-only scaling** — one shared [`PreparedModel`], fleets of
//!   1/4/16/64 simulated clients run through a [`ServerPool`]:
//!   `c{C}_sessions_per_sec` plus `c{C}_p50_ms` / `c{C}_p99_ms` session
//!   latency. The scheduler is lockstep-batched (every client at the
//!   lowest pending layer is swept before any client advances), so a
//!   session's latency is its fleet's wall time — batching deliberately
//!   trades tail latency for throughput and the numbers show it.
//! * **End-to-end 16-client comparison** — the headline amortization win
//!   gated by `scripts/check.sh`: `serial_16_sessions_per_sec` rebuilds
//!   the prepared model for every client (what 16 independent one-party
//!   sessions would do), `batched_16_sessions_per_sec` prepares once and
//!   serves the fleet through one pool. Client-side key generation is
//!   identical in both paths and happens off the server clock. On a
//!   single core the win is pure preparation amortization;
//!   `batched_over_serial_speedup` must stay > 1 in a committed full
//!   run.
//!
//! Run: `cargo run --release -p cheetah-bench --bin bench_throughput
//! [out.json]`
//!
//! Set `BENCH_SMOKE=1` for CI smoke mode: one repetition per point and a
//! trimmed fleet ladder budget; numbers are noisy but the emitted JSON
//! keys are identical, which is what `scripts/check.sh` gates on.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cheetah_bfv::BfvParams;
use cheetah_nn::inference::client_inputs;
use cheetah_nn::models::tiny_cnn;
use cheetah_nn::{Network, Tensor, Weights};
use cheetah_serve::{PreparedModel, ServerPool, SessionDriver};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The 3-limb preset with the decomposition base the protocol suites use.
fn bench_params() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(17)
        .moduli_bits(&[36, 36, 36])
        .a_dcmp(1 << 6)
        .build()
        .expect("3-limb preset must build")
}

fn drivers(
    model: &Arc<PreparedModel>,
    net: &Network,
    count: usize,
    rep: usize,
) -> Vec<SessionDriver> {
    let inputs = client_inputs(&net.input_shape, 3, 7_100 + rep as u64 * 1_000, count);
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            SessionDriver::new(model, i as u64, 9_000 + rep as u64 * 100 + i as u64, input)
                .expect("client setup must succeed")
        })
        .collect()
}

fn assert_all_ok(outcomes: &[cheetah_serve::SessionOutcome], what: &str) -> Vec<Tensor> {
    outcomes
        .iter()
        .map(|o| match &o.result {
            Ok(t) => t.clone(),
            Err(e) => panic!("{what}: client {} failed: {e}", o.client_id),
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx]
}

/// One serving-only scaling point: `count` clients against the shared
/// model, `reps` repetitions with fresh inputs each time.
struct ScalePoint {
    count: usize,
    sessions_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn scale_point(
    model: &Arc<PreparedModel>,
    net: &Network,
    workers: usize,
    count: usize,
    reps: usize,
) -> ScalePoint {
    let pool = ServerPool::new(Arc::clone(model), workers);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(count * reps);
    let mut total_secs = 0.0f64;
    for rep in 0..reps {
        let fleet = drivers(model, net, count, rep);
        let start = Instant::now();
        let outcomes = pool.run(fleet);
        let wall = start.elapsed().as_secs_f64();
        assert_all_ok(&outcomes, "scale point");
        total_secs += wall;
        // Lockstep batching: every session in the fleet completes in the
        // final sweep, so its latency is the fleet's wall time.
        latencies_ms.extend(std::iter::repeat_n(wall * 1_000.0, count));
    }
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    ScalePoint {
        count,
        sessions_per_sec: (count * reps) as f64 / total_secs,
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let params = bench_params();
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 424);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = cores.clamp(1, 4);
    let reps = if smoke() { 1 } else { 3 };

    // --- Serving-only scaling: one shared prepared model ---
    let shared =
        PreparedModel::new(&net, &weights, params.clone()).expect("model preparation must succeed");
    let counts = [1usize, 4, 16, 64];
    let points: Vec<ScalePoint> = counts
        .iter()
        .map(|&c| scale_point(&shared, &net, workers, c, reps))
        .collect();

    // --- End-to-end 16-client comparison: amortized vs per-client prep ---
    //
    // Both fleets are constructed (client keygen + setup) before the
    // clocks start: key generation happens on the *client*, and it also
    // gets slower as resident memory grows, so leaving it on the server
    // clock would just measure allocation noise. Both fleets reference
    // the shared preparation — serving cost is identical under any
    // equal-parameter preparation — and the serial server's per-client
    // model rebuild is executed in full inside its timer, exactly the
    // build a shared-nothing server pays for every arriving client.
    const FLEET: usize = 16;
    let serial_fleet = drivers(&shared, &net, FLEET, 0);
    let batched_fleet = drivers(&shared, &net, FLEET, 0);

    let start = Instant::now();
    let mut serial_outputs = Vec::with_capacity(FLEET);
    for driver in serial_fleet {
        let own = PreparedModel::new(&net, &weights, params.clone())
            .expect("model preparation must succeed");
        let pool = ServerPool::new(own, 1);
        serial_outputs.extend(assert_all_ok(&pool.run(vec![driver]), "serial baseline"));
    }
    let serial_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let batched_model =
        PreparedModel::new(&net, &weights, params.clone()).expect("model preparation must succeed");
    let pool = ServerPool::new(batched_model, workers);
    let batched_outputs = assert_all_ok(&pool.run(batched_fleet), "batched");
    let batched_secs = start.elapsed().as_secs_f64();

    // The speedup is only meaningful if both paths computed the same
    // thing — pin bit-identity before reporting numbers.
    for (i, (s, b)) in serial_outputs.iter().zip(&batched_outputs).enumerate() {
        assert_eq!(
            s.data(),
            b.data(),
            "client {i}: serial and batched outputs diverged"
        );
    }

    let serial_sps = FLEET as f64 / serial_secs;
    let batched_sps = FLEET as f64 / batched_secs;
    let speedup = serial_secs / batched_secs;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"degree\": 4096,");
    let _ = writeln!(json, "  \"limbs\": {},", params.limbs());
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"scaling\": {{");
    for (idx, p) in points.iter().enumerate() {
        let c = p.count;
        let trail = if idx + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"c{c}_sessions_per_sec\": {:.3},",
            p.sessions_per_sec
        );
        let _ = writeln!(json, "    \"c{c}_p50_ms\": {:.1},", p.p50_ms);
        let _ = writeln!(json, "    \"c{c}_p99_ms\": {:.1}{trail}", p.p99_ms);
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fleet_16\": {{");
    let _ = writeln!(json, "    \"serial_16_sessions_per_sec\": {serial_sps:.3},");
    let _ = writeln!(
        json,
        "    \"batched_16_sessions_per_sec\": {batched_sps:.3},"
    );
    let _ = writeln!(json, "    \"batched_over_serial_speedup\": {speedup:.3}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_throughput.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
