//! Cross-crate integration tests: the full stack from BFV ciphertexts up
//! to the accelerator simulator, exercised together.

use cheetah::bfv::BfvParams;
use cheetah::core::{QuantSpec, Schedule};
use cheetah::nn::inference::{infer, random_input};
use cheetah::nn::models;
use cheetah::nn::{Layer, Network, Tensor, Weights};
use cheetah::paper::arch::AcceleratorConfig;
use cheetah::paper::breakdown::network_breakdown;
use cheetah::paper::explore::{explore, ArchSweep};
use cheetah::paper::kernels::KernelTimer;
use cheetah::paper::limit::limit_study;
use cheetah::paper::ptune::{tune_network, NoiseRegime, TuneSpace};
use cheetah::paper::sim::Simulator;
use cheetah::paper::speedup::evaluate_model;
use cheetah::paper::tech::{NODE_40NM, NODE_5NM};
use cheetah::paper::workload::NetworkWork;
use cheetah::serve::PrivateInferenceSession;

fn tuned(
    net: &cheetah::nn::Network,
) -> Vec<(cheetah::nn::LinearLayer, cheetah::paper::ptune::DesignPoint)> {
    let quant = QuantSpec::default();
    let layers = net.linear_layers();
    let t_bits: Vec<u32> = layers
        .iter()
        .map(|l| quant.statistical_plain_bits(l))
        .collect();
    tune_network(
        &layers,
        &t_bits,
        Schedule::PartialAligned,
        NoiseRegime::Statistical,
        &TuneSpace::default(),
    )
    .expect("the default tune space must stay feasible for the zoo models")
}

#[test]
fn private_inference_matches_plaintext() {
    let net = models::tiny_cnn();
    let weights = Weights::random(&net, 2, 808);
    let input = random_input(&net.input_shape, 3, 809);
    let expect = infer(&net, &weights, &input).output;

    let params = BfvParams::builder()
        .degree(4096)
        .plain_bits(18)
        .cipher_bits(60)
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    let mut session = PrivateInferenceSession::new(&net, &weights, params, 4242).unwrap();
    let (out, transcript) = session.run(&input).unwrap();
    assert_eq!(out.data(), expect.data());
    assert!(transcript.total_bytes() > 0);
}

#[test]
fn unsupported_zoo_shapes_are_typed_errors_at_prepare_time() {
    // Shapes the homomorphic layers cannot pack are refusals the
    // panic-free protocol and serve crates hand on as values, through
    // both entry points: LeNet5's 5×5 convolutions are unpadded; a strided
    // convolution (the zoo's are too large to draw weights for here)
    // subsamples.
    let strided = Network {
        name: "strided".into(),
        input_shape: vec![1, 8, 8],
        layers: vec![Layer::conv("conv", 8, 3, 1, 2, 2, 1)],
    };
    for (net, refusal) in [(models::lenet5(), "HomConv2d"), (strided, "HomConv2d")] {
        let weights = Weights::random(&net, 1, 810);
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let served = cheetah::serve::PreparedModel::new(&net, &weights, params.clone());
        let session = PrivateInferenceSession::new(&net, &weights, params, 1);
        for refused in [served.map(|_| ()), session.map(|_| ())] {
            assert!(
                matches!(refused, Err(cheetah::bfv::Error::Unsupported(why)) if why.contains(refusal)),
                "{}",
                net.name
            );
        }
    }
}

#[test]
fn lenet300_pads_its_inputs_and_matches_plaintext() {
    // LeNet-300-100's 784 and 300 are not powers of two: the FC layout
    // pads them with zero columns (784 → 1024, 300 → 512, 100 → 128)
    // instead of refusing. One session through each entry point, on the
    // benchmark's digit chain.
    let net = models::lenet300();
    let weights = Weights::random(&net, 1, 810);
    let input = random_input(&net.input_shape, 3, 814);
    let expect = infer(&net, &weights, &input).output;
    let params = BfvParams::preset_rns_3x36(4096).unwrap();

    let mut session = PrivateInferenceSession::new(&net, &weights, params.clone(), 1).unwrap();
    let (out, _) = session.run(&input).unwrap();
    assert_eq!(out.data(), expect.data(), "one-party session");
    for (report, (ni, no)) in
        session
            .layer_reports()
            .iter()
            .zip([(784, 300), (300, 100), (100, 10)])
    {
        assert!(report.fault.is_none());
        assert!(report.plan.starts_with("fc bsgs tiles="), "{ni}→{no}");
    }

    let model = cheetah::serve::PreparedModel::new(&net, &weights, params).unwrap();
    let driver = cheetah::serve::SessionDriver::new(&model, 0, 1, &input).unwrap();
    let served = cheetah::serve::ServerPool::new(model, 1)
        .run(vec![driver])
        .remove(0);
    assert_eq!(
        served.result.unwrap().data(),
        expect.data(),
        "served halves"
    );
}

#[test]
fn oversized_and_mismatched_convs_are_typed_errors_at_prepare_time() {
    // The packed convolution pads channels and pixels to powers of two:
    // 40 channels of 6×6 are 1440 values, but 64 blocks of 64 slots
    // overflow the 2048-slot row. And weights drawn for another network
    // are refused on their shape, before any structure scan asserts on
    // their length.
    let conv_net = |ci: usize| Network {
        name: format!("conv{ci}"),
        input_shape: vec![ci, 6, 6],
        layers: vec![Layer::conv("conv", 6, 3, ci, 2, 1, 1)],
    };
    let params = BfvParams::preset_rns_3x36(4096).unwrap();
    let both = |net: &Network, weights: &Weights| {
        let served = cheetah::serve::PreparedModel::new(net, weights, params.clone());
        let session = PrivateInferenceSession::new(net, weights, params.clone(), 1);
        [served.map(|_| ()), session.map(|_| ())]
    };
    let wide = conv_net(40);
    for refused in both(&wide, &Weights::random(&wide, 1, 812)) {
        assert!(matches!(
            refused,
            Err(cheetah::bfv::Error::TooManyValues {
                given: 4096,
                slots: 2048
            })
        ));
    }
    for refused in both(&conv_net(2), &Weights::random(&conv_net(3), 1, 813)) {
        assert!(
            matches!(refused, Err(cheetah::bfv::Error::Unsupported(why)) if why.contains("weight tensor shape"))
        );
    }
}

#[test]
fn wrong_shaped_client_input_is_a_typed_error() {
    // A client input of the wrong shape reaches the layers' packers
    // through `ClientSession::new` / `next_upload`: a refusal, not a panic.
    let params = BfvParams::preset_rns_3x36(4096).unwrap();
    let mlp = Network {
        name: "mlp".into(),
        input_shape: vec![16],
        layers: vec![Layer::fc("fc", 16, 4)],
    };
    for (net, wrong_shape) in [(models::tiny_cnn(), vec![1, 4, 4]), (mlp, vec![7])] {
        let weights = Weights::random(&net, 2, 811);
        let model = cheetah::serve::PreparedModel::new(&net, &weights, params.clone()).unwrap();
        let wrong = Tensor::zeros(&wrong_shape);
        let refused = cheetah::serve::ClientSession::new(model, 3, &wrong)
            .and_then(|(mut client, _)| client.next_upload());
        assert!(
            matches!(refused, Err(cheetah::bfv::Error::Unsupported(_))),
            "{}",
            net.name
        );
    }
}

#[test]
fn tuning_profile_and_limit_study_compose() {
    // HE-PTune -> measured kernel times -> breakdown -> limit study: the
    // §IV -> §VI pipeline end to end on LeNet5.
    let net = models::lenet5();
    let tuned = tuned(&net);
    let mut timer = KernelTimer::new(3);
    let breakdown = network_breakdown(&tuned, &mut timer);
    assert!(breakdown.total_s() > 0.0);

    let study = limit_study(&breakdown, breakdown.total_s() / 1000.0);
    assert!(study.final_latency_s <= breakdown.total_s() / 1000.0 * 1.001);
    // NTT must need at least as much acceleration as the adds.
    let ntt = study.factor(cheetah::paper::limit::Kernel::Ntt);
    let add = study.factor(cheetah::paper::limit::Kernel::Add);
    assert!(ntt >= add);
}

#[test]
fn tuning_to_accelerator_pipeline() {
    // HE-PTune -> workload -> simulator -> DSE: the §IV -> §VIII pipeline.
    let net = models::lenet5();
    let work = NetworkWork::from_tuned(&net.name, &tuned(&net));
    let outcome = explore(&work, &ArchSweep::small(), NODE_5NM);
    assert!(!outcome.frontier.is_empty());

    // Simulating the same workload twice is deterministic.
    let cfg = AcceleratorConfig::new(8, 64);
    let a = Simulator::new(cfg).simulate(&work, NODE_40NM);
    let b = Simulator::new(AcceleratorConfig::new(8, 64)).simulate(&work, NODE_40NM);
    assert_eq!(a.latency_s, b.latency_s);
    assert_eq!(a.area_mm2, b.area_mm2);
}

#[test]
fn speedup_hierarchy_holds_for_every_benchmark() {
    // Across all five models: Gazelle >= HE-PTune >= HE-PTune + Sched-PA
    // in cost, i.e. speedups >= 1 and PA adds on top of PTune.
    let quant = QuantSpec::default();
    let space = TuneSpace::default();
    for net in [models::lenet300(), models::lenet5(), models::alexnet()] {
        let s = evaluate_model(&net, &quant, &space);
        assert!(
            s.speedup_ptune() >= 1.0,
            "{}: {}",
            net.name,
            s.speedup_ptune()
        );
        assert!(
            s.speedup_combined() >= s.speedup_ptune(),
            "{}: combined {} < ptune {}",
            net.name,
            s.speedup_combined(),
            s.speedup_ptune()
        );
    }
}

#[test]
fn accelerator_beats_cpu_by_orders_of_magnitude() {
    // The headline claim, end to end: the simulated accelerator runs the
    // HE workload orders of magnitude faster than the measured CPU kernels
    // would.
    let net = models::lenet5();
    let tuned = tuned(&net);
    let mut timer = KernelTimer::new(3);
    let cpu_s = network_breakdown(&tuned, &mut timer).total_s();

    let work = NetworkWork::from_tuned(&net.name, &tuned);
    let accel = Simulator::new(AcceleratorConfig::new(8, 64)).simulate(&work, NODE_5NM);
    let speedup = cpu_s / accel.latency_s;
    assert!(
        speedup > 100.0,
        "accelerator speedup over CPU only {speedup:.0}x (cpu {cpu_s:.2}s vs accel {:.4}s)",
        accel.latency_s
    );
}
