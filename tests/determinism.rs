//! Whole-stack determinism: the same seed reproduces every layer
//! bit-for-bit — the property the figure harness depends on.

#![expect(clippy::float_cmp, reason = "asserts bit-identical floats")]
use mvcom::prelude::*;

#[test]
fn dataset_is_reproducible() {
    let a = Trace::generate(TraceConfig::jan_2016(), 1);
    let b = Trace::generate(TraceConfig::jan_2016(), 1);
    assert_eq!(a.blocks(), b.blocks());
}

#[test]
fn epoch_generation_is_reproducible() {
    let trace = Trace::generate(TraceConfig::tiny(300), 2);
    let mut g1 = EpochGenerator::new(&trace, LatencyConfig::paper(), 3);
    let mut g2 = EpochGenerator::new(&trace, LatencyConfig::paper(), 3);
    for _ in 0..3 {
        assert_eq!(
            g1.next_epoch_with_replacement(20, 1).unwrap(),
            g2.next_epoch_with_replacement(20, 1).unwrap()
        );
    }
}

#[test]
fn se_runs_are_reproducible_across_engines() {
    let trace = Trace::generate(TraceConfig::tiny(300), 4);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), 4);
    let shards = gen.next_epoch_with_replacement(40, 1).unwrap();
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(32_000)
        .n_min(10)
        .shards(shards)
        .build()
        .unwrap();
    let a = SeEngine::new(&instance, SeConfig::paper(9)).unwrap().run();
    let b = SeEngine::new(&instance, SeConfig::paper(9)).unwrap().run();
    assert_eq!(a.best_solution, b.best_solution);
    assert_eq!(a.best_utility, b.best_utility);
    assert_eq!(a.trajectory, b.trajectory);
    // A different seed must change the exploration path.
    let c = SeEngine::new(&instance, SeConfig::paper(10)).unwrap().run();
    assert_ne!(a.trajectory, c.trajectory);
}

#[test]
fn online_runs_are_reproducible() {
    let trace = Trace::generate(TraceConfig::tiny(300), 5);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), 5);
    let shards = gen.next_epoch_with_replacement(20, 1).unwrap();
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(16_000)
        .n_min(5)
        .shards(shards)
        .build()
        .unwrap();
    let victim = instance.shards()[2].committee();
    let events = vec![TimedEvent::leave(50, victim)];
    let config = SeConfig::fast_test(6);
    let a = run_online(&instance, config, &events, DynamicsPolicy::Trim).unwrap();
    let b = run_online(&instance, config, &events, DynamicsPolicy::Trim).unwrap();
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.events, b.events);
}

#[test]
fn full_protocol_epochs_are_reproducible() {
    let mut a = ElasticoSim::new(ElasticoConfig::small_test(), 11).unwrap();
    let mut b = ElasticoSim::new(ElasticoConfig::small_test(), 11).unwrap();
    for _ in 0..2 {
        assert_eq!(a.run_epoch().unwrap(), b.run_epoch().unwrap());
    }
}

#[test]
fn baseline_solvers_are_reproducible() {
    use mvcom::baselines::{sa::SaConfig, woa::WoaConfig};
    let trace = Trace::generate(TraceConfig::tiny(300), 12);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), 12);
    let shards = gen.next_epoch_with_replacement(25, 1).unwrap();
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(20_000)
        .n_min(8)
        .shards(shards)
        .build()
        .unwrap();
    let sa_cfg = SaConfig {
        iterations: 400,
        ..SaConfig::paper(13)
    };
    assert_eq!(
        SaSolver::new(sa_cfg).solve(&instance).unwrap(),
        SaSolver::new(sa_cfg).solve(&instance).unwrap()
    );
    let woa_cfg = WoaConfig {
        iterations: 100,
        ..WoaConfig::paper(13)
    };
    assert_eq!(
        WoaSolver::new(woa_cfg).solve(&instance).unwrap(),
        WoaSolver::new(woa_cfg).solve(&instance).unwrap()
    );
    assert_eq!(
        DpSolver::default().solve(&instance).unwrap(),
        DpSolver::default().solve(&instance).unwrap()
    );
}
