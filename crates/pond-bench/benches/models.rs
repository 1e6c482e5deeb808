//! Criterion micro-benchmarks for the prediction models: training and
//! inference latency of the sensitivity and untouched-memory models.
//!
//! Inference latency matters because the sensitivity model sits on the VM
//! request path (Figure 11, A2) and the untouched-memory prediction is added
//! to the VM request path by the serving system (§5).

use cluster_sim::tracegen::{ClusterConfig, TraceGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use pond_core::sensitivity::{SensitivityModel, SensitivityModelConfig};
use pond_core::untouched::{replay_history, UntouchedMemoryModel, UntouchedModelConfig};
use std::hint::black_box;
use workload_model::telemetry::TelemetrySampler;
use workload_model::WorkloadSuite;

fn bench_sensitivity(c: &mut Criterion) {
    let suite = WorkloadSuite::standard();
    let config = SensitivityModelConfig { samples_per_workload: 2, ..Default::default() };
    c.bench_function("sensitivity_model_training", |b| {
        b.iter(|| black_box(SensitivityModel::train(&suite, &config, 1)))
    });

    let model = SensitivityModel::train(&suite, &SensitivityModelConfig::default(), 1);
    let counters = TelemetrySampler::default().sample(suite.at(10).unwrap(), 3);
    c.bench_function("sensitivity_model_inference", |b| {
        b.iter(|| black_box(model.try_insensitive_probability(black_box(&counters))))
    });
}

fn bench_untouched(c: &mut Criterion) {
    let config = ClusterConfig { servers: 16, duration_days: 6, ..ClusterConfig::small() };
    let trace = TraceGenerator::new(config, 1).generate(0);
    let model_config = UntouchedModelConfig { quantile: 0.05, rounds: 30 };
    c.bench_function("untouched_model_training", |b| {
        b.iter(|| black_box(UntouchedMemoryModel::train(&trace.requests, &model_config, 2)))
    });

    let model = UntouchedMemoryModel::train(&trace.requests, &model_config, 2);
    let history = replay_history(&trace.requests);
    let request = &trace.requests[0];
    c.bench_function("untouched_model_inference", |b| {
        b.iter(|| black_box(model.try_predict_fraction(black_box(request), &history)))
    });
}

/// The fit `pondbench`'s `drill` set-up makes: `PondPolicy::train`'s call on
/// the first 32,768 requests (its training-prefix cap) of a 256-server,
/// 180-day trace at seed 42, 50 rounds, model seed 7.
fn bench_untouched_at_benchmark_scale(c: &mut Criterion) {
    let config = ClusterConfig { servers: 256, duration_days: 180, ..ClusterConfig::azure_like() };
    let trace = TraceGenerator::new(config, 1).with_seed(42).generate(0);
    let prefix = &trace.requests[..trace.requests.len().min(32_768)];
    let model_config = UntouchedModelConfig { quantile: 0.05, rounds: 50 };
    c.bench_function("untouched_model_training_32k_rows", |b| {
        b.iter(|| black_box(UntouchedMemoryModel::train(prefix, &model_config, 7)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sensitivity, bench_untouched, bench_untouched_at_benchmark_scale
);
criterion_main!(benches);
