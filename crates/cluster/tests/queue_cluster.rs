//! The scale-out acceptance: tracking a path set through the
//! path-queue scheduler over a `ShardedBatchEvaluator` produces
//! **bit-identical endpoints for D ∈ {1, 2, 4}** — and identical to the
//! CPU reference — because sharding, batching and queue scheduling are
//! all performance transformations over the same per-path arithmetic.

use polygpu_cluster::{ClusterOptions, ShardPolicy, ShardedBatchEvaluator};
use polygpu_complex::C64;
use polygpu_gpusim::prelude::DeviceSpec;
use polygpu_homotopy::homotopy::BatchHomotopy;
use polygpu_homotopy::queue::track_queue;
use polygpu_homotopy::start::StartSystem;
use polygpu_homotopy::tracker::TrackParams;
use polygpu_polysys::{random_system, AdEvaluator, BenchmarkParams};

#[test]
fn queue_endpoints_bit_identical_across_device_counts() {
    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 3,
    };
    let sys = random_system::<f64>(&params);
    let start = StartSystem::uniform(2, 2);
    let starts: Vec<Vec<C64>> = (0..8u128).map(|i| start.solution_by_index(i)).collect();
    let tp = TrackParams::default();

    // CPU reference run.
    let mut h_cpu =
        BatchHomotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys.clone()).unwrap(), 7);
    let want = track_queue(&mut h_cpu, &starts, tp, 4);

    for d in [1usize, 2, 4] {
        let specs = vec![DeviceSpec::tesla_c2050(); d];
        let cluster = ShardedBatchEvaluator::new(
            &sys,
            &specs,
            4,
            ClusterOptions {
                policy: ShardPolicy::RoundRobin,
                ..Default::default()
            },
        )
        .unwrap();
        let mut h = BatchHomotopy::with_random_gamma(start.clone(), cluster, 7);
        let got = track_queue(&mut h, &starts, tp, 4);
        assert_eq!(got.paths.len(), want.paths.len());
        for (i, (g, w)) in got.paths.iter().zip(&want.paths).enumerate() {
            assert_eq!(g.outcome, w.outcome, "D = {d}, path {i}");
            assert_eq!(g.t, w.t, "D = {d}, path {i}");
            assert_eq!(
                g.x, w.x,
                "endpoint must be bit-identical, D = {d}, path {i}"
            );
        }
        assert_eq!(got.stats.rounds, want.stats.rounds, "D = {d}");
        assert_eq!(
            got.stats.steps_accepted, want.stats.steps_accepted,
            "D = {d}"
        );
        assert_eq!(
            got.stats.steps_rejected, want.stats.steps_rejected,
            "D = {d}"
        );
        assert_eq!(
            got.stats.corrector_iterations, want.stats.corrector_iterations,
            "D = {d}"
        );
        // The cluster really did the evaluations (all devices on D > 1
        // round-robin shards see work).
        let stats = h.f.cluster_stats();
        assert!(stats.evaluations > 0);
        assert_eq!(stats.device_evals.len(), d);
        if d > 1 {
            assert!(
                stats.device_evals.iter().all(|&e| e > 0),
                "D = {d}: every device shares the front: {:?}",
                stats.device_evals
            );
        }
    }
}
