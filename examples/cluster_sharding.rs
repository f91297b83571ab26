//! Multi-device sharding through the unified builder: evaluate one
//! batch on 1 vs 4 simulated C2050s with stream-overlapped transfers,
//! then track a path set at full occupancy through the path-queue
//! scheduler over a cluster engine — demonstrating the scale-out
//! invariant: results are bit-identical at every `D`.
//!
//! ```text
//! cargo run --release --example cluster_sharding
//! ```

use polygpu::homotopy::homotopy::BatchHomotopy;
use polygpu::homotopy::queue::track_queue;
use polygpu::prelude::*;

fn main() {
    let params = BenchmarkParams {
        n: 32,
        m: 4,
        k: 9,
        d: 2,
        seed: 42,
    };
    let system = random_system::<f64>(&params);
    let points = random_points::<f64>(32, 256, 7);

    println!("cluster scaling (P = 256, stream overlap on):\n");
    let mut d1_endpoint = None;
    for d in [1usize, 2, 4] {
        // The same builder spec at every device count.
        let mut cluster = Engine::builder()
            .backend(Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); d],
                shard: ClusterPolicy::default().into(),
            })
            .per_device_capacity(256usize.div_ceil(d))
            .overlap_chunks(4)
            .build(&system)
            .unwrap();
        let evals = cluster.try_evaluate_batch(&points).unwrap();
        let stats = cluster.engine_stats();
        println!(
            "  D = {d}: wall {:7.1} us, {:>7.0} evals/s over {} device(s)",
            stats.wall_clock_seconds() * 1e6,
            stats.throughput_evals_per_sec(),
            cluster.caps().devices,
        );
        match &d1_endpoint {
            None => d1_endpoint = Some(evals),
            Some(want) => {
                for (a, b) in want.iter().zip(&evals) {
                    assert_eq!(a.values, b.values, "sharding must be invisible");
                }
            }
        }
    }

    // Path-queue tracking over a 4-device cluster engine: slots refill
    // from the queue, so every batched round trip stays near full
    // occupancy — through the same trait object any backend implements.
    let small = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 3,
    };
    let sys = random_system::<f64>(&small);
    let start = StartSystem::uniform(2, 2);
    let starts: Vec<Vec<C64>> = (0..16u128).map(|i| start.solution_by_index(i)).collect();
    let cluster = Engine::builder()
        .backend(Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); 4],
            shard: ClusterPolicy::default().into(),
        })
        .per_device_capacity(2)
        .build(&sys)
        .unwrap();
    let mut h = BatchHomotopy::with_random_gamma(start, cluster, 7);
    let r = track_queue(&mut h, &starts, TrackParams::default(), 4);
    println!(
        "\npath queue over 4 devices: {}/{} paths to t = 1, {} refills, \
         occupancy {:.2}, {} batched round trips",
        r.successes(),
        r.paths.len(),
        r.stats.refills,
        r.occupancy(),
        r.stats.batch_rounds,
    );
}
