//! The launch executor: runs a kernel's blocks (in parallel on the
//! host pool via rayon — blocks are independent within a launch,
//! exactly as on the device), analyzes traces, applies buffered writes,
//! and models the launch time.

use crate::analysis::AnalyzerScratch;
use crate::device::DeviceSpec;
use crate::kernel::{BlockCtx, Kernel, LaunchConfig};
use crate::mem::{BufferId, ConstantMemory, GlobalMem};
use crate::occupancy::{occupancy, Occupancy};
use crate::stats::Counters;
use crate::timing::{model_launch, LaunchTiming};
use crate::trace::ThreadTrace;
use crate::value::DeviceValue;
use rayon::prelude::*;
use std::collections::HashSet;
use std::fmt;

/// Errors that abort a launch before any block runs (the CUDA
/// equivalents are `cudaErrorInvalidConfiguration` and friends).
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// Block exceeds device limits or zero-sized.
    BadConfig(String),
    /// One block's shared memory exceeds the SM's capacity.
    SharedOverflow { needed: usize, capacity: usize },
    /// Two threads (possibly of different blocks) stored to the same
    /// global element in one launch — undefined behaviour on hardware,
    /// reported deterministically here.
    WriteConflict { buffer: usize, index: usize },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::BadConfig(msg) => write!(f, "invalid launch configuration: {msg}"),
            LaunchError::SharedOverflow { needed, capacity } => write!(
                f,
                "shared memory per block ({needed} B) exceeds SM capacity ({capacity} B)"
            ),
            LaunchError::WriteConflict { buffer, index } => write!(
                f,
                "global write conflict on buffer {buffer} element {index}"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Options controlling a launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchOptions {
    /// Detect duplicate global stores (costs a hash pass per launch).
    pub check_write_conflicts: bool,
    /// Run blocks on the host thread pool (rayon). Disable for strictly
    /// serial debugging. A one-block launch, or one started while the
    /// pool is busy (another thread's launch holds it) or from a pool
    /// worker, runs its blocks inline either way.
    pub parallel_host: bool,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            check_write_conflicts: true,
            parallel_host: true,
        }
    }
}

/// The result of one launch: counters and modeled timing.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    pub kernel_name: String,
    pub config: LaunchConfig,
    pub shared_bytes_per_block: usize,
    pub counters: Counters,
    /// Trace entries the launch recorded over all its threads (barrier
    /// markers included): the work the warp analyzer replayed, and the
    /// denominator of the simulator's host cost per event.
    pub traced_events: u64,
    pub occupancy: Occupancy,
    pub timing: LaunchTiming,
}

impl fmt::Display for LaunchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel `{}`: grid {} x block {}, {} B shared/block, {} blocks/SM ({:?}-limited)",
            self.kernel_name,
            self.config.grid_dim,
            self.config.block_dim,
            self.shared_bytes_per_block,
            self.occupancy.blocks_per_sm,
            self.occupancy.limiter,
        )?;
        writeln!(f, "{}", self.counters)?;
        write!(
            f,
            "  modeled: {:.3} us kernel + {:.3} us overhead, {} wave(s), {:?}-bound",
            self.timing.kernel_seconds * 1e6,
            self.timing.overhead_seconds * 1e6,
            self.timing.waves,
            self.timing.bound
        )
    }
}

/// What one block leaves behind: its analysed counters, the number of
/// trace entries they were read from, and its buffered global stores.
struct BlockOutcome<T> {
    counters: Counters,
    events: u64,
    writes: Vec<(BufferId, usize, T)>,
}

/// One host thread's buffers, recycled across the blocks it runs in a
/// launch: the per-thread trace vectors (cleared, never freed, between
/// blocks) and the warp analyzer's lane cursors and operand buffers.
/// Each launch builds one per participating thread (`map_init`) and
/// frees it at the end, so a launch holds no memory past its return.
#[derive(Default)]
struct LaunchScratch {
    traces: Vec<ThreadTrace>,
    analyzer: AnalyzerScratch,
}

/// Execute `kernel` over `cfg` against `global`/`constant`.
///
/// Functionally: all blocks run, buffered global stores are applied
/// after every block finishes (CUDA guarantees no inter-block write
/// visibility within a launch; none of the paper's kernels relies on
/// it). Performance-wise: traces are analyzed per block and reduced
/// into launch counters, then fed to the timing model.
pub fn launch<T: DeviceValue, K: Kernel<T>>(
    device: &DeviceSpec,
    kernel: &K,
    cfg: LaunchConfig,
    global: &mut GlobalMem<T>,
    constant: &ConstantMemory,
    opts: LaunchOptions,
) -> Result<LaunchReport, LaunchError> {
    if cfg.block_dim == 0 || cfg.grid_dim == 0 {
        return Err(LaunchError::BadConfig(format!(
            "grid {} x block {}",
            cfg.grid_dim, cfg.block_dim
        )));
    }
    if cfg.block_dim > device.max_threads_per_block {
        return Err(LaunchError::BadConfig(format!(
            "block of {} threads exceeds device limit {}",
            cfg.block_dim, device.max_threads_per_block
        )));
    }
    let shared_elems = kernel.shared_elems(cfg.block_dim);
    let shared_bytes = shared_elems * T::DEVICE_BYTES;
    if shared_bytes > device.shared_mem_per_sm {
        return Err(LaunchError::SharedOverflow {
            needed: shared_bytes,
            capacity: device.shared_mem_per_sm,
        });
    }
    let occ = occupancy(
        device,
        cfg.block_dim,
        shared_bytes,
        kernel.regs_per_thread(),
    )
    .ok_or_else(|| {
        LaunchError::BadConfig("kernel does not fit on an SM at any occupancy".into())
    })?;

    let run_block = |scratch: &mut LaunchScratch, block_id: u32| -> BlockOutcome<T> {
        let traces = std::mem::take(&mut scratch.traces);
        let mut blk = BlockCtx::new(block_id, cfg, shared_elems, global, constant, traces);
        kernel.run_block(&mut blk);
        let BlockCtx { traces, writes, .. } = blk;
        let counters = scratch.analyzer.analyze_block::<T>(device, &traces);
        let events = traces.iter().map(|t| t.len() as u64).sum();
        scratch.traces = traces;
        BlockOutcome {
            counters,
            events,
            writes,
        }
    };

    // Blocks are independent; run them on the host pool, one scratch
    // per participating thread (inline on this thread when the pool is
    // taken). Results are collected in block order, so everything
    // downstream is deterministic regardless of scheduling.
    let results: Vec<BlockOutcome<T>> = if opts.parallel_host {
        (0..cfg.grid_dim)
            .into_par_iter()
            .map_init(LaunchScratch::default, run_block)
            .collect()
    } else {
        let mut scratch = LaunchScratch::default();
        (0..cfg.grid_dim)
            .map(|b| run_block(&mut scratch, b))
            .collect()
    };

    let mut counters = Counters::default();
    let mut traced_events = 0;
    for r in &results {
        counters += r.counters;
        traced_events += r.events;
    }

    if opts.check_write_conflicts {
        // The first store (in block order, then program order) to an
        // element already stored to is the reported conflict.
        let mut seen: HashSet<(usize, usize)> =
            HashSet::with_capacity(results.iter().map(|r| r.writes.len()).sum());
        for (buf, idx, _) in results.iter().flat_map(|r| &r.writes) {
            if !seen.insert((buf.0, *idx)) {
                return Err(LaunchError::WriteConflict {
                    buffer: buf.0,
                    index: *idx,
                });
            }
        }
    }

    for r in results {
        for (buf, idx, v) in r.writes {
            global.write(buf, idx, v);
        }
    }

    let timing = model_launch(device, cfg, occ, &counters);
    Ok(LaunchReport {
        kernel_name: kernel.name().to_string(),
        config: cfg,
        shared_bytes_per_block: shared_bytes,
        counters,
        traced_events,
        occupancy: occ,
        timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;

    /// y[i] = a*x[i] + y[i] over complex doubles: one coalesced load
    /// pair, a multiply-add, one coalesced store.
    struct Caxpy {
        a: C64,
        x: BufferId,
        y: BufferId,
        n: usize,
    }

    impl Kernel<C64> for Caxpy {
        fn name(&self) -> &str {
            "caxpy"
        }
        fn shared_elems(&self, _b: u32) -> usize {
            0
        }
        fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
            let (a, x, y, n) = (self.a, self.x, self.y, self.n);
            blk.threads(|t| {
                let i = t.global_tid() as usize;
                if i < n {
                    let xv = t.gload(x, i);
                    let yv = t.gload(y, i);
                    let ax = t.mul(a, xv);
                    let s = t.add(ax, yv);
                    t.gstore(y, i, s);
                }
            });
        }
    }

    fn setup(n: usize) -> (DeviceSpec, GlobalMem<C64>, ConstantMemory, Caxpy) {
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::new();
        let x = g.alloc(n);
        let y = g.alloc(n);
        let xs: Vec<C64> = (0..n).map(|i| C64::from_f64(i as f64, 1.0)).collect();
        let ys: Vec<C64> = (0..n).map(|i| C64::from_f64(0.5, -(i as f64))).collect();
        g.host_write(x, 0, &xs);
        g.host_write(y, 0, &ys);
        let cm = ConstantMemory::new(&dev);
        let k = Caxpy {
            a: C64::from_f64(2.0, 1.0),
            x,
            y,
            n,
        };
        (dev, g, cm, k)
    }

    #[test]
    fn caxpy_computes_correct_values() {
        let n = 100;
        let (dev, mut g, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        let report = launch(&dev, &k, cfg, &mut g, &cm, LaunchOptions::default()).unwrap();
        let a = C64::from_f64(2.0, 1.0);
        for i in 0..n {
            let want = a * C64::from_f64(i as f64, 1.0) + C64::from_f64(0.5, -(i as f64));
            assert_eq!(g.host_read(k.y)[i], want, "element {i}");
        }
        assert_eq!(report.counters.divergent_segments, 0);
        // 4 warps minus masked tail: grid covers 128 threads for n=100.
        assert_eq!(report.counters.warps, 4);
    }

    #[test]
    fn serial_and_parallel_execution_agree() {
        let n = 200;
        let (dev, mut g1, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        let r1 = launch(&dev, &k, cfg, &mut g1, &cm, LaunchOptions::default()).unwrap();
        let (_, mut g2, cm2, k2) = setup(n);
        let r2 = launch(
            &dev,
            &k2,
            cfg,
            &mut g2,
            &cm2,
            LaunchOptions {
                parallel_host: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g1.host_read(k.y), g2.host_read(k2.y));
        assert_eq!(r1.counters, r2.counters);
    }

    #[test]
    fn coalescing_counted_for_unit_stride() {
        let n = 128;
        let (dev, mut g, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        let report = launch(&dev, &k, cfg, &mut g, &cm, LaunchOptions::default()).unwrap();
        // Per warp: 2 loads + 1 store, each 4 transactions (32 x 16B /
        // 128B), 4 warps -> 48 transactions.
        assert_eq!(report.counters.global_transactions, 48);
        assert_eq!(report.counters.global_bytes, 48 * 128);
    }

    /// Batched caxpy: `P` independent instances in one launch via a
    /// point-major [`LaunchConfig::cover_batch`] grid.
    struct BatchCaxpy {
        a: C64,
        x: BufferId,
        y: BufferId,
        n: usize,
        inner: u32,
    }

    impl Kernel<C64> for BatchCaxpy {
        fn name(&self) -> &str {
            "batch_caxpy"
        }
        fn shared_elems(&self, _b: u32) -> usize {
            0
        }
        fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
            let (a, x, y, n, inner) = (self.a, self.x, self.y, self.n, self.inner);
            // Per-instance regions are pitched to the coalescing
            // segment (128 B = 8 complex doubles) so each instance's
            // access pattern — and hence its transaction count — is
            // identical to a single-instance launch.
            let stride = n.next_multiple_of(8);
            let point = (blk.block_id() / inner) as usize;
            let chunk = blk.block_id() % inner;
            let block_dim = blk.block_dim() as usize;
            blk.threads(|t| {
                let i = chunk as usize * block_dim + t.tid() as usize;
                if i < n {
                    let xv = t.gload(x, point * stride + i);
                    let yv = t.gload(y, point * stride + i);
                    let ax = t.mul(a, xv);
                    let s = t.add(ax, yv);
                    t.gstore(y, point * stride + i, s);
                }
            });
        }
    }

    #[test]
    fn batched_grid_matches_separate_launches_bitwise() {
        let n = 100usize; // not a multiple of the block
        let stride = n.next_multiple_of(8); // 128 B pitch in C64 elements
        let p = 3;
        let dev = DeviceSpec::tesla_c2050();
        let a = C64::from_f64(2.0, 1.0);
        let xs: Vec<C64> = (0..p * n).map(|i| C64::from_f64(i as f64, 1.0)).collect();
        let ys: Vec<C64> = (0..p * n)
            .map(|i| C64::from_f64(0.5, -(i as f64)))
            .collect();

        // One batched launch over all p instances.
        let mut gb = GlobalMem::new();
        let (xb, yb) = (gb.alloc(p * stride), gb.alloc(p * stride));
        for i in 0..p {
            gb.host_write(xb, i * stride, &xs[i * n..(i + 1) * n]);
            gb.host_write(yb, i * stride, &ys[i * n..(i + 1) * n]);
        }
        let cfg = LaunchConfig::cover_batch(p, n, 32);
        let kb = BatchCaxpy {
            a,
            x: xb,
            y: yb,
            n,
            inner: LaunchConfig::blocks_for(n, 32),
        };
        let rb = launch(
            &dev,
            &kb,
            cfg,
            &mut gb,
            &ConstantMemory::new(&dev),
            LaunchOptions::default(),
        )
        .unwrap();

        // p separate single-instance launches.
        let mut singles: Vec<C64> = Vec::new();
        let mut counters = Counters::default();
        for i in 0..p {
            let mut g = GlobalMem::new();
            let (x, y) = (g.alloc(n), g.alloc(n));
            g.host_write(x, 0, &xs[i * n..(i + 1) * n]);
            g.host_write(y, 0, &ys[i * n..(i + 1) * n]);
            let k = Caxpy { a, x, y, n };
            let r = launch(
                &dev,
                &k,
                LaunchConfig::cover(n, 32),
                &mut g,
                &ConstantMemory::new(&dev),
                LaunchOptions::default(),
            )
            .unwrap();
            counters += r.counters;
            singles.extend_from_slice(g.host_read(y));
        }

        // Bit-for-bit identical results; counters for the larger grid
        // are exactly the sum over the separate launches.
        let batched = gb.host_read(yb);
        for i in 0..p {
            assert_eq!(
                &batched[i * stride..i * stride + n],
                &singles[i * n..(i + 1) * n]
            );
        }
        assert_eq!(rb.counters, counters);
        assert_eq!(rb.config.grid_dim, 3 * 4);
    }

    #[test]
    fn write_conflicts_detected() {
        struct Collider {
            y: BufferId,
        }
        impl Kernel<C64> for Collider {
            fn name(&self) -> &str {
                "collider"
            }
            fn shared_elems(&self, _b: u32) -> usize {
                0
            }
            fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
                let y = self.y;
                blk.threads(|t| {
                    // every thread stores to element 0
                    let v = C64::from_f64(t.tid() as f64, 0.0);
                    t.gstore(y, 0, v);
                });
            }
        }
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::new();
        let y = g.alloc(4);
        let cm = ConstantMemory::new(&dev);
        let err = launch(
            &dev,
            &Collider { y },
            LaunchConfig::new(1, 32),
            &mut g,
            &cm,
            LaunchOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            LaunchError::WriteConflict {
                buffer: 0,
                index: 0
            }
        ));
    }

    #[test]
    fn first_duplicate_store_is_the_reported_conflict() {
        // Block 0 stores z[1] then y[2]; block 1 stores y[2] then z[1].
        // Both elements collide, and z[1] is the first element stored
        // to, but y[2] is the first store that repeats an earlier one.
        struct TwoConflicts {
            y: BufferId,
            z: BufferId,
        }
        impl Kernel<C64> for TwoConflicts {
            fn name(&self) -> &str {
                "two_conflicts"
            }
            fn shared_elems(&self, _b: u32) -> usize {
                0
            }
            fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
                let (y, z) = (self.y, self.z);
                let first = blk.block_id() == 0;
                blk.threads(|t| match (first, t.tid()) {
                    (true, 0) | (false, 1) => t.gstore(z, 1, C64::zero()),
                    (true, 1) | (false, 0) => t.gstore(y, 2, C64::zero()),
                    _ => {}
                });
            }
        }
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::new();
        let (y, z) = (g.alloc(4), g.alloc(4));
        let cm = ConstantMemory::new(&dev);
        for parallel_host in [true, false] {
            let err = launch(
                &dev,
                &TwoConflicts { y, z },
                LaunchConfig::new(2, 32),
                &mut g,
                &cm,
                LaunchOptions {
                    parallel_host,
                    ..Default::default()
                },
            )
            .unwrap_err();
            assert_eq!(
                err,
                LaunchError::WriteConflict {
                    buffer: y.0,
                    index: 2
                }
            );
        }
    }

    /// Block `first + b` of a launch: its threads issue a number of
    /// loads and flops that varies with the block and thread, so
    /// consecutive blocks on one worker leave traces of different
    /// lengths behind in the recycled buffers.
    struct Ragged {
        x: BufferId,
        y: BufferId,
        first: u32,
    }

    impl Kernel<C64> for Ragged {
        fn name(&self) -> &str {
            "ragged"
        }
        fn shared_elems(&self, b: u32) -> usize {
            b as usize
        }
        fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
            let (x, y) = (self.x, self.y);
            let block = self.first + blk.block_id();
            let block_dim = blk.block_dim();
            blk.threads(|t| {
                let mut acc = C64::zero();
                for k in 0..(block * 7 + t.tid() * 3) % 11 {
                    let v = t.gload(x, ((block + k * t.tid()) % 64) as usize);
                    acc = t.add(acc, v);
                }
                t.sstore(t.tid() as usize, acc);
            });
            if block % 3 != 1 {
                blk.threads(|t| {
                    let v = t.sload(((t.tid() + block) % block_dim) as usize);
                    t.gstore(y, (block * block_dim + t.tid()) as usize, v);
                });
            }
        }
    }

    #[test]
    fn recycled_buffers_leave_no_stale_state() {
        let dev = DeviceSpec::tesla_c2050();
        let grid = 24;
        let run = |first: u32, blocks: u32, block_dim: u32, parallel_host: bool| {
            let mut g = GlobalMem::new();
            let x = g.alloc(64);
            let xs: Vec<C64> = (0..64).map(|i| C64::from_f64(i as f64, 0.5)).collect();
            g.host_write(x, 0, &xs);
            let y = g.alloc((grid * block_dim) as usize);
            let r = launch(
                &dev,
                &Ragged { x, y, first },
                LaunchConfig::new(blocks, block_dim),
                &mut g,
                &ConstantMemory::new(&dev),
                LaunchOptions {
                    parallel_host,
                    ..Default::default()
                },
            )
            .unwrap();
            (r.counters, r.traced_events, g.host_read(y).to_vec())
        };
        for block_dim in [64, 40] {
            let parallel = run(0, grid, block_dim, true);
            assert_eq!(parallel, run(0, grid, block_dim, false));
            // Fresh buffers per block: one single-block launch each.
            let mut counters = Counters::default();
            let mut events = 0;
            for b in 0..grid {
                let (c, e, _) = run(b, 1, block_dim, false);
                counters += c;
                events += e;
            }
            assert_eq!((parallel.0, parallel.1), (counters, events));
            assert!(parallel.0.divergent_segments > 0);
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let (dev, mut g, cm, k) = setup(4);
        assert!(matches!(
            launch(
                &dev,
                &k,
                LaunchConfig::new(0, 32),
                &mut g,
                &cm,
                LaunchOptions::default()
            ),
            Err(LaunchError::BadConfig(_))
        ));
        assert!(matches!(
            launch(
                &dev,
                &k,
                LaunchConfig::new(1, 0),
                &mut g,
                &cm,
                LaunchOptions::default()
            ),
            Err(LaunchError::BadConfig(_))
        ));
        assert!(matches!(
            launch(
                &dev,
                &k,
                LaunchConfig::new(1, 2048),
                &mut g,
                &cm,
                LaunchOptions::default()
            ),
            Err(LaunchError::BadConfig(_))
        ));
    }

    #[test]
    fn shared_overflow_rejected() {
        struct Hog;
        impl Kernel<C64> for Hog {
            fn name(&self) -> &str {
                "hog"
            }
            fn shared_elems(&self, _b: u32) -> usize {
                4096 // 64 KiB of complex doubles > 48 KiB
            }
            fn run_block(&self, _blk: &mut BlockCtx<'_, C64>) {}
        }
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::<C64>::new();
        let cm = ConstantMemory::new(&dev);
        let err = launch(
            &dev,
            &Hog,
            LaunchConfig::new(1, 32),
            &mut g,
            &cm,
            LaunchOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::SharedOverflow { .. }));
    }

    #[test]
    fn timing_report_is_populated() {
        let n = 1024;
        let (dev, mut g, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        let report = launch(&dev, &k, cfg, &mut g, &cm, LaunchOptions::default()).unwrap();
        assert!(report.timing.kernel_seconds > 0.0);
        assert!(report.timing.total_seconds() > report.timing.kernel_seconds);
        assert!(report.occupancy.blocks_per_sm >= 1);
        let shown = format!("{report}");
        assert!(shown.contains("caxpy"));
    }
}
