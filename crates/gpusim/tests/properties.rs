//! Property-based tests for the warp analyzer and timing model:
//! invariants that must hold for *any* access pattern.

use polygpu_complex::{Complex, C64};
use polygpu_gpusim::analysis::analyze_block;
use polygpu_gpusim::fault::{FaultInjector, FaultKind, FaultPlan, OpClass};
use polygpu_gpusim::prelude::*;
use polygpu_gpusim::trace::{Ev, ThreadTrace};
use polygpu_qd::Dd;
use proptest::prelude::*;

/// The warp analyzer as it was before it became single-pass and
/// allocation-free: one filtered vector per event kind per slot, one
/// vector per bank. Kept verbatim as the reference `analyze_block` must
/// match counter for counter.
mod oracle {
    use polygpu_gpusim::device::DeviceSpec;
    use polygpu_gpusim::stats::Counters;
    use polygpu_gpusim::trace::{Ev, EvKind, ThreadTrace};
    use polygpu_gpusim::value::DeviceValue;

    /// Analyze all warps of one block. `traces[t]` is thread `t`'s trace.
    pub fn analyze_block<T: DeviceValue>(device: &DeviceSpec, traces: &[ThreadTrace]) -> Counters {
        let mut total = Counters::default();
        let ws = device.warp_size as usize;
        for warp in traces.chunks(ws) {
            total += analyze_warp::<T>(device, warp);
        }
        total
    }

    fn analyze_warp<T: DeviceValue>(device: &DeviceSpec, lanes: &[ThreadTrace]) -> Counters {
        let mut c = Counters {
            warps: 1,
            ..Default::default()
        };
        // Cursor per lane.
        let mut pos = vec![0usize; lanes.len()];
        loop {
            // Segment: events up to the next Sync (exclusive) per lane.
            let seg_lens: Vec<usize> = lanes
                .iter()
                .zip(&pos)
                .map(|(tr, &p)| {
                    tr[p..]
                        .iter()
                        .position(|e| *e == Ev::Sync)
                        .unwrap_or(tr.len() - p)
                })
                .collect();
            let max_len = seg_lens.iter().copied().max().unwrap_or(0);
            // Divergence check: every active lane (nonzero segment) must
            // have the same length; inactive lanes are fine (masked).
            let active_lens: Vec<usize> = seg_lens.iter().copied().filter(|&l| l > 0).collect();
            let uniform = active_lens.windows(2).all(|w| w[0] == w[1]);
            if !uniform {
                c.divergent_segments += 1;
            }
            for s in 0..max_len {
                // Gather the events at slot s of each lane that has one.
                let evs: Vec<Ev> = lanes
                    .iter()
                    .zip(&pos)
                    .zip(&seg_lens)
                    .filter(|&((_tr, &_p), &l)| s < l)
                    .map(|((tr, &p), &_l)| tr[p + s])
                    .collect();
                charge_slot::<T>(device, &evs, &mut c, &mut false);
                // Mixed kinds in one slot (true divergence): charge each
                // kind group separately was handled inside charge_slot via
                // grouping; flag it.
                let first = evs[0].kind();
                if evs.iter().any(|e| e.kind() != first) && uniform {
                    c.divergent_segments += 1;
                }
            }
            // Advance cursors past the segment and its Sync.
            let mut all_done = true;
            for (lane, p) in pos.iter_mut().enumerate() {
                *p += seg_lens[lane];
                if *p < lanes[lane].len() {
                    *p += 1; // skip the Sync marker
                }
                if *p < lanes[lane].len() {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
        }
        c
    }

    /// Charge one warp-wide slot. Events may be of mixed kinds under
    /// divergence; each kind group is charged as its own serialized
    /// instruction.
    fn charge_slot<T: DeviceValue>(
        device: &DeviceSpec,
        evs: &[Ev],
        c: &mut Counters,
        _divergent: &mut bool,
    ) {
        use EvKind::*;
        for kind in [GLoad, GStore, SLoad, SStore, CLoad, Flop, IOp] {
            let group: Vec<Ev> = evs.iter().copied().filter(|e| e.kind() == kind).collect();
            if group.is_empty() {
                continue;
            }
            c.warp_instructions += 1;
            match kind {
                GLoad | GStore => {
                    let seg = device.coalesce_segment as u64;
                    let mut segments: Vec<u64> = group
                        .iter()
                        .flat_map(|e| {
                            let addr = match e {
                                Ev::GLoad { addr } | Ev::GStore { addr } => *addr,
                                _ => unreachable!("filtered by kind"),
                            };
                            let first = addr / seg;
                            let last = (addr + T::DEVICE_BYTES as u64 - 1) / seg;
                            first..=last
                        })
                        .collect();
                    segments.sort_unstable();
                    segments.dedup();
                    let tx = segments.len() as u64;
                    c.global_mem_ops += 1;
                    c.global_transactions += tx;
                    c.global_bytes += tx * seg;
                    c.issue_cycles += 1;
                }
                SLoad | SStore => {
                    // Map each lane's word range onto banks; replay count is
                    // the max number of distinct words in any one bank.
                    let banks = device.shared_banks as usize;
                    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks];
                    for e in &group {
                        let addr = match e {
                            Ev::SLoad { addr } | Ev::SStore { addr } => *addr,
                            _ => unreachable!("filtered by kind"),
                        };
                        let first_word = addr / 4;
                        let last_word = (addr + T::DEVICE_BYTES as u32 - 1) / 4;
                        for w in first_word..=last_word {
                            per_bank[(w as usize) % banks].push(w);
                        }
                    }
                    let mut replay = 1u64;
                    for b in &mut per_bank {
                        b.sort_unstable();
                        b.dedup();
                        replay = replay.max(b.len() as u64);
                    }
                    c.shared_accesses += 1;
                    c.issue_cycles += replay;
                    c.shared_conflict_cycles += replay - 1;
                }
                CLoad => {
                    let mut addrs: Vec<u32> = group
                        .iter()
                        .map(|e| match e {
                            Ev::CLoad { addr, .. } => *addr,
                            _ => unreachable!("filtered by kind"),
                        })
                        .collect();
                    addrs.sort_unstable();
                    addrs.dedup();
                    let distinct = addrs.len() as u64;
                    c.const_accesses += 1;
                    c.issue_cycles += distinct;
                    c.const_serializations += distinct - 1;
                }
                Flop => {
                    let max_w = group
                        .iter()
                        .map(|e| match e {
                            Ev::Flop { weight } => *weight,
                            _ => unreachable!("filtered by kind"),
                        })
                        .max()
                        .unwrap_or(0) as u64;
                    let sum_w: u64 = group
                        .iter()
                        .map(|e| match e {
                            Ev::Flop { weight } => *weight as u64,
                            _ => unreachable!("filtered by kind"),
                        })
                        .sum();
                    c.flops += sum_w;
                    c.issue_cycles += max_w * device.fp64_issue_cycles as u64;
                }
                IOp => {
                    let max_n = group
                        .iter()
                        .map(|e| match e {
                            Ev::IOp { count } => *count as u64,
                            _ => unreachable!("filtered by kind"),
                        })
                        .max()
                        .unwrap_or(0);
                    c.issue_cycles += max_n * device.int_issue_cycles as u64;
                }
                Sync => {}
            }
        }
    }
}

/// SplitMix64, the stream random blocks are drawn from.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One event of kind `kind` (in `EvKind` order) for `lane`: addresses
/// are unit-stride, strided or scattered (unaligned included), so
/// slots coalesce, conflict and broadcast in every combination.
fn random_event(kind: u64, lane: u64, r: &mut Mix) -> Ev {
    let global = |r: &mut Mix| match r.below(3) {
        0 => 0x1000 + lane * 16,
        1 => 0x1000 + lane * 8 * r.below(40),
        _ => r.below(1 << 14),
    };
    let shared = |r: &mut Mix| {
        (match r.below(3) {
            0 => lane * 16,
            1 => lane * 4 * r.below(9),
            _ => r.below(4096),
        }) as u32
    };
    match kind {
        0 => Ev::GLoad { addr: global(r) },
        1 => Ev::GStore { addr: global(r) },
        2 => Ev::SLoad { addr: shared(r) },
        3 => Ev::SStore { addr: shared(r) },
        4 => Ev::CLoad {
            addr: r.below(48) as u32,
        },
        5 => Ev::Flop {
            weight: 1 + r.below(48) as u32,
        },
        _ => Ev::IOp {
            count: 1 + r.below(8) as u32,
        },
    }
}

/// A random block of one to three warps (the last possibly partial)
/// over one to three barrier-delimited segments. Each segment follows
/// a template of slot kinds; lanes may be masked off for it, may run a
/// different number of slots (unequal active lengths) and may swap a
/// slot's kind (mixed kinds). The final barrier is sometimes missing.
fn random_block(seed: u64, warp_size: u32) -> Vec<ThreadTrace> {
    let mut r = Mix(seed);
    let ws = warp_size as u64;
    let threads = (ws * (1 + r.below(3)) - r.below(ws / 2 + 1)) as usize;
    let segments = 1 + r.below(3);
    let final_sync = r.below(8) != 0;
    let mut traces = vec![Vec::new(); threads];
    for segment in 0..segments {
        let len = r.below(6) as usize;
        let template: Vec<u64> = (0..len).map(|_| r.below(7)).collect();
        let (masked, ragged, mixed) = (r.below(2) == 0, r.below(4) == 0, r.below(4) == 0);
        for (lane, trace) in traces.iter_mut().enumerate() {
            let n = if masked && r.below(3) == 0 {
                0
            } else if ragged {
                r.below(len as u64 + 3) as usize
            } else {
                len
            };
            for s in 0..n {
                let kind = match template.get(s) {
                    Some(&k) if !(mixed && r.below(3) == 0) => k,
                    _ => r.below(7),
                };
                trace.push(random_event(kind, lane as u64, &mut r));
            }
            if final_sync || segment + 1 < segments {
                trace.push(Ev::Sync);
            }
        }
    }
    traces
}

fn device() -> DeviceSpec {
    DeviceSpec::tesla_c2050()
}

/// A warp of traces, each a single global load at an arbitrary
/// (aligned) element address.
fn gload_warp() -> impl Strategy<Value = Vec<ThreadTrace>> {
    prop::collection::vec(0u64..10_000, 32).prop_map(|idxs| {
        idxs.into_iter()
            .map(|i| {
                vec![
                    Ev::GLoad {
                        addr: 0x1000 + i * 16,
                    },
                    Ev::Sync,
                ]
            })
            .collect()
    })
}

fn sload_warp() -> impl Strategy<Value = Vec<ThreadTrace>> {
    prop::collection::vec(0u32..1024, 32).prop_map(|idxs| {
        idxs.into_iter()
            .map(|i| vec![Ev::SLoad { addr: i * 16 }, Ev::Sync])
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// The single-pass analyzer charges every counter exactly as the
    /// reference does, on any block: mixed kinds, masked lanes, unequal
    /// active lengths, one to three segments, warps of 4, 8 and 32, in
    /// double and double-double.
    #[test]
    fn analyzer_equals_the_reference(seed in 0u64..u64::MAX, dev in 0usize..3) {
        let device = match dev {
            0 => DeviceSpec::toy(4),
            1 => DeviceSpec::toy(8),
            _ => DeviceSpec::tesla_c2050(),
        };
        let traces = random_block(seed, device.warp_size);
        prop_assert_eq!(
            analyze_block::<C64>(&device, &traces),
            oracle::analyze_block::<C64>(&device, &traces)
        );
        prop_assert_eq!(
            analyze_block::<Complex<Dd>>(&device, &traces),
            oracle::analyze_block::<Complex<Dd>>(&device, &traces)
        );
    }
}

proptest! {
    #[test]
    fn global_transactions_bounded(traces in gload_warp()) {
        let c = analyze_block::<C64>(&device(), &traces);
        // One 16-byte access per lane: transactions between 1 (full
        // broadcast) and 32 lanes x 2 segments (unaligned straddle
        // cannot happen at 16B-aligned addresses, but keep the loose
        // upper bound).
        prop_assert!(c.global_transactions >= 1);
        prop_assert!(c.global_transactions <= 32);
        // Bytes are transactions x segment size.
        prop_assert_eq!(c.global_bytes, c.global_transactions * 128);
        // Lower bound: total unique bytes / segment size.
        prop_assert!(c.global_transactions as usize * 128 >= 32 * 16 / 8,
            "cannot move 512 useful bytes in fewer than 4 segments... {}",
            c.global_transactions);
    }

    #[test]
    fn coalesced_is_optimal_scattered_is_worst(base in 0u64..100) {
        // Unit stride: exactly 4 transactions. Stride >= 8 elements:
        // exactly 32.
        let unit: Vec<ThreadTrace> = (0..32)
            .map(|i| vec![Ev::GLoad { addr: 0x1000 + base * 512 + i * 16 }, Ev::Sync])
            .collect();
        let c = analyze_block::<C64>(&device(), &unit);
        prop_assert_eq!(c.global_transactions, 4);
        let scattered: Vec<ThreadTrace> = (0..32)
            .map(|i| vec![Ev::GLoad { addr: 0x1000 + base * 512 + i * 128 }, Ev::Sync])
            .collect();
        let c = analyze_block::<C64>(&device(), &scattered);
        prop_assert_eq!(c.global_transactions, 32);
    }

    #[test]
    fn shared_replays_bounded_by_worst_bank(traces in sload_warp()) {
        let c = analyze_block::<C64>(&device(), &traces);
        // A 16-byte access covers 4 words; 32 lanes x 4 words over 32
        // banks: replay (conflict + 1) can be at most 32 (all lanes'
        // words distinct in one bank is impossible here, but bound it).
        prop_assert!(c.shared_conflict_cycles < 32 * 4);
        prop_assert_eq!(c.shared_accesses, 1);
        prop_assert_eq!(c.warps, 1);
    }

    #[test]
    fn flop_accounting_is_exact(weights in prop::collection::vec(1u32..20, 32)) {
        let traces: Vec<ThreadTrace> = weights
            .iter()
            .map(|&w| vec![Ev::Flop { weight: w }, Ev::Sync])
            .collect();
        let c = analyze_block::<C64>(&device(), &traces);
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        prop_assert_eq!(c.flops, total);
        // Warp issue cost follows the widest lane.
        let max = *weights.iter().max().unwrap() as u64;
        prop_assert_eq!(c.issue_cycles, max * 2);
    }

    #[test]
    fn occupancy_monotone_in_shared_usage(
        b1 in 1usize..32_768,
        b2 in 1usize..32_768,
    ) {
        let dev = device();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let o_lo = polygpu_gpusim::occupancy::occupancy(&dev, 32, lo, 24);
        let o_hi = polygpu_gpusim::occupancy::occupancy(&dev, 32, hi, 24);
        if let (Some(a), Some(b)) = (o_lo, o_hi) {
            prop_assert!(a.blocks_per_sm >= b.blocks_per_sm,
                "more shared memory cannot increase occupancy");
        }
    }

    /// A fault schedule is a pure function of `(seed, device, op,
    /// class)`: re-querying a plan — or a freshly constructed equal
    /// plan — reproduces the exact same fault, which is what makes
    /// chaos runs replayable.
    #[test]
    fn fault_schedule_is_a_pure_function(
        seed in 0u64..u64::MAX,
        rate in 0u32..=1_000_000,
        device in 0usize..64,
        op in 0u64..u64::MAX,
    ) {
        let plan = FaultPlan::new(seed, rate);
        for class in [OpClass::HostToDevice, OpClass::DeviceToHost, OpClass::Kernel] {
            let first = plan.fault_at(device, op, class);
            prop_assert_eq!(first.clone(), plan.fault_at(device, op, class));
            prop_assert_eq!(first, FaultPlan::new(seed, rate).fault_at(device, op, class));
        }
        // Rate endpoints: zero never faults, full always faults.
        prop_assert_eq!(FaultPlan::new(seed, 0).fault_at(device, op, OpClass::Kernel), None);
        prop_assert!(
            FaultPlan::new(seed, 1_000_000).fault_at(device, op, OpClass::Kernel).is_some()
        );
    }

    /// Every drawn fault is legal for its operation class: transfers
    /// corrupt or lose the device, kernels fail, hang (with a positive
    /// timeout) or lose the device — a transfer never "hangs at
    /// launch".
    #[test]
    fn fault_kinds_respect_op_class(
        seed in 0u64..u64::MAX,
        device in 0usize..64,
        op in 0u64..u64::MAX,
    ) {
        let plan = FaultPlan::new(seed, 1_000_000);
        for class in [OpClass::HostToDevice, OpClass::DeviceToHost] {
            let kind = plan.fault_at(device, op, class).unwrap();
            prop_assert!(
                matches!(kind, FaultKind::DeviceLost | FaultKind::TransferCorrupt),
                "transfer drew {kind:?}"
            );
        }
        match plan.fault_at(device, op, OpClass::Kernel).unwrap() {
            FaultKind::LaunchHang { timeout } => prop_assert!(timeout > 0.0),
            FaultKind::DeviceLost | FaultKind::LaunchFailed => {}
            other => prop_assert!(false, "kernel drew {other:?}"),
        }
    }

    /// Two armed injectors over the same plan and device replay the
    /// identical fault sequence — and device loss is sticky: after the
    /// first `DeviceLost`, every subsequent operation fails with
    /// `DeviceLost` without advancing the schedule.
    #[test]
    fn injector_replay_is_deterministic_and_loss_is_sticky(
        seed in 0u64..u64::MAX,
        rate in 1u32..200_000,
        device in 0usize..8,
        ops in prop::collection::vec(prop_oneof![
            Just(OpClass::HostToDevice),
            Just(OpClass::Kernel),
            Just(OpClass::DeviceToHost),
        ], 1..200),
    ) {
        let spec = DeviceSpec::tesla_c2050();
        let plan = FaultPlan::new(seed, rate);
        let mut a = FaultInjector::new(plan, device);
        let mut b = FaultInjector::new(plan, device);
        a.arm();
        b.arm();
        let mut lost = false;
        for &class in &ops {
            let fa = a.check(class, &spec, 1e-5);
            let fb = b.check(class, &spec, 1e-5);
            prop_assert_eq!(fa.clone(), fb, "replay diverged");
            if lost {
                prop_assert!(
                    matches!(fa, Some(FaultError { kind: FaultKind::DeviceLost, .. })),
                    "a lost device must stay lost"
                );
            }
            if matches!(fa, Some(FaultError { kind: FaultKind::DeviceLost, .. })) {
                lost = true;
            }
        }
        prop_assert_eq!(a.is_lost(), lost);
    }

    #[test]
    fn timing_monotone_in_issue_cycles(c1 in 100u64..100_000, c2 in 100u64..100_000) {
        use polygpu_gpusim::timing::model_launch;
        let dev = device();
        let occ = polygpu_gpusim::occupancy::occupancy(&dev, 32, 1024, 24).unwrap();
        let cfg = LaunchConfig::new(28, 32);
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let make = |cycles: u64| Counters {
            warps: 28,
            issue_cycles: 28 * cycles,
            global_mem_ops: 28 * 10,
            global_bytes: 28 * 50 * 128,
            ..Default::default()
        };
        let t_lo = model_launch(&dev, cfg, occ, &make(lo));
        let t_hi = model_launch(&dev, cfg, occ, &make(hi));
        prop_assert!(t_hi.kernel_cycles >= t_lo.kernel_cycles);
    }
}
