//! Warp-level replay of thread traces: coalescing, bank conflicts,
//! constant broadcast, divergence detection.
//!
//! The traces of the `warp_size` threads of a warp are walked in
//! lockstep, slot by slot within each barrier-delimited segment. Slot
//! `s` across the lanes is one warp-wide instruction; its cost depends
//! on the access pattern:
//!
//! * **global**: the lanes' byte ranges are grouped into aligned
//!   128-byte segments (Fermi L1 lines); one transaction per distinct
//!   segment. A fully coalesced warp-wide load of 16-byte complex
//!   doubles touches 4 segments; a scattered one up to 32.
//! * **shared**: the lanes' words are mapped onto the 32 banks; the
//!   access replays once per distinct word in the most-contended bank.
//! * **constant**: one cycle per distinct address (broadcast is free).
//! * **arithmetic**: `fp64_issue_cycles` per hardware-double flop of
//!   the widest lane.
//!
//! Lanes may be inactive for a whole segment (guarded by `if tid < n`),
//! which models SIMT masking. Any other shape mismatch marks the
//! segment divergent; its cost is the per-kind serialization of the
//! mismatched slots, the conservative SIMT behaviour.
//!
//! **Cost of the analysis itself.** One walk over the lanes per slot
//! ORs their event kinds into a bitmask and gathers their operands
//! (address, flop weight or op count) into one reused buffer; a
//! single-kind slot — every slot of the paper's divergence-free
//! kernels — is charged from that buffer alone. Addresses are sorted in
//! place and the lanes' covered ranges merged: the distinct 128-byte
//! segments are the transactions, the distinct shared-memory words are
//! tallied per bank, the distinct constant addresses serialize. Flops
//! and integer ops are running sums and maxima. A mixed-kind slot walks
//! the lanes once more per kind present. Nothing is allocated per slot,
//! per warp or — since the executor recycles one set of these buffers
//! across a worker's blocks — per block, so analysing a launch costs a
//! small constant per traced event: about 10 ns on one core of a
//! 2-vCPU Intel Xeon virtual machine for the paper's kernels (`cargo
//! bench -p polygpu-bench --bench simulator` prints the whole launch's
//! host cost per event).

use crate::device::DeviceSpec;
use crate::stats::Counters;
use crate::trace::{Ev, EvKind, ThreadTrace};
use crate::value::DeviceValue;

/// The kinds a slot can hold, in `EvKind` discriminant order — the
/// order a mixed-kind slot charges (serializes) them.
const SLOT_KINDS: [EvKind; 7] = [
    EvKind::GLoad,
    EvKind::GStore,
    EvKind::SLoad,
    EvKind::SStore,
    EvKind::CLoad,
    EvKind::Flop,
    EvKind::IOp,
];

// A one-kind slot's bitmask indexes `SLOT_KINDS` by discriminant.
const _: () = {
    let mut i = 0;
    while i < SLOT_KINDS.len() {
        assert!(SLOT_KINDS[i] as usize == i);
        i += 1;
    }
};

/// Analyze all warps of one block. `traces[t]` is thread `t`'s trace.
pub fn analyze_block<T: DeviceValue>(device: &DeviceSpec, traces: &[ThreadTrace]) -> Counters {
    AnalyzerScratch::default().analyze_block::<T>(device, traces)
}

/// The warp analyzer's working buffers, kept between calls so that
/// analysing a block allocates nothing once they have grown to the
/// warp width and the device's bank count.
#[derive(Debug, Default)]
pub(crate) struct AnalyzerScratch {
    /// Per lane: index of the first event of the current segment.
    pos: Vec<usize>,
    /// Per lane: events in the current segment (up to its `Sync`).
    seg: Vec<usize>,
    /// Operands of the slot group being charged, in lane order until
    /// [`charge`] sorts them.
    ops: Vec<u64>,
    /// Per shared-memory bank: distinct words the slot group touches.
    bank_words: Vec<u64>,
}

impl AnalyzerScratch {
    /// [`analyze_block`] over these buffers.
    pub(crate) fn analyze_block<T: DeviceValue>(
        &mut self,
        device: &DeviceSpec,
        traces: &[ThreadTrace],
    ) -> Counters {
        let mut total = Counters::default();
        for warp in traces.chunks(device.warp_size as usize) {
            self.analyze_warp::<T>(device, warp, &mut total);
        }
        total
    }

    /// Add one warp's counters to `c`.
    fn analyze_warp<T: DeviceValue>(
        &mut self,
        device: &DeviceSpec,
        lanes: &[ThreadTrace],
        c: &mut Counters,
    ) {
        let AnalyzerScratch {
            pos,
            seg,
            ops,
            bank_words,
        } = self;
        c.warps += 1;
        pos.clear();
        pos.resize(lanes.len(), 0);
        seg.clear();
        seg.resize(lanes.len(), 0);
        loop {
            // Segment: events up to the next Sync (exclusive) per lane.
            // Every active lane (nonzero segment) must have the same
            // length; inactive lanes are fine (masked).
            let mut max_len = 0;
            let mut active_len = 0;
            let mut uniform = true;
            for ((tr, &p), len) in lanes.iter().zip(pos.iter()).zip(seg.iter_mut()) {
                let rest = &tr[p..];
                *len = rest
                    .iter()
                    .position(|e| matches!(e, Ev::Sync))
                    .unwrap_or(rest.len());
                if *len > 0 {
                    uniform &= active_len == 0 || active_len == *len;
                    active_len = *len;
                }
                max_len = max_len.max(*len);
            }
            if !uniform {
                c.divergent_segments += 1;
            }
            for s in 0..max_len {
                ops.clear();
                let mut present = 0u8;
                for e in slot(lanes, pos, seg, s) {
                    present |= 1 << e.kind() as u8;
                    ops.push(operand(e));
                }
                if present.is_power_of_two() {
                    let kind = SLOT_KINDS[present.trailing_zeros() as usize];
                    charge::<T>(device, kind, ops, bank_words, c);
                    continue;
                }
                // Mixed kinds: each kind group is its own serialized
                // instruction, and in an otherwise uniform segment the
                // slot is divergence too.
                for kind in SLOT_KINDS {
                    if present & 1 << kind as u8 != 0 {
                        ops.clear();
                        ops.extend(
                            slot(lanes, pos, seg, s)
                                .filter(|e| e.kind() == kind)
                                .map(operand),
                        );
                        charge::<T>(device, kind, ops, bank_words, c);
                    }
                }
                if uniform {
                    c.divergent_segments += 1;
                }
            }
            // Advance cursors past the segment and its Sync.
            let mut all_done = true;
            for ((tr, p), &len) in lanes.iter().zip(pos.iter_mut()).zip(seg.iter()) {
                *p += len;
                if *p < tr.len() {
                    *p += 1; // skip the Sync marker
                }
                all_done &= *p >= tr.len();
            }
            if all_done {
                break;
            }
        }
    }
}

/// The events at slot `s` of every lane whose current segment reaches
/// it, in lane order.
#[inline]
fn slot<'a>(
    lanes: &'a [ThreadTrace],
    pos: &'a [usize],
    seg: &'a [usize],
    s: usize,
) -> impl Iterator<Item = Ev> + 'a {
    lanes
        .iter()
        .zip(pos)
        .zip(seg)
        .filter(move |&(_, &len)| s < len)
        .map(move |((tr, &p), _)| tr[p + s])
}

/// An event's one operand: its address, flop weight or op count.
#[inline]
fn operand(e: Ev) -> u64 {
    match e {
        Ev::GLoad { addr } | Ev::GStore { addr } => addr,
        Ev::SLoad { addr } | Ev::SStore { addr } | Ev::CLoad { addr } => addr as u64,
        Ev::Flop { weight } => weight as u64,
        Ev::IOp { count } => count as u64,
        Ev::Sync => 0,
    }
}

/// Charge one `kind` group of a slot, given its lanes' operands, as one
/// warp-wide instruction. Sorts `ops`.
fn charge<T: DeviceValue>(
    device: &DeviceSpec,
    kind: EvKind,
    ops: &mut [u64],
    bank_words: &mut Vec<u64>,
    c: &mut Counters,
) {
    c.warp_instructions += 1;
    match kind {
        EvKind::GLoad | EvKind::GStore => {
            // One transaction per distinct segment any lane's bytes
            // touch.
            let seg = device.coalesce_segment as u64;
            let last = T::DEVICE_BYTES as u64 - 1;
            let mut tx = 0;
            for_each_distinct(ops, |addr| (addr / seg, (addr + last) / seg), |_| tx += 1);
            c.global_mem_ops += 1;
            c.global_transactions += tx;
            c.global_bytes += tx * seg;
            c.issue_cycles += 1;
        }
        EvKind::SLoad | EvKind::SStore => {
            // The access replays once per distinct word in the
            // most-contended bank.
            let banks = device.shared_banks as u64;
            let last = T::DEVICE_BYTES as u32 - 1;
            bank_words.clear();
            bank_words.resize(banks as usize, 0);
            for_each_distinct(
                ops,
                |addr| (addr / 4, ((addr as u32 + last) / 4) as u64),
                |word| bank_words[(word % banks) as usize] += 1,
            );
            let replay = bank_words.iter().copied().max().unwrap_or(0).max(1);
            c.shared_accesses += 1;
            c.issue_cycles += replay;
            c.shared_conflict_cycles += replay - 1;
        }
        EvKind::CLoad => {
            // One cycle per distinct address; broadcast is free.
            let mut distinct = 0;
            for_each_distinct(ops, |addr| (addr, addr), |_| distinct += 1);
            c.const_accesses += 1;
            c.issue_cycles += distinct;
            c.const_serializations += distinct - 1;
        }
        EvKind::Flop => {
            c.flops += ops.iter().sum::<u64>();
            c.issue_cycles += max(ops) * device.fp64_issue_cycles as u64;
        }
        EvKind::IOp => c.issue_cycles += max(ops) * device.int_issue_cycles as u64,
        EvKind::Sync => {}
    }
}

/// Sort the lanes' addresses, map each to the inclusive unit range
/// `span(addr)` it covers (segments, words), and call `f` once per
/// distinct unit of the union. `span` must be monotone in `addr`, so
/// sorted addresses give ranges sorted by both ends and the union is
/// one merge pass.
#[inline]
fn for_each_distinct(ops: &mut [u64], span: impl Fn(u64) -> (u64, u64), mut f: impl FnMut(u64)) {
    ops.sort_unstable();
    let mut next = 0; // first unit not yet visited
    for &addr in ops.iter() {
        let (first, last) = span(addr);
        for unit in first.max(next)..=last {
            f(unit);
        }
        next = next.max(last + 1);
    }
}

#[inline]
fn max(ops: &[u64]) -> u64 {
    ops.iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;

    fn dev() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    fn trace_of(evs: Vec<Ev>) -> ThreadTrace {
        let mut t = evs;
        t.push(Ev::Sync);
        t
    }

    #[test]
    fn coalesced_load_of_complex_doubles_is_four_transactions() {
        // 32 lanes loading consecutive 16-byte elements: 512 bytes =
        // 4 x 128-byte segments.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                trace_of(vec![Ev::GLoad {
                    addr: 0x1000 + i * 16,
                }])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.global_transactions, 4);
        assert_eq!(c.global_bytes, 512);
        assert_eq!(c.divergent_segments, 0);
        assert_eq!(c.warps, 1);
    }

    #[test]
    fn strided_load_explodes_transactions() {
        // Stride 256 bytes: every lane in its own segment.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                trace_of(vec![Ev::GLoad {
                    addr: 0x1000 + i * 256,
                }])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.global_transactions, 32);
    }

    #[test]
    fn broadcast_load_is_one_transaction() {
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|_| trace_of(vec![Ev::GLoad { addr: 0x2000 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.global_transactions, 1);
    }

    #[test]
    fn shared_conflict_free_when_lanes_hit_distinct_banks() {
        // f64 elements (8 bytes = 2 words): lanes at consecutive
        // elements cover banks 2i, 2i+1 - 16 lanes fill 32 banks once;
        // 32 lanes revisit each bank with a *different* word -> 2-way.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| trace_of(vec![Ev::SStore { addr: i * 16 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        // Complex double = 4 words per lane; 32 lanes x 4 words = 128
        // words over 32 banks = 4 distinct words per bank.
        assert_eq!(c.shared_conflict_cycles, 3);
        assert_eq!(c.shared_accesses, 1);
    }

    #[test]
    fn shared_same_word_broadcast_no_conflict() {
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|_| trace_of(vec![Ev::SLoad { addr: 64 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.shared_conflict_cycles, 0);
    }

    #[test]
    fn constant_broadcast_vs_divergent_addresses() {
        let same: Vec<ThreadTrace> = (0..32)
            .map(|_| trace_of(vec![Ev::CLoad { addr: 10 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &same);
        assert_eq!(c.const_serializations, 0);

        let diff: Vec<ThreadTrace> = (0..32)
            .map(|i| trace_of(vec![Ev::CLoad { addr: i as u32 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &diff);
        assert_eq!(c.const_serializations, 31);
    }

    #[test]
    fn masked_lanes_are_not_divergence() {
        // Lanes 0..8 active, rest idle for the whole segment (if tid < 8
        // guard): uniform.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                if i < 8 {
                    trace_of(vec![Ev::Flop { weight: 6 }])
                } else {
                    trace_of(vec![])
                }
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.divergent_segments, 0);
        assert_eq!(c.flops, 48);
        // issue cost is that of a full warp instruction
        assert_eq!(c.issue_cycles, 12);
    }

    #[test]
    fn unequal_active_lengths_flag_divergence() {
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                let n = if i % 2 == 0 { 1 } else { 3 };
                trace_of(vec![Ev::Flop { weight: 1 }; n])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert!(c.divergent_segments > 0);
        // Cost follows the longest lane: 3 slots.
        assert_eq!(c.warp_instructions, 3);
    }

    #[test]
    fn multi_segment_traces_realign_after_sync() {
        // Segment 1: only lane 0 works. Segment 2: all lanes work.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                let mut t = Vec::new();
                if i == 0 {
                    t.push(Ev::Flop { weight: 6 });
                }
                t.push(Ev::Sync);
                t.push(Ev::GLoad {
                    addr: 0x1000 + i * 16,
                });
                t.push(Ev::Sync);
                t
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.divergent_segments, 0);
        assert_eq!(c.global_transactions, 4);
    }

    #[test]
    fn two_warps_counted_separately() {
        let traces: Vec<ThreadTrace> = (0..64)
            .map(|i| {
                trace_of(vec![Ev::GLoad {
                    addr: 0x1000 + (i % 32) * 16,
                }])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.warps, 2);
        assert_eq!(c.global_transactions, 8);
    }
}
