//! Per-thread execution traces.
//!
//! Kernels run as ordinary Rust closures, but every memory access and
//! arithmetic operation goes through the [`crate::kernel::ThreadCtx`]
//! API, which appends one [`Ev`] per operation. The warp analyzer
//! (`analysis`) then replays the traces of the 32 threads of each warp
//! in lockstep — slot `s` of every lane is treated as one warp-wide
//! instruction, which is exact for the divergence-free kernels the
//! paper designs and detected-and-flagged otherwise.

/// One traced operation of one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// Global-memory load of one element (element size is uniform per
    /// launch).
    GLoad { addr: u64 },
    /// Global-memory store of one element.
    GStore { addr: u64 },
    /// Shared-memory load at a byte offset within the block's region.
    SLoad { addr: u32 },
    /// Shared-memory store.
    SStore { addr: u32 },
    /// Constant-memory load at an absolute byte offset. Its cost
    /// depends only on how many distinct addresses a warp reads
    /// (broadcast is free), not on the width of the load.
    CLoad { addr: u32 },
    /// Arithmetic costing `weight` hardware-double flops.
    Flop { weight: u32 },
    /// `count` integer/address operations (index decode etc.).
    IOp { count: u32 },
    /// Block-wide barrier marker (`__syncthreads()` boundary). Inserted
    /// by the executor between `threads()` segments for every thread,
    /// active or not, so segments re-align across the warp.
    Sync,
}

impl Ev {
    /// Coarse kind used to check lockstep compatibility across a warp.
    pub fn kind(&self) -> EvKind {
        match self {
            Ev::GLoad { .. } => EvKind::GLoad,
            Ev::GStore { .. } => EvKind::GStore,
            Ev::SLoad { .. } => EvKind::SLoad,
            Ev::SStore { .. } => EvKind::SStore,
            Ev::CLoad { .. } => EvKind::CLoad,
            Ev::Flop { .. } => EvKind::Flop,
            Ev::IOp { .. } => EvKind::IOp,
            Ev::Sync => EvKind::Sync,
        }
    }
}

/// Event kind without payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvKind {
    GLoad,
    GStore,
    SLoad,
    SStore,
    CLoad,
    Flop,
    IOp,
    Sync,
}

/// The trace of one thread: its ordered event list.
pub type ThreadTrace = Vec<Ev>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_discriminate() {
        assert_eq!(Ev::GLoad { addr: 1 }.kind(), EvKind::GLoad);
        assert_eq!(Ev::GStore { addr: 1 }.kind(), EvKind::GStore);
        assert_ne!(Ev::GLoad { addr: 1 }.kind(), Ev::GStore { addr: 1 }.kind());
        assert_eq!(Ev::Flop { weight: 3 }.kind(), Ev::Flop { weight: 9 }.kind());
        assert_eq!(Ev::Sync.kind(), EvKind::Sync);
    }
}
