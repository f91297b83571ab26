//! Simulated device memory spaces: global (typed buffers with virtual
//! byte addresses) and constant (a capacity-enforced byte arena).

use crate::device::DeviceSpec;
use crate::value::DeviceValue;
use std::fmt;

/// Handle to a global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// Global device memory: a set of typed buffers, each with a virtual
/// 256-byte-aligned base address so the coalescing analyzer can reason
/// about real byte addresses.
///
/// A buffer's device footprint is its full allocated length, but its
/// host backing is only the prefix written so far (all of it once the
/// host reads the buffer back): elements past it read as zero. So an
/// engine sized for a large batch but driven with small ones (a
/// serving fleet's resident systems, each with a capacity-sized
/// workspace) holds host memory for the work it actually did.
#[derive(Debug, Clone)]
pub struct GlobalMem<T> {
    /// Host backing per buffer: the written prefix.
    buffers: Vec<Vec<T>>,
    /// Allocated length per buffer, in elements.
    lens: Vec<usize>,
    bases: Vec<u64>,
    next_base: u64,
}

impl<T: DeviceValue> GlobalMem<T> {
    pub fn new() -> Self {
        GlobalMem {
            buffers: Vec::new(),
            lens: Vec::new(),
            bases: Vec::new(),
            next_base: 0x1000, // device allocations never start at null
        }
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(Vec::new());
        self.lens.push(len);
        self.bases.push(self.next_base);
        let bytes = (len * T::DEVICE_BYTES) as u64;
        self.next_base += (bytes + 255) & !255; // keep bases 256-aligned
        id
    }

    /// Host-side write (cudaMemcpy host→device); not traced.
    pub fn host_write(&mut self, id: BufferId, offset: usize, data: &[T]) {
        let end = offset + data.len();
        self.backing_to(id, end)[offset..end].copy_from_slice(data);
    }

    /// Host-side read (device→host) of the whole buffer; not traced.
    pub fn host_read(&mut self, id: BufferId) -> &[T] {
        let len = self.lens[id.0];
        self.backing_to(id, len)
    }

    pub fn len(&self, id: BufferId) -> usize {
        self.lens[id.0]
    }

    pub fn is_empty(&self, id: BufferId) -> bool {
        self.lens[id.0] == 0
    }

    /// The host backing of `id`, zero-extended to at least `end`
    /// elements. Panics past the allocated length, like an indexed
    /// access to a fully backed buffer would.
    fn backing_to(&mut self, id: BufferId, end: usize) -> &mut Vec<T> {
        let len = self.lens[id.0];
        assert!(
            end <= len,
            "global access to element {} of a {len}-element buffer",
            end - 1
        );
        let b = &mut self.buffers[id.0];
        if b.len() < end {
            b.resize(end, T::zero());
        }
        b
    }

    /// Virtual byte address of element `idx` of buffer `id`.
    #[inline]
    pub fn addr(&self, id: BufferId, idx: usize) -> u64 {
        self.bases[id.0] + (idx * T::DEVICE_BYTES) as u64
    }

    #[inline]
    pub(crate) fn read(&self, id: BufferId, idx: usize) -> T {
        match self.buffers[id.0].get(idx) {
            Some(&v) => v,
            None => {
                let len = self.lens[id.0];
                assert!(
                    idx < len,
                    "global access to element {idx} of a {len}-element buffer"
                );
                T::zero()
            }
        }
    }

    #[inline]
    pub(crate) fn write(&mut self, id: BufferId, idx: usize, v: T) {
        match self.buffers[id.0].get_mut(idx) {
            Some(slot) => *slot = v,
            None => self.backing_to(id, idx + 1)[idx] = v,
        }
    }

    /// Total allocated bytes (device footprint).
    pub fn allocated_bytes(&self) -> usize {
        self.lens.iter().map(|len| len * T::DEVICE_BYTES).sum()
    }
}

impl<T: DeviceValue> Default for GlobalMem<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Handle to a constant-memory allocation (byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstId {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl ConstId {
    pub fn len(&self) -> usize {
        self.len
    }
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Error: a constant-memory allocation exceeded the device budget —
/// the failure mode the paper hits at 2,048 monomials ("the capacity of
/// the constant memory was not sufficient to hold the exponents and
/// positions of all 2,048 monomials").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantOverflow {
    pub requested_total: usize,
    pub budget: usize,
}

impl fmt::Display for ConstantOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constant memory exhausted: need {} bytes, budget is {} bytes",
            self.requested_total, self.budget
        )
    }
}

impl std::error::Error for ConstantOverflow {}

/// Constant memory: a read-only byte arena with the device's capacity
/// enforced at allocation time.
///
/// Regions can be returned with [`ConstantMemory::free`] (how a
/// residency session evicts an encoded system); freed regions coalesce
/// and are reused first-fit by later allocations, so a long-lived
/// serving arena does not leak budget. [`ConstantMemory::used`] counts
/// **live** bytes only.
#[derive(Debug, Clone)]
pub struct ConstantMemory {
    bytes: Vec<u8>,
    budget: usize,
    /// Free regions `(offset, len)`, sorted by offset, coalesced.
    free: Vec<(usize, usize)>,
    /// Live (allocated, not freed) bytes — the budget denominator.
    live: usize,
}

impl ConstantMemory {
    pub fn new(device: &DeviceSpec) -> Self {
        ConstantMemory {
            bytes: Vec::new(),
            budget: device.constant_budget(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Allocate and fill a region; fails if the live total would
    /// exceed the budget. Freed regions are reused first-fit (lowest
    /// offset wins — deterministic) before the arena grows.
    pub fn alloc(&mut self, data: &[u8]) -> Result<ConstId, ConstantOverflow> {
        let requested_total = self.live + data.len();
        if requested_total > self.budget {
            return Err(ConstantOverflow {
                requested_total,
                budget: self.budget,
            });
        }
        // First fit over the sorted free list.
        if let Some(i) = self.free.iter().position(|&(_, len)| len >= data.len()) {
            let (offset, len) = self.free[i];
            if len == data.len() {
                self.free.remove(i);
            } else {
                self.free[i] = (offset + data.len(), len - data.len());
            }
            self.bytes[offset..offset + data.len()].copy_from_slice(data);
            self.live += data.len();
            return Ok(ConstId {
                offset,
                len: data.len(),
            });
        }
        let offset = self.bytes.len();
        self.bytes.extend_from_slice(data);
        self.live += data.len();
        Ok(ConstId {
            offset,
            len: data.len(),
        })
    }

    /// Return a region to the arena: its bytes become reusable by
    /// later allocations and stop counting against the budget.
    /// Zero-length regions are a no-op. Freeing the same region twice
    /// is a caller bug (debug-asserted).
    pub fn free(&mut self, id: ConstId) {
        if id.len == 0 {
            return;
        }
        debug_assert!(
            !self
                .free
                .iter()
                .any(|&(o, l)| id.offset < o + l && o < id.offset + id.len),
            "double free of constant region at offset {}",
            id.offset
        );
        self.live -= id.len;
        let at = self
            .free
            .iter()
            .position(|&(o, _)| o > id.offset)
            .unwrap_or(self.free.len());
        self.free.insert(at, (id.offset, id.len));
        // Coalesce neighbours so big systems can land in reused space.
        let mut i = at.saturating_sub(1);
        while i + 1 < self.free.len() {
            let (o0, l0) = self.free[i];
            let (o1, l1) = self.free[i + 1];
            if o0 + l0 == o1 {
                self.free[i] = (o0, l0 + l1);
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Live bytes (allocated and not freed) — what counts against the
    /// budget.
    pub fn used(&self) -> usize {
        self.live
    }

    pub fn budget(&self) -> usize {
        self.budget
    }

    #[inline]
    pub(crate) fn read_u8(&self, id: ConstId, idx: usize) -> u8 {
        debug_assert!(idx < id.len);
        self.bytes[id.offset + idx]
    }

    /// Read a little-endian `u64` word at element index `idx` (byte
    /// offset `8 * idx`) — the packed exponent-key encodings store
    /// whole words.
    #[inline]
    pub(crate) fn read_u64(&self, id: ConstId, idx: usize) -> u64 {
        let at = idx * 8;
        debug_assert!(at + 8 <= id.len);
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[id.offset + at..id.offset + at + 8]);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian `u32` at element index `idx` (byte offset
    /// `4 * idx`) — the ragged-support monomial headers.
    #[inline]
    pub(crate) fn read_u32(&self, id: ConstId, idx: usize) -> u32 {
        let at = idx * 4;
        debug_assert!(at + 4 <= id.len);
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.bytes[id.offset + at..id.offset + at + 4]);
        u32::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;

    #[test]
    fn buffers_get_disjoint_aligned_bases() {
        let mut g = GlobalMem::<C64>::new();
        let a = g.alloc(3); // 48 bytes
        let b = g.alloc(100);
        assert_eq!(g.addr(a, 0) % 256, 0);
        assert_eq!(g.addr(b, 0) % 256, 0);
        assert!(g.addr(b, 0) >= g.addr(a, 0) + 48);
        assert_eq!(g.addr(a, 2) - g.addr(a, 0), 32);
    }

    #[test]
    fn host_write_read_round_trip() {
        let mut g = GlobalMem::<C64>::new();
        let a = g.alloc(4);
        g.host_write(a, 1, &[C64::from_f64(1.0, 2.0), C64::from_f64(3.0, 4.0)]);
        assert_eq!(g.host_read(a)[0], C64::zero());
        assert_eq!(g.host_read(a)[1], C64::from_f64(1.0, 2.0));
        assert_eq!(g.host_read(a)[2], C64::from_f64(3.0, 4.0));
        assert_eq!(g.len(a), 4);
        assert_eq!(g.allocated_bytes(), 64);
    }

    #[test]
    fn host_backing_is_the_written_prefix() {
        let mut g = GlobalMem::<C64>::new();
        let a = g.alloc(1000);
        let b = g.alloc(8);
        assert_eq!((g.len(a), g.allocated_bytes()), (1000, 1008 * 16));
        assert_eq!(g.read(a, 999), C64::zero());
        g.write(a, 2, C64::from_f64(5.0, 0.0));
        assert_eq!(g.buffers[a.0].len(), 3, "backed up to the last write");
        assert_eq!(g.read(a, 2), C64::from_f64(5.0, 0.0));
        assert_eq!(g.read(a, 3), C64::zero());
        // Addresses and footprint follow the allocated length.
        assert_eq!(g.addr(b, 0), g.addr(a, 0) + 16_128);
        assert_eq!(g.allocated_bytes(), 1008 * 16);
        // A host read sees the whole buffer.
        let all = g.host_read(a);
        assert_eq!(all.len(), 1000);
        assert_eq!(all[2], C64::from_f64(5.0, 0.0));
        assert!(all[3..].iter().all(|&v| v == C64::zero()));
        assert!(g.host_read(b).iter().all(|&v| v == C64::zero()));
    }

    #[test]
    #[should_panic(expected = "element 8 of a 8-element buffer")]
    fn reads_past_the_allocation_panic() {
        let mut g = GlobalMem::<C64>::new();
        let a = g.alloc(8);
        g.read(a, 8);
    }

    #[test]
    #[should_panic(expected = "element 9 of a 8-element buffer")]
    fn writes_past_the_allocation_panic() {
        let mut g = GlobalMem::<C64>::new();
        let a = g.alloc(8);
        g.host_write(a, 7, &[C64::zero(); 3]);
    }

    #[test]
    fn constant_capacity_enforced() {
        let dev = DeviceSpec::toy(4);
        let mut c = ConstantMemory::new(&dev);
        assert_eq!(c.budget(), 1024);
        let a = c.alloc(&[7u8; 1000]).unwrap();
        assert_eq!(c.read_u8(a, 999), 7);
        let err = c.alloc(&[0u8; 100]).unwrap_err();
        assert_eq!(err.requested_total, 1100);
        assert_eq!(err.budget, 1024);
        // exact fit works
        let b = c.alloc(&[1u8; 24]).unwrap();
        assert_eq!(c.used(), 1024);
        assert_eq!(c.read_u8(b, 0), 1);
    }

    #[test]
    fn c2050_reserved_bytes_shrink_budget() {
        let dev = DeviceSpec::tesla_c2050();
        let mut c = ConstantMemory::new(&dev);
        // The paper's k=16 encoding of 2048 monomials is exactly 65,536
        // payload bytes: it cannot fit alongside the reserved region.
        assert!(c.alloc(&vec![0u8; 65_536]).is_err());
        // 1,536 monomials (Table 2's largest point) fit: 49,152 bytes.
        let mut c2 = ConstantMemory::new(&dev);
        assert!(c2.alloc(&vec![0u8; 1536 * 2 * 16]).is_ok());
    }
}
