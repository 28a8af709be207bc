//! The device memory arena.
//!
//! Buffers are identified by typed handles (`BufF64`, `BufU32`) so kernel
//! bodies — plain closures over `&mut DeviceMemory` — can address several
//! buffers without fighting the borrow checker over disjoint `&mut`s.
//! [`DeviceMemory::f64_split`] borrows a kernel's whole working set at
//! once — any number of buffers to read, any number of distinct buffers
//! to write — so a body works on device memory in place.

/// Handle to a device-resident `f64` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufF64(usize);

/// Handle to a device-resident `u32` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufU32(usize);

enum Slot {
    F64(Vec<f64>),
    U32(Vec<u32>),
}

/// The arena of device buffers.
#[derive(Default)]
pub struct DeviceMemory {
    slots: Vec<Slot>,
}

impl DeviceMemory {
    /// Allocate an `f64` buffer.
    pub fn alloc_f64(&mut self, data: Vec<f64>) -> BufF64 {
        self.slots.push(Slot::F64(data));
        BufF64(self.slots.len() - 1)
    }

    /// Allocate a `u32` buffer.
    pub fn alloc_u32(&mut self, data: Vec<u32>) -> BufU32 {
        self.slots.push(Slot::U32(data));
        BufU32(self.slots.len() - 1)
    }

    /// Immutable view of an `f64` buffer.
    pub fn f64(&self, h: BufF64) -> &[f64] {
        match &self.slots[h.0] {
            Slot::F64(v) => v,
            Slot::U32(_) => unreachable!("typed handle cannot point at u32 slot"),
        }
    }

    /// Mutable view of an `f64` buffer.
    pub fn f64_mut(&mut self, h: BufF64) -> &mut [f64] {
        match &mut self.slots[h.0] {
            Slot::F64(v) => v,
            Slot::U32(_) => unreachable!("typed handle cannot point at u32 slot"),
        }
    }

    /// Immutable view of a `u32` buffer.
    pub fn u32(&self, h: BufU32) -> &[u32] {
        match &self.slots[h.0] {
            Slot::U32(v) => v,
            Slot::F64(_) => unreachable!("typed handle cannot point at f64 slot"),
        }
    }

    /// Mutable view of a `u32` buffer.
    pub fn u32_mut(&mut self, h: BufU32) -> &mut [u32] {
        match &mut self.slots[h.0] {
            Slot::U32(v) => v,
            Slot::F64(_) => unreachable!("typed handle cannot point at f64 slot"),
        }
    }

    /// Split-borrow a kernel's working set: shared views of the `reads`
    /// buffers and exclusive views of the `writes` buffers, in argument
    /// order — the canonical kernel signature "read inputs A…, accumulate
    /// into B…" without staging copies. A buffer may be read more than
    /// once.
    ///
    /// Panics if a write handle repeats, if a write handle is also a read
    /// handle, or if a handle does not belong to this arena.
    pub fn f64_split<const R: usize, const W: usize>(
        &mut self,
        reads: [BufF64; R],
        writes: [BufF64; W],
    ) -> ([&[f64]; R], [&mut [f64]; W]) {
        for (k, w) in writes.iter().enumerate() {
            assert!(
                !writes[..k].contains(w),
                "aliasing write buffers in f64_split"
            );
            assert!(
                !reads.contains(w),
                "write buffer aliases a read buffer in f64_split"
            );
        }
        for h in reads.iter().chain(&writes) {
            assert!(h.0 < self.slots.len(), "buffer handle from another arena");
        }
        let mut r: [&[f64]; R] = [&[]; R];
        let mut w: [&mut [f64]; W] = std::array::from_fn(|_| Default::default());
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Slot::F64(v) = slot else { continue };
            if let Some(k) = writes.iter().position(|h| h.0 == idx) {
                w[k] = v;
            } else {
                let v: &[f64] = v;
                for (k, _) in reads.iter().enumerate().filter(|(_, h)| h.0 == idx) {
                    r[k] = v;
                }
            }
        }
        (r, w)
    }

    /// Number of live buffers.
    pub fn num_buffers(&self) -> usize {
        self.slots.len()
    }

    /// Total bytes resident on the device.
    pub fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| match s {
                Slot::F64(v) => v.len() * 8,
                Slot::U32(v) => v.len() * 4,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut m = DeviceMemory::default();
        let a = m.alloc_f64(vec![1.0, 2.0]);
        let b = m.alloc_u32(vec![3, 4, 5]);
        assert_eq!(m.f64(a), &[1.0, 2.0]);
        assert_eq!(m.u32(b), &[3, 4, 5]);
        m.f64_mut(a)[0] = 9.0;
        assert_eq!(m.f64(a)[0], 9.0);
        assert_eq!(m.num_buffers(), 2);
        assert_eq!(m.resident_bytes(), 16 + 12);
    }

    #[test]
    fn split_returns_the_named_slices_in_argument_order() {
        let mut m = DeviceMemory::default();
        let a = m.alloc_f64(vec![1.0, 2.0]);
        let _gap = m.alloc_u32(vec![7]);
        let b = m.alloc_f64(vec![0.0, 0.0]);
        let c = m.alloc_f64(vec![5.0]);
        {
            // Read a later and an earlier buffer (one of them twice),
            // write the middle one.
            let ([r0, r1, r2], [dst]) = m.f64_split([c, a, c], [b]);
            assert_eq!((r0, r1, r2), (&[5.0][..], &[1.0, 2.0][..], &[5.0][..]));
            dst[0] = r1[0] + r1[1];
            dst[1] = r0[0];
        }
        assert_eq!(m.f64(b), &[3.0, 5.0]);
        {
            // Several writes, handles in descending arena order.
            let ([src], [w0, w1]) = m.f64_split([b], [c, a]);
            w0[0] = src[0];
            w1[1] = src[1];
        }
        assert_eq!(m.f64(c), &[3.0]);
        assert_eq!(m.f64(a), &[1.0, 5.0]);
        // No reads, no writes: both sides empty.
        let ([], []) = m.f64_split([], []);
    }

    #[test]
    #[should_panic(expected = "aliasing write buffers")]
    fn split_rejects_write_write_aliasing() {
        let mut m = DeviceMemory::default();
        let a = m.alloc_f64(vec![1.0]);
        let b = m.alloc_f64(vec![1.0]);
        let _ = m.f64_split([b], [a, a]);
    }

    #[test]
    #[should_panic(expected = "aliases a read buffer")]
    fn split_rejects_write_read_aliasing() {
        let mut m = DeviceMemory::default();
        let a = m.alloc_f64(vec![1.0]);
        let b = m.alloc_f64(vec![1.0]);
        let _ = m.f64_split([a, b], [b]);
    }
}
