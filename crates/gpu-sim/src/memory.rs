//! The device memory arena.
//!
//! Buffers are identified by typed handles (`BufF64`) so kernel
//! bodies — plain closures over `&mut DeviceMemory` — can address several
//! buffers without fighting the borrow checker over disjoint `&mut`s.
//! [`DeviceMemory::f64_split`] borrows a kernel's whole working set at
//! once — any number of buffers to read, any number of distinct buffers
//! to write — so a body works on device memory in place.

/// Handle to a device-resident `f64` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufF64(usize);

/// The arena of device buffers.
#[derive(Default)]
pub struct DeviceMemory {
    slots: Vec<Vec<f64>>,
}

impl DeviceMemory {
    /// Allocate an `f64` buffer.
    pub fn alloc_f64(&mut self, data: Vec<f64>) -> BufF64 {
        self.slots.push(data);
        BufF64(self.slots.len() - 1)
    }

    /// Immutable view of an `f64` buffer.
    pub fn f64(&self, h: BufF64) -> &[f64] {
        &self.slots[h.0]
    }

    /// Mutable view of an `f64` buffer.
    pub fn f64_mut(&mut self, h: BufF64) -> &mut [f64] {
        &mut self.slots[h.0]
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
        for (idx, v) in self.slots.iter_mut().enumerate() {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut m = DeviceMemory::default();
        let a = m.alloc_f64(vec![1.0, 2.0]);
        let b = m.alloc_f64(vec![3.0, 4.0, 5.0]);
        assert_eq!(m.f64(a), &[1.0, 2.0]);
        assert_eq!(m.f64(b), &[3.0, 4.0, 5.0]);
        m.f64_mut(a)[0] = 9.0;
        assert_eq!(m.f64(a)[0], 9.0);
    }

    #[test]
    fn split_returns_the_named_slices_in_argument_order() {
        let mut m = DeviceMemory::default();
        let a = m.alloc_f64(vec![1.0, 2.0]);
        let _gap = m.alloc_f64(vec![7.0]);
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
