//! Backing storage for program execution.
//!
//! One flat `Vec<f64>` holds every array of a sequence at the positions a
//! [`MemoryLayout`] dictates — padding and partitioning gaps physically
//! exist in the vector, so the addresses the interpreter emits are exactly
//! the addresses a compiled program would emit.

use sp_cache::{LayoutStrategy, MemoryLayout};
use sp_ir::{ArrayId, LoopSequence};

/// A sequence's arrays materialized in one flat allocation.
#[derive(Clone, Debug)]
pub struct Memory {
    /// The layout mapping (array, index) to addresses/slots.
    pub layout: MemoryLayout,
    /// The flat element store.
    pub data: Vec<f64>,
}

impl Memory {
    /// Allocates (zero-initialized) memory for `seq`'s arrays under the
    /// given layout strategy.
    pub fn new(seq: &LoopSequence, strategy: LayoutStrategy) -> Self {
        Self::with_base(seq, strategy, 0)
    }

    /// Like [`Memory::new`] with an explicit base address for the first
    /// array (used by cache experiments that model allocator placement).
    pub fn with_base(seq: &LoopSequence, strategy: LayoutStrategy, base: u64) -> Self {
        let layout = MemoryLayout::build(&seq.arrays, std::mem::size_of::<f64>(), strategy, base);
        let data = vec![0.0; layout.total_elements()];
        Memory { layout, data }
    }

    /// Reads `array[idx]`.
    #[inline]
    pub fn get(&self, array: ArrayId, idx: &[i64]) -> f64 {
        self.data[self.layout.slot(array, idx)]
    }

    /// Writes `array[idx]`.
    #[inline]
    pub fn set(&mut self, array: ArrayId, idx: &[i64], v: f64) {
        let slot = self.layout.slot(array, idx);
        self.data[slot] = v;
    }

    /// Fills one array from a function of its index vector.
    pub fn fill_with(&mut self, seq: &LoopSequence, array: ArrayId, f: impl Fn(&[i64]) -> f64) {
        let dims = seq.array(array).dims.clone();
        let space = sp_ir::IterSpace::new(
            dims.iter()
                .map(|&d| (0i64, d as i64 - 1))
                .collect::<Vec<_>>(),
        );
        space.for_each(|p| {
            let slot = self.layout.slot(array, p);
            self.data[slot] = f(p);
        });
    }

    /// Deterministically initializes every array of the sequence with
    /// smooth pseudo-random values (a tiny splitmix-style hash of the
    /// element coordinates and `seed`), so runs are reproducible across
    /// layouts and schedules.
    ///
    /// The hash folds coordinates outermost first, so each row's outer
    /// coordinates are hashed once and the contiguous inner run is
    /// filled from that prefix. Rows are written in row-major order, as
    /// an element-wise fill would, so contracted arrays (whose planes
    /// alias) end up with the same surviving values.
    pub fn init_deterministic(&mut self, seq: &LoopSequence, seed: u64) {
        for (i, decl) in seq.arrays.iter().enumerate() {
            let id = ArrayId(i as u32);
            let array_salt = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if self.layout.placements[i].strides.last() != Some(&1) {
                self.fill_with(seq, id, |p| {
                    init_value(p.iter().fold(array_salt, |h, &c| init_mix(h, c)))
                });
                continue;
            }
            let (outer, inner) = decl.dims.split_at(decl.dims.len() - 1);
            let inner = inner[0];
            let rows = sp_ir::IterSpace::new(
                outer
                    .iter()
                    .map(|&d| (0i64, d as i64 - 1))
                    .collect::<Vec<_>>(),
            );
            let (layout, data) = (&self.layout, &mut self.data);
            let mut idx = vec![0i64; decl.dims.len()];
            rows.for_each(|o| {
                idx[..o.len()].copy_from_slice(o);
                let base = layout.slot(id, &idx);
                let h = o.iter().fold(array_salt, |h, &c| init_mix(h, c));
                for (k, v) in data[base..base + inner].iter_mut().enumerate() {
                    *v = init_value(init_mix(h, k as i64));
                }
            });
        }
    }

    /// Snapshot of one array's logical contents in row-major order
    /// (independent of padding/gaps), for comparing results across
    /// layouts and schedules.
    pub fn snapshot(&self, seq: &LoopSequence, array: ArrayId) -> Vec<f64> {
        let dims = &seq.array(array).dims;
        let mut out = Vec::with_capacity(dims.iter().product());
        let space = sp_ir::IterSpace::new(
            dims.iter()
                .map(|&d| (0i64, d as i64 - 1))
                .collect::<Vec<_>>(),
        );
        space.for_each(|p| out.push(self.get(array, p)));
        out
    }

    /// Snapshots of all arrays, for whole-program result comparison.
    pub fn snapshot_all(&self, seq: &LoopSequence) -> Vec<Vec<f64>> {
        (0..seq.arrays.len())
            .map(|i| self.snapshot(seq, ArrayId(i as u32)))
            .collect()
    }
}

/// One coordinate step of [`Memory::init_deterministic`]'s hash.
#[inline]
fn init_mix(mut h: u64, c: i64) -> u64 {
    h ^= (c as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 27)
}

/// Maps a finished hash to (0.5, 1.5), keeping divisions well-conditioned.
#[inline]
fn init_value(h: u64) -> f64 {
    0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
}

/// An unsafe shared view of a [`Memory`] for the static-blocked parallel
/// runtime.
///
/// # Safety contract
///
/// The shift-and-peel schedule guarantees (Theorem 1, Appendix I of the
/// paper; enforced by `shift_peel_core::check_blocks`) that within one
/// parallel phase no two processors make *conflicting* accesses (no
/// write/write or read/write pair to the same element), and phases are
/// separated by barriers that order all cross-phase conflicts. Under that
/// schedule, concurrent use of `read`/`write` from multiple threads is
/// race-free. All access goes through raw pointers — no `&mut` aliasing
/// is created.
#[derive(Clone, Copy)]
pub struct MemView<'a> {
    layout: &'a MemoryLayout,
    base: *mut f64,
    len: usize,
}

unsafe impl Send for MemView<'_> {}
unsafe impl Sync for MemView<'_> {}

impl<'a> MemView<'a> {
    /// Creates a shared view over `mem`. The caller must ensure all
    /// concurrent accesses through clones of the view follow the safety
    /// contract above.
    pub fn new(mem: &'a mut Memory) -> Self {
        MemView {
            layout: &mem.layout,
            base: mem.data.as_mut_ptr(),
            len: mem.data.len(),
        }
    }

    /// The layout.
    #[inline]
    pub fn layout(&self) -> &MemoryLayout {
        self.layout
    }

    /// Reads `array[idx]`.
    ///
    /// # Safety
    /// See the type-level contract: no concurrent conflicting write.
    #[inline]
    pub unsafe fn read(&self, array: ArrayId, idx: &[i64]) -> f64 {
        let slot = self.layout.slot(array, idx);
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) }
    }

    /// Writes `array[idx]`.
    ///
    /// # Safety
    /// See the type-level contract: no concurrent access to this element.
    #[inline]
    pub unsafe fn write(&self, array: ArrayId, idx: &[i64], v: f64) {
        let slot = self.layout.slot(array, idx);
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) = v }
    }

    /// Reads a precomputed flat element slot (the compiled-tape fast
    /// path; slots come from [`crate::tape::AccessPat`]s lowered against
    /// this view's layout).
    ///
    /// # Safety
    /// See the type-level contract; `slot` must be in bounds for the
    /// backing store.
    #[inline]
    pub unsafe fn read_slot(&self, slot: usize) -> f64 {
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) }
    }

    /// Writes a precomputed flat element slot (compiled-tape fast path).
    ///
    /// # Safety
    /// See the type-level contract; `slot` must be in bounds for the
    /// backing store.
    #[inline]
    pub unsafe fn write_slot(&self, slot: usize, v: f64) {
        debug_assert!(slot < self.len);
        unsafe { *self.base.add(slot) = v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    fn seq() -> LoopSequence {
        let mut b = SeqBuilder::new("m");
        let a = b.array("a", [4, 4]);
        let c = b.array("c", [4, 4]);
        b.nest("L1", [(0, 3), (0, 3)], |x| {
            let r = x.ld(a, [0, 0]);
            x.assign(c, [0, 0], r);
        });
        b.finish()
    }

    #[test]
    fn get_set_roundtrip() {
        let s = seq();
        let mut m = Memory::new(&s, LayoutStrategy::Contiguous);
        m.set(ArrayId(0), &[1, 2], 42.0);
        assert_eq!(m.get(ArrayId(0), &[1, 2]), 42.0);
        assert_eq!(m.get(ArrayId(1), &[1, 2]), 0.0);
    }

    #[test]
    fn snapshots_ignore_layout() {
        let s = seq();
        let mut m1 = Memory::new(&s, LayoutStrategy::Contiguous);
        let mut m2 = Memory::new(&s, LayoutStrategy::InnerPad(3));
        m1.init_deterministic(&s, 7);
        m2.init_deterministic(&s, 7);
        assert_eq!(m1.snapshot_all(&s), m2.snapshot_all(&s));
        // But the physical footprints differ.
        assert_ne!(m1.data.len(), m2.data.len());
    }

    #[test]
    fn deterministic_init_is_stable() {
        let s = seq();
        let mut m1 = Memory::new(&s, LayoutStrategy::Contiguous);
        m1.init_deterministic(&s, 1);
        let mut m2 = Memory::new(&s, LayoutStrategy::Contiguous);
        m2.init_deterministic(&s, 1);
        assert_eq!(m1.data, m2.data);
        let mut m3 = Memory::new(&s, LayoutStrategy::Contiguous);
        m3.init_deterministic(&s, 2);
        assert_ne!(m1.data, m3.data);
        // Values live in (0.5, 1.5).
        assert!(m1
            .snapshot(&s, ArrayId(0))
            .iter()
            .all(|&v| v > 0.5 && v < 1.5));
    }

    #[test]
    fn row_fill_matches_element_fill() {
        // The reference is the element-wise definition: hash every
        // coordinate, write through the layout in row-major order.
        fn element_fill(m: &mut Memory, s: &LoopSequence, seed: u64) {
            for i in 0..s.arrays.len() {
                let salt = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                m.fill_with(s, ArrayId(i as u32), |p| {
                    init_value(p.iter().fold(salt, |h, &c| init_mix(h, c)))
                });
            }
        }
        let mut b = SeqBuilder::new("m");
        let a = b.array("a", [5, 7]);
        let c = b.array("c", [3, 4, 9]);
        let d = b.array("d", [11]);
        b.nest("L1", [(0, 4), (0, 6)], |x| {
            let r = x.ld(a, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        b.nest("L2", [(0, 2), (0, 3), (0, 8)], |x| {
            let r = x.ld(c, [0, 0, 0]);
            x.assign(c, [0, 0, 0], r);
        });
        b.nest("L3", [(0, 10)], |x| {
            let r = x.ld(d, [0]);
            x.assign(d, [0], r);
        });
        let s = b.finish();
        let strategies = [
            LayoutStrategy::Contiguous,
            LayoutStrategy::InnerPad(3),
            LayoutStrategy::CachePartition(sp_cache::CacheConfig::new(1024, 32, 1)),
        ];
        for strategy in strategies {
            let mut fast = Memory::with_base(&s, strategy, 8);
            let mut slow = Memory::with_base(&s, strategy, 8);
            fast.init_deterministic(&s, 9);
            element_fill(&mut slow, &s, 9);
            assert_eq!(fast.data, slow.data, "{strategy:?}");
        }
        // Contracted array: logical planes alias physical plane k % 2, so
        // the surviving values depend on the write order.
        let mut fast = Memory::new(&s, LayoutStrategy::Contiguous);
        fast.layout.contract(a, 2);
        let mut slow = fast.clone();
        fast.init_deterministic(&s, 4);
        element_fill(&mut slow, &s, 4);
        assert_eq!(fast.data, slow.data);
    }

    #[test]
    fn memview_reads_and_writes() {
        let s = seq();
        let mut m = Memory::new(&s, LayoutStrategy::Contiguous);
        {
            let v = MemView::new(&mut m);
            unsafe {
                v.write(ArrayId(0), &[3, 3], 5.0);
                assert_eq!(v.read(ArrayId(0), &[3, 3]), 5.0);
            }
        }
        assert_eq!(m.get(ArrayId(0), &[3, 3]), 5.0);
    }
}
