//! Disjoint-write shared output buffers for scoped parallel loops.
//!
//! Parallel kernels in this workspace (SpMV, format conversion) partition
//! their output by row, so every element has exactly one writer and no
//! atomics are needed. [`SharedSlice`] captures that contract once: a
//! lifetime-erased `*mut T` view of a slice that workers may write through,
//! *provided* the index sets they touch are disjoint.

/// A mutable slice shareable across pool workers.
///
/// # Soundness contract
/// Concurrent callers must write **disjoint** index sets (e.g. each worker
/// owns a distinct row range). The constructor borrows the slice mutably, so
/// the underlying buffer cannot be observed through another path while the
/// view is alive; [`ThreadPool::run_on_all`](crate::ThreadPool::run_on_all)
/// blocks until all workers finish, which keeps the erased lifetime honest.
pub struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    /// Wraps a slice for disjoint parallel writes.
    pub fn new(data: &mut [T]) -> Self {
        SharedSlice { ptr: data.as_mut_ptr(), len: data.len() }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `i`.
    ///
    /// Bounds are checked unconditionally (an out-of-range index panics,
    /// even in release builds): callers derive indices from data that may
    /// be caller-supplied, and the cost of one predictable branch is noise
    /// next to the store itself.
    ///
    /// # Safety
    /// No other thread accesses index `i` for the duration of the parallel
    /// region.
    #[inline(always)]
    pub unsafe fn set(&self, i: usize, value: T) {
        assert!(i < self.len, "SharedSlice write at {i} out of bounds (len {})", self.len);
        *self.ptr.add(i) = value;
    }

    /// Reads the value at `i` (bounds-checked).
    ///
    /// # Safety
    /// No other thread writes index `i` concurrently.
    #[inline(always)]
    pub unsafe fn get(&self, i: usize) -> T {
        assert!(i < self.len, "SharedSlice read at {i} out of bounds (len {})", self.len);
        *self.ptr.add(i)
    }

    /// Mutable view of `start..start + len` (bounds-checked).
    ///
    /// Lets row-blocked kernels (SpMM writes `k` contiguous outputs per
    /// row) use ordinary slice iteration — which the compiler vectorises —
    /// instead of `k` indexed [`SharedSlice::add`] calls.
    ///
    /// # Safety
    /// No other thread accesses any index in `start..start + len` for the
    /// duration of the parallel region, and the caller must not obtain
    /// overlapping views from the same thread.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)] // the whole point of the disjoint-write view
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "SharedSlice view {start}..{start}+{len} out of bounds (len {})",
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Adds `value` to the element at `i` (bounds-checked read-modify-write).
    ///
    /// # Safety
    /// Same as [`SharedSlice::set`]: the index must be owned exclusively by
    /// the calling worker within the parallel region.
    #[inline(always)]
    pub unsafe fn add(&self, i: usize, value: T)
    where
        T: std::ops::AddAssign,
    {
        assert!(i < self.len, "SharedSlice write at {i} out of bounds (len {})", self.len);
        *self.ptr.add(i) += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{static_partition, ThreadPool};

    #[test]
    fn disjoint_parallel_writes_land() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 1000];
        let out = SharedSlice::new(&mut data);
        pool.run_owned(&static_partition(1000, 4), &|_, i| {
            // SAFETY: each index is owned exactly once.
            unsafe { out.set(i, i * 2) };
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn range_ownership_accumulates() {
        let pool = ThreadPool::new(3);
        let mut data = vec![1u64; 64];
        let out = SharedSlice::new(&mut data);
        let parts = static_partition(64, 3);
        pool.parallel_over_parts(&parts, |_p, r| {
            for i in r {
                // SAFETY: parts are disjoint ranges.
                unsafe { out.add(i, i as u64) };
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == 1 + i as u64));
    }
}
