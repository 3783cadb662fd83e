//! Thread-local `Vec<f32>` buffer pool.
//!
//! Autograd tapes allocate one value tensor per node and one gradient
//! tensor per reached node, every forward/backward pass, for every
//! sentence. The shapes recur exactly from sentence to sentence (they
//! depend only on layer dimensions and sentence length), so instead of
//! round-tripping the allocator, [`Tape`](crate::Tape) returns every
//! node's buffer here on drop and the kernels pull from here via
//! [`crate::Tensor::zeros_pooled`].
//!
//! The pool is strictly thread-local (no locks on the hot path), holds
//! free lists keyed by **power-of-two size class** (a request is served
//! from the class that is the next power of two ≥ its length), and is
//! bounded both per class and in total so a one-off giant tape cannot pin
//! memory forever. Size classes matter for the batched `[B,T]` path: its
//! buffer lengths scale with the *total token count of a batch*, which
//! rarely repeats exactly from batch to batch, so exact-length lists
//! would miss on nearly every batched allocation while class-keyed lists
//! keep serving recycled memory. Hit/miss/recycle counters are kept per
//! thread; the trainer and inference layers export them through `ner-obs`
//! as `pool.hits` / `pool.misses` (see [`take_stats`]).

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::ptr::NonNull;

/// Buffers shorter than this are cheaper to allocate than to pool.
const MIN_POOLED_LEN: usize = 16;

/// Alignment of [`AlignedBuf`] allocations: one cache line, which also
/// covers the 32-byte loads of the AVX2 lane kernels.
const PANEL_ALIGN: usize = 64;

/// Free-list depth per size class.
const MAX_BUFS_PER_LEN: usize = 64;

/// Total `f32`s the pool may hold per thread (16M floats = 64 MiB).
const MAX_POOLED_FLOATS: usize = 1 << 24;

/// Point-in-time counters of one thread's buffer pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pooled allocations served from a free list.
    pub hits: u64,
    /// Pooled allocations that fell through to the system allocator.
    pub misses: u64,
    /// Buffers accepted back into the pool.
    pub recycled: u64,
    /// `f32`s currently held in free lists.
    pub held_floats: usize,
}

#[derive(Default)]
struct PoolInner {
    /// Free lists keyed by power-of-two size class; small linear scan (a
    /// model touches a handful of classes).
    buckets: Vec<(usize, Vec<Vec<f32>>)>,
    /// Free lists for cache-aligned panel buffers, same class keying.
    aligned: Vec<(usize, Vec<AlignedBuf>)>,
    held_floats: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

/// A cache-line-aligned `f32` buffer for packed kernel panels (the `bᵀ`
/// panel of `matmul_nt`). `Vec<f32>` cannot guarantee alignment beyond 4
/// bytes — and rebuilding one around an over-aligned allocation would hand
/// the wrong [`Layout`] to its destructor — so this type owns its
/// allocation outright: capacity is always a pool size class and the
/// [`Drop`] impl deallocates with the exact layout used to allocate.
pub struct AlignedBuf {
    ptr: NonNull<f32>,
    len: usize,
    cap: usize,
}

// Safety: `AlignedBuf` exclusively owns its heap allocation, exactly like
// `Vec<f32>`; moving it between threads moves unique ownership.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    /// Allocates a zeroed buffer of `cap` floats at [`PANEL_ALIGN`].
    fn alloc(cap: usize) -> Self {
        let layout = Layout::from_size_align(cap * std::mem::size_of::<f32>(), PANEL_ALIGN)
            .expect("panel layout");
        // Safety: `cap >= MIN_POOLED_LEN` (callers round up), so the layout
        // is never zero-sized.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f32>()) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len: cap, cap }
    }

    /// Number of addressable floats (the requested length, ≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer has zero addressable floats.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer as a shared slice of its `len` floats.
    pub fn as_slice(&self) -> &[f32] {
        // Safety: `ptr` addresses `cap >= len` initialized floats.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The buffer as a mutable slice of its `len` floats.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // Safety: as `as_slice`, plus exclusive access through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.cap * std::mem::size_of::<f32>(), PANEL_ALIGN)
            .expect("panel layout");
        // Safety: `ptr` was allocated in `alloc` with exactly this layout.
        unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
    }
}

thread_local! {
    static POOL: RefCell<PoolInner> = RefCell::new(PoolInner::default());
}

/// Size class serving requests of `len` elements: the next power of two.
/// Wastes at most 2x capacity per buffer, in exchange for letting the
/// batch-dependent lengths of the `[B,T]` path share free lists.
fn class_of(len: usize) -> usize {
    len.next_power_of_two()
}

/// A zeroed buffer of exactly `len` elements, reusing a pooled allocation
/// from the matching size class when one is available.
pub fn take(len: usize) -> Vec<f32> {
    if len < MIN_POOLED_LEN {
        return vec![0.0; len];
    }
    let class = class_of(len);
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let slot = p.buckets.iter().position(|(c, _)| *c == class);
        if let Some(i) = slot {
            if let Some(mut buf) = p.buckets[i].1.pop() {
                p.held_floats -= class;
                p.hits += 1;
                // Only the `len` floats handed out are zeroed: the
                // buffer's old contents past them are never touched.
                buf.clear();
                buf.resize(len, 0.0);
                return buf;
            }
        }
        p.misses += 1;
        let mut buf = Vec::with_capacity(class);
        buf.resize(len, 0.0);
        buf
    })
}

/// Offers a buffer back to the current thread's pool. Buffers that are too
/// small, whose capacity is not a pool size class (i.e. they were not
/// allocated by [`take`]), or that would push a free list or the pool past
/// its bounds, are simply dropped.
pub fn recycle(buf: Vec<f32>) {
    let class = buf.capacity();
    if class < MIN_POOLED_LEN || !class.is_power_of_two() {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.held_floats + class > MAX_POOLED_FLOATS {
            return;
        }
        let slot = p.buckets.iter().position(|(c, _)| *c == class);
        let i = match slot {
            Some(i) => i,
            None => {
                p.buckets.push((class, Vec::new()));
                p.buckets.len() - 1
            }
        };
        if p.buckets[i].1.len() >= MAX_BUFS_PER_LEN {
            return;
        }
        // Stored as is: `take` re-zeroes exactly the length it hands out.
        p.buckets[i].1.push(buf);
        p.held_floats += class;
        p.recycled += 1;
    });
}

/// A zeroed cache-line-aligned buffer of exactly `len` floats for packed
/// kernel panels, served from the aligned free lists when possible. Small
/// requests still pool (panels are reused immediately by the next product
/// of the same shape family).
pub fn take_aligned(len: usize) -> AlignedBuf {
    let class = class_of(len.max(MIN_POOLED_LEN));
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let slot = p.aligned.iter().position(|(c, _)| *c == class);
        if let Some(i) = slot {
            if let Some(mut buf) = p.aligned[i].1.pop() {
                p.held_floats -= class;
                p.hits += 1;
                buf.len = len;
                buf.as_mut_slice().fill(0.0);
                return buf;
            }
        }
        p.misses += 1;
        let mut buf = AlignedBuf::alloc(class);
        buf.len = len;
        buf
    })
}

/// Offers an aligned panel back to the current thread's pool, subject to
/// the same per-class and total bounds as [`recycle`].
pub fn recycle_aligned(mut buf: AlignedBuf) {
    let class = buf.cap;
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.held_floats + class > MAX_POOLED_FLOATS {
            return;
        }
        let slot = p.aligned.iter().position(|(c, _)| *c == class);
        let i = match slot {
            Some(i) => i,
            None => {
                p.aligned.push((class, Vec::new()));
                p.aligned.len() - 1
            }
        };
        if p.aligned[i].1.len() >= MAX_BUFS_PER_LEN {
            return;
        }
        buf.len = class;
        p.aligned[i].1.push(buf);
        p.held_floats += class;
        p.recycled += 1;
    });
}

/// Current counters for this thread's pool.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            hits: p.hits,
            misses: p.misses,
            recycled: p.recycled,
            held_floats: p.held_floats,
        }
    })
}

/// Reads and resets this thread's counters (buffers stay pooled) — the
/// export primitive: callers add the deltas into `ner-obs` counters.
pub fn take_stats() -> PoolStats {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let out = PoolStats {
            hits: p.hits,
            misses: p.misses,
            recycled: p.recycled,
            held_floats: p.held_floats,
        };
        p.hits = 0;
        p.misses = 0;
        p.recycled = 0;
        out
    })
}

/// Drops every pooled buffer and zeroes the counters — test isolation.
pub fn clear() {
    POOL.with(|p| *p.borrow_mut() = PoolInner::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_the_allocation() {
        clear();
        let buf = take(64);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take(64);
        assert_eq!(again.as_ptr(), ptr, "same-length take must reuse the buffer");
        assert!(again.iter().all(|&x| x == 0.0));
        let s = stats();
        assert_eq!((s.hits, s.recycled), (1, 1));
        clear();
    }

    #[test]
    fn recycled_buffers_are_rezeroed() {
        clear();
        let mut buf = take(32);
        buf.fill(7.5);
        recycle(buf);
        assert!(take(32).iter().all(|&x| x == 0.0));
        // A longer class-mate take reuses a buffer dirtied over a shorter
        // length: every float it hands out is zero, the extension included.
        let mut buf = take(20);
        buf.fill(7.5);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take(30);
        assert_eq!(again.as_ptr(), ptr, "class-mate take must reuse the buffer");
        assert_eq!(again.len(), 30);
        assert!(again.iter().all(|&x| x == 0.0));
        clear();
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        clear();
        let buf = take(4);
        recycle(buf);
        assert_eq!(stats(), PoolStats::default());
    }

    #[test]
    fn take_stats_resets_counters_only() {
        clear();
        recycle(take(128));
        let first = take_stats();
        assert_eq!(first.recycled, 1);
        assert_eq!(take_stats().recycled, 0);
        // The buffer itself survives the counter reset.
        assert_eq!(stats().held_floats, 128);
        clear();
    }

    #[test]
    fn nearby_lengths_share_a_size_class() {
        clear();
        // Batched buffers are sized by the total token count of a batch,
        // which drifts from batch to batch; the class must still hit.
        let buf = take(900);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take(1000);
        assert_eq!(again.as_ptr(), ptr, "class-mate take must reuse the buffer");
        assert_eq!(again.len(), 1000);
        assert!(again.iter().all(|&x| x == 0.0));
        let s = stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
        clear();
    }

    #[test]
    fn aligned_panels_are_aligned_zeroed_and_reused() {
        clear();
        let mut buf = take_aligned(100);
        assert_eq!(buf.len(), 100);
        assert_eq!(buf.as_slice().as_ptr() as usize % PANEL_ALIGN, 0);
        buf.as_mut_slice().fill(3.5);
        let ptr = buf.as_slice().as_ptr();
        recycle_aligned(buf);
        let again = take_aligned(120);
        assert_eq!(again.as_slice().as_ptr(), ptr, "class-mate take must reuse the panel");
        assert_eq!(again.len(), 120);
        assert!(again.as_slice().iter().all(|&x| x == 0.0));
        let s = stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
        clear();
    }

    #[test]
    fn aligned_and_vec_free_lists_are_disjoint() {
        clear();
        recycle_aligned(take_aligned(64));
        // A plain take of the same class must miss (different list) …
        let v = take(64);
        assert_eq!(stats().misses, 2);
        recycle(v);
        // … and the aligned panel is still pooled.
        assert_eq!(stats().held_floats, 128);
        clear();
    }

    #[test]
    fn per_length_depth_is_bounded() {
        clear();
        for _ in 0..(MAX_BUFS_PER_LEN + 8) {
            recycle(vec![0.0; 1024]);
        }
        assert_eq!(stats().held_floats, MAX_BUFS_PER_LEN * 1024);
        clear();
    }
}
