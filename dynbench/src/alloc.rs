//! Layer-tagged counting allocator for the traced run.
//!
//! Every allocation carries a one-byte tag naming the layer that was being
//! called when it was made (set with [`enter`] at the benchmark's call
//! boundaries). Per layer the allocator counts allocator calls, bytes
//! requested and live bytes; a block freed or grown later is charged back to
//! the layer that made it, so live bytes stay exact even when a buffer
//! allocated in one layer is dropped in another.
//!
//! Only the `dynbench-traced` binary installs [`TaggedAlloc`] as its global
//! allocator. In the untraced binary the counters stay at zero and the
//! end-to-end timings run on the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The layers the benchmark calls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The benchmark itself, and anything not attributed to a layer.
    Bench = 0,
    /// `dynnet-graph`: footprint generation and `GraphDelta::apply`.
    Graph = 1,
    /// `dynnet-adversary`: construction, `initial_graph`, `next_delta`.
    Adversary = 2,
    /// `dynnet-runtime`: `Simulator::new` and the round steps (the node
    /// algorithms, `Concat` included, run inside them).
    Runtime = 3,
    /// `dynnet-core::verify`: `TDynamicVerifier` construction and rounds.
    Verify = 4,
}

const LAYERS: usize = 5;

/// Alignment and size of the tag header in front of every block.
const HEADER: usize = 16;

thread_local! {
    static CURRENT: Cell<u8> = const { Cell::new(Layer::Bench as u8) };
}

static ALLOCS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static LIVE: [AtomicI64; LAYERS] = [const { AtomicI64::new(0) }; LAYERS];

/// Allocation counters of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocator calls (`alloc` and `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently live in blocks this layer allocated.
    pub live: i64,
}

/// Restores the previous layer tag when dropped.
pub struct LayerGuard(u8);

impl Drop for LayerGuard {
    fn drop(&mut self) {
        let prev = self.0;
        CURRENT.with(|c| c.set(prev));
    }
}

/// Tags the calling thread's allocations with `layer` until the guard drops.
pub fn enter(layer: Layer) -> LayerGuard {
    LayerGuard(CURRENT.with(|c| c.replace(layer as u8)))
}

/// The counters of `layer` so far.
pub fn counts(layer: Layer) -> Counts {
    let i = layer as usize;
    // ORDERING: statistics read after the measured calls returned on this
    // thread; they publish no other data.
    Counts {
        allocs: ALLOCS[i].load(Ordering::Relaxed),
        bytes: BYTES[i].load(Ordering::Relaxed),
        live: LIVE[i].load(Ordering::Relaxed),
    }
}

fn current_tag() -> u8 {
    // A const-initialised `Cell` has no destructor, so the access neither
    // allocates nor fails before thread teardown; `try_with` covers that.
    CURRENT.try_with(Cell::get).unwrap_or(Layer::Bench as u8)
}

fn record_alloc(tag: u8, size: usize) {
    let i = usize::from(tag).min(LAYERS - 1);
    // ORDERING: independent statistics counters.
    ALLOCS[i].fetch_add(1, Ordering::Relaxed);
    BYTES[i].fetch_add(size as u64, Ordering::Relaxed);
    LIVE[i].fetch_add(size as i64, Ordering::Relaxed);
}

fn record_free(tag: u8, size: usize) {
    let i = usize::from(tag).min(LAYERS - 1);
    // ORDERING: independent statistics counter.
    LIVE[i].fetch_sub(size as i64, Ordering::Relaxed);
}

/// The layout of the block holding `layout` behind its tag header, and the
/// header's size. The header is a multiple of the block alignment, so the
/// user pointer keeps the requested alignment.
fn outer(layout: Layout) -> Option<(Layout, usize)> {
    let pad = layout.align().max(HEADER);
    let size = layout.size().checked_add(pad)?;
    Some((Layout::from_size_align(size, pad).ok()?, pad))
}

/// Global allocator that forwards to [`System`] and counts per layer.
pub struct TaggedAlloc;

// SAFETY: every block handed out is a `System` block of layout
// `outer(layout)` offset by the header size, which is a multiple of the
// requested alignment, leaving `layout.size()` usable bytes; `dealloc` and
// `realloc` undo exactly that offset with the same layout computation.
unsafe impl GlobalAlloc for TaggedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some((outer, pad)) = outer(layout) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `outer` has a non-zero size (it includes the header).
        let base = unsafe { System.alloc(outer) };
        if base.is_null() {
            return base;
        }
        let tag = current_tag();
        // SAFETY: `pad <= outer.size()`, so `user` and the tag byte just
        // before it lie inside the block.
        let user = unsafe { base.add(pad) };
        unsafe { user.sub(1).write(tag) };
        record_alloc(tag, layout.size());
        user
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // `outer` succeeded when this block was allocated with `layout`.
        let Some((outer, pad)) = outer(layout) else {
            return;
        };
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this
        // layout, so the tag byte and the block base precede it.
        let tag = unsafe { ptr.sub(1).read() };
        record_free(tag, layout.size());
        unsafe { System.dealloc(ptr.sub(pad), outer) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some((outer, pad)) = outer(layout) else {
            return std::ptr::null_mut();
        };
        let Some(new_outer_size) = new_size.checked_add(pad) else {
            return std::ptr::null_mut();
        };
        // SAFETY: as in `dealloc`; `System.realloc` keeps the block's
        // alignment and its first `pad` bytes, and on failure leaves the
        // old block untouched.
        let old_tag = unsafe { ptr.sub(1).read() };
        let base = unsafe { System.realloc(ptr.sub(pad), outer, new_outer_size) };
        if base.is_null() {
            return base;
        }
        let tag = current_tag();
        // SAFETY: the new block holds `pad + new_size` bytes.
        let user = unsafe { base.add(pad) };
        unsafe { user.sub(1).write(tag) };
        record_free(old_tag, layout.size());
        record_alloc(tag, new_size);
        user
    }
}
