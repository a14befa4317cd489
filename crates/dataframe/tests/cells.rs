//! The drop glue of the cell store under every buffer
//! (`crates/cells.rs`), over a type that owns heap data, as the `Str`
//! column's `String`s do: adopting a vector and dropping the store
//! drops each value once, and a band write drops each value it
//! overwrites once.

#[path = "../../cells.rs"]
mod cells;

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use cells::Cells;

/// A value that counts its drops on a shared counter.
struct Counted(Arc<AtomicUsize>);

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted(Arc::clone(&self.0))
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Relaxed);
    }
}

const N: usize = 1000;

fn counted(drops: &Arc<AtomicUsize>) -> Vec<Counted> {
    (0..N).map(|_| Counted(Arc::clone(drops))).collect()
}

#[test]
fn adopted_values_drop_once_with_the_store() {
    let drops = Arc::new(AtomicUsize::new(0));
    let cells = Cells::from_vec(counted(&drops));
    assert_eq!(cells.len(), N);
    assert_eq!(drops.load(Relaxed), 0, "adoption drops nothing");
    drop(cells);
    assert_eq!(drops.load(Relaxed), N);
}

#[test]
fn a_band_write_drops_each_overwritten_value_once() {
    let (old, new) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let cells = Cells::from_vec(counted(&old));
    let src = counted(&new);
    // SAFETY: the range is inside the store, and nothing else reads or
    // writes the store while the band lives.
    unsafe { cells.band_mut(0, N) }.clone_from_slice(&src);
    assert_eq!(old.load(Relaxed), N, "each overwritten value, once");
    assert_eq!(new.load(Relaxed), 0, "the clones live in the store");
    drop(src);
    assert_eq!(new.load(Relaxed), N);
    drop(cells);
    assert_eq!((old.load(Relaxed), new.load(Relaxed)), (N, 2 * N));
}
