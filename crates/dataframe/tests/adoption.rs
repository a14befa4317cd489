//! Buffer adoption: `ColData::new` takes the vector's
//! allocation as is — same address, no new buffer, no pass over the
//! rows — and `ColData::alloc` builds its zero column as one zeroed
//! allocation instead of an element-by-element fill.
//!
//! Measured with a counting global allocator
//! (`crates/adoption_harness.rs`), which is why this file holds exactly
//! one test: nothing else may allocate while it runs.

#[path = "../../adoption_harness.rs"]
mod harness;

use dataframe::{ColData, Column};
use harness::counted;

#[test]
fn new_adopts_the_allocation_and_alloc_is_one_calloc() {
    const N: usize = 1 << 16;
    let bytes = N * std::mem::size_of::<f64>();

    // len == capacity: the column IS the vector's allocation. The only
    // allocation is the handle's fixed-size `Arc` header.
    let v: Vec<f64> = (0..N).map(|i| i as f64).collect();
    assert_eq!(v.len(), v.capacity());
    let addr = v.as_ptr();
    let (col, [allocs, _, reallocs, largest]) = counted(|| ColData::new(v));
    assert_eq!(
        col.as_slice().as_ptr(),
        addr,
        "allocation address preserved"
    );
    assert_eq!((allocs, reallocs), (1, 0), "one handle header, no buffer");
    assert!(
        largest < 256,
        "largest allocation was {largest} B, the buffer is {bytes} B"
    );
    assert!(col
        .as_slice()
        .iter()
        .enumerate()
        .all(|(i, &x)| x == i as f64));

    // Rows that own heap data are adopted the same way: the strings
    // keep their addresses and are dropped with the column.
    let v: Vec<String> = (0..100).map(|i| format!("row {i}")).collect();
    let (addr, first) = (v.as_ptr(), v[0].as_ptr());
    let (col, [allocs, _, reallocs, _]) = counted(|| ColData::new(v));
    assert_eq!((allocs, reallocs), (1, 0));
    assert_eq!(
        (col.as_slice().as_ptr(), col.as_slice()[0].as_ptr()),
        (addr, first)
    );
    assert_eq!(col.as_slice()[99], "row 99");
    drop(col);

    // capacity > len: contents round-trip; the documented price is one
    // shrinking realloc (`Vec::into_boxed_slice`).
    let mut v: Vec<i64> = Vec::with_capacity(2 * N);
    v.extend(0..N as i64);
    let (col, [_, _, reallocs, _]) = counted(|| Column::from_i64(v));
    assert_eq!(reallocs, 1, "spare capacity is shrunk away, once");
    assert!(col.i64s().iter().enumerate().all(|(i, &x)| x == i as i64));

    // alloc: one buffer-sized allocation, and it is a calloc — not a
    // collected fill followed by a copy.
    let (z, [allocs, zeroed, reallocs, largest]) = counted(|| ColData::<f64>::alloc(N));
    assert_eq!(
        (allocs, zeroed, reallocs),
        (2, 1, 0),
        "calloc + handle header"
    );
    assert_eq!(largest, bytes);
    assert!(z.as_slice().iter().all(|&x| x == 0.0));
    // Non-zero-default rows still come out default-initialized.
    let s = ColData::<String>::alloc(3);
    assert!(s.as_slice().iter().all(String::is_empty));
}
