//! A fresh primitive column takes one page fault per page: the zeroed
//! allocation of `ColData::alloc` is faulted in by a zero write per
//! page, not by reading each page (which maps the shared zero page) and
//! then writing it back (a copy-on-write fault on top).
//!
//! Faults are counted for the whole process (`minflt`, field 10 of
//! `/proc/self/stat`), which is why this file holds exactly one test.

use dataframe::ColData;

const BYTES: usize = 64 << 20;
const PAGE: usize = 4096;

/// Minor page faults of the process so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The fields after the command name, which is in parentheses and may
    // hold spaces, start at field 3; field 10 is the minor fault count.
    let rest = &stat[stat.rfind(')').expect("a command name") + 2..];
    rest.split(' ')
        .nth(10 - 3)
        .expect("field 10")
        .parse()
        .expect("a count")
}

/// The faults `f` takes.
fn faults_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = minor_faults();
    let out = f();
    (minor_faults() - before, out)
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/stat")]
fn a_zeroed_column_is_faulted_in_once_per_page() {
    // What one zero write per page of a zeroed allocation of the same
    // size takes: one fault per page, plus, in an instrumented build,
    // what its checks of each write take.
    let (once, _) = faults_of(|| {
        let mut bytes = vec![0u8; BYTES];
        for b in bytes.iter_mut().step_by(PAGE) {
            // SAFETY: `b` is a valid, exclusive reference.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
    });
    let (faults, column) = faults_of(|| ColData::<f64>::alloc(BYTES / 8));
    assert_eq!(column.len(), BYTES / 8);
    let pages = BYTES / PAGE;
    eprintln!("{faults} minor faults for {pages} pages ({once} for one write per page)");
    assert!(
        faults <= once + once / 10,
        "{faults} minor faults for {pages} pages of a fresh column, \
         against {once} for one zero write per page"
    );
}
