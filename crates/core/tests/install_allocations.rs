//! An allocation guard on the apply path: installing a decided entry into
//! an in-memory datacenter applies it to the store in one pass, so the only
//! heap allocation per written attribute is the shared value the store
//! keeps. A path that collects the unapplied entries, the entry's writes, a
//! row per key or the written keys into vectors pays several allocations
//! per install on top and fails here.
//!
//! A counting global allocator counts this thread's allocations (and
//! reallocations) while the counted region runs; the entries are built
//! before it. The version GC runs throughout: with the default horizon,
//! every install past the first few reclaims the versions behind it.

use mdstore::DatacenterCore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use walog::{AttrId, GroupId, ItemRef, KeyId, LogEntry, LogPosition, Transaction, TxnId};

/// The system allocator, counting what the current thread allocates while
/// its counter is on.
struct Counting;

thread_local! {
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also serves threads whose thread-locals
    // are already torn down.
    let _ = COUNTED.try_with(|counted| {
        if let Some(n) = counted.get() {
            counted.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNTED.with(|counted| counted.set(Some(0)));
    f();
    COUNTED
        .with(|counted| counted.take())
        .expect("the counter was on")
}

const INSTALLS: u64 = 4_000;
/// Attributes of the one row the entries write, drawn round-robin.
const ROW_WIDTH: u32 = 100;

/// `INSTALLS` single-transaction entries, each writing `attrs` attributes
/// of one row, at positions 1, 2, ….
fn entries(attrs: u32) -> Vec<Arc<LogEntry>> {
    (1..=INSTALLS)
        .map(|seq| {
            let mut txn =
                Transaction::builder(TxnId::new(1, seq), GroupId(0), LogPosition(seq - 1));
            for a in 0..attrs {
                let attr = AttrId((seq as u32 * attrs + a) % ROW_WIDTH);
                txn = txn.write(ItemRef::new(KeyId(0), attr), format!("v{seq}.{a}"));
            }
            Arc::new(LogEntry::single(txn.build()))
        })
        .collect()
}

/// Allocations per install of entries writing `attrs` attributes.
fn allocations_per_install(attrs: u32) -> f64 {
    let entries = entries(attrs);
    let mut core = DatacenterCore::new("dc", 0);
    let allocations = allocations_in(|| {
        for (position, entry) in (1..).zip(entries) {
            core.install_entry(GroupId(0), LogPosition(position), entry);
        }
    });
    assert_eq!(core.read_position(GroupId(0)), LogPosition(INSTALLS));
    assert!(
        core.reclaimed_version_count() > 0,
        "the version GC must run during the installs"
    );
    allocations as f64 / INSTALLS as f64
}

#[test]
fn an_install_allocates_once_per_written_attribute_and_little_else() {
    let measured: Vec<(u32, f64)> = [1, 2, 5]
        .into_iter()
        .map(|attrs| (attrs, allocations_per_install(attrs)))
        .collect();
    for &(attrs, per_install) in &measured {
        assert!(
            per_install <= f64::from(attrs) + 1.0,
            "allocations per install (attributes written, allocations): {measured:.2?}; \
             an install writing {attrs} attribute(s) allocates more than once per \
             attribute plus one"
        );
    }
}
