//! The in-place preconditioner refresh must be allocation-free and
//! bit-identical to a rebuild: a counting global allocator wraps the
//! system allocator, and the single test below (one test per binary, so no
//! concurrent test thread pollutes the counter) asserts that
//! `BlockJacobiPrecond::refactor_in_place` and its `apply` allocate
//! nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rfsim_numerics::krylov::{BlockJacobiPrecond, Preconditioner};
use rfsim_numerics::sparse::Triplets;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// A block-structured matrix in the shape of an MPDE grid Jacobian:
/// `nb` diagonal circuit blocks of size `bs` plus inter-block coupling on
/// the superdiagonal.
fn grid_like(nb: usize, bs: usize, gain: f64) -> Triplets {
    let n = nb * bs;
    let mut t = Triplets::new(n, n);
    for b in 0..nb {
        let base = b * bs;
        for i in 0..bs {
            for j in 0..bs {
                let v = if i == j {
                    4.0 + gain + (base + i) as f64 * 0.01
                } else {
                    gain * 0.3 - 0.5
                };
                t.push(base + i, base + j, v);
            }
            if b + 1 < nb {
                t.push(base + i, base + bs + i, -0.25 * gain);
            }
        }
    }
    t
}

#[test]
fn precond_refresh_is_allocation_free_and_bit_identical() {
    let a1 = grid_like(6, 4, 1.0).to_csr();
    let a2 = grid_like(6, 4, 1.7).to_csr();
    let n = a1.rows();
    let r: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
    let mut z_refresh = vec![0.0; n];
    let mut z_rebuild = vec![0.0; n];

    // Refresh ≡ rebuild, with zero allocations.
    let mut bj = BlockJacobiPrecond::new(&a1, 4).expect("bj new");
    let before = allocations();
    bj.refactor_in_place(&a2).expect("bj refresh");
    assert_eq!(
        allocations(),
        before,
        "BlockJacobiPrecond::refactor_in_place must not allocate"
    );
    let rebuilt = BlockJacobiPrecond::new(&a2, 4).expect("bj rebuild");
    let before = allocations();
    bj.apply(&r, &mut z_refresh);
    assert_eq!(
        allocations(),
        before,
        "BlockJacobiPrecond::apply must not allocate"
    );
    rebuilt.apply(&r, &mut z_rebuild);
    assert_eq!(
        z_refresh, z_rebuild,
        "block-Jacobi refresh must be bit-identical"
    );

    // Dimension gate: a different system size is rejected.
    assert!(bj
        .refactor_in_place(&grid_like(5, 4, 1.0).to_csr())
        .is_err());
}
