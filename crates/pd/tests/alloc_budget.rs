//! Heap-allocation budget of netlist generation and the flow's per-cell
//! passes.
//!
//! Netlist statistics, routing estimation and power analysis visit every
//! cell or net of the design, so one heap block per visit is hundreds of
//! thousands of allocations on a paper-size netlist. They must allocate
//! nothing per cell or per net: the same count on a 4×4 and an 8×8
//! array. A generated netlist is plain data: its names share one buffer,
//! cell pins and most nets' sinks are inline, and every CS after the
//! first is a stamped copy. Only the bus vectors of the one generated CS
//! and the sink lists of nets with more than two sinks take blocks of
//! their own, so generating the netlist and dropping it must each stay
//! far under one heap block per cell and net.
//!
//! A `#[global_allocator]` counts the calling thread's allocations only,
//! so the test harness's own threads cannot disturb the tallies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use m3d_netlist::{accelerator_soc, CsConfig, Netlist, NetlistStats, PeConfig, SocConfig};
use m3d_pd::{
    analyze_power, estimate_routing, place, Clustering, Floorplan, PlacerConfig, DEFAULT_ACTIVITY,
    DEFAULT_DETOUR,
};
use m3d_tech::Pdk;

/// Heap operations of one thread.
#[derive(Debug, Clone, Copy, Default)]
struct Ops {
    allocs: u64,
    reallocs: u64,
    frees: u64,
}

thread_local! {
    /// The heap operations this thread has made so far.
    static COUNTS: Cell<Ops> = const {
        Cell::new(Ops {
            allocs: 0,
            reallocs: 0,
            frees: 0,
        })
    };
}

fn tally(allocs: u64, reallocs: u64, frees: u64) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = COUNTS.try_with(|c| {
        let o = c.get();
        c.set(Ops {
            allocs: o.allocs + allocs,
            reallocs: o.reallocs + reallocs,
            frees: o.frees + frees,
        });
    });
}

/// The system allocator, counting per thread.
struct ThreadCounting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result, so `System`'s guarantees hold for our callers. The
// bookkeeping only touches a const-initialised thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, 0, 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is the one `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(1, 0, 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, 0, 1);
        // SAFETY: every block this allocator hands out comes from
        // `System` with the same layout, so `ptr` and `layout` are valid
        // for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(0, 1, 0);
        // SAFETY: `ptr` came from `System` with `layout` (see `dealloc`),
        // and the caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// Runs `f`, returning its result and the heap operations it made on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Ops) {
    let o0 = COUNTS.with(Cell::get);
    let out = f();
    let o1 = COUNTS.with(Cell::get);
    let ops = Ops {
        allocs: o1.allocs - o0.allocs,
        reallocs: o1.reallocs - o0.reallocs,
        frees: o1.frees - o0.frees,
    };
    (out, ops)
}

/// Allocation tallies of one small-CS M3D(2) design.
#[derive(Debug)]
struct Tallies {
    /// Cells plus nets of the generated netlist.
    objects: u64,
    /// `accelerator_soc` heap operations.
    soc: Ops,
    /// Blocks freed by dropping the generated netlist.
    drop_frees: u64,
    /// `NetlistStats::compute` allocations.
    stats: u64,
    /// `estimate_routing` allocations.
    route: u64,
    /// `analyze_power` allocations.
    power: u64,
}

fn measure(array: usize) -> Tallies {
    let cfg = SocConfig {
        cs: CsConfig {
            rows: array,
            cols: array,
            pe: PeConfig::default(),
            global_buffer_kb: 64,
            local_buffer_kb: 8,
        },
        ..SocConfig::m3d(2)
    };
    let pdk = Pdk::m3d_130nm();
    let mut nl = Netlist::new("soc");
    let (built, soc) = counted(|| accelerator_soc(&mut nl, &cfg));
    built.expect("netlist generates");
    let (stats, stats_ops) = counted(|| NetlistStats::compute(&nl, &pdk));
    stats.expect("stats compute");

    let floorplan = Floorplan::plan(&pdk, &cfg, &nl, None).expect("floorplan fits");
    let clustering = Clustering::build(&nl, &pdk).expect("clustering builds");
    let placement = place(&clustering, &floorplan, &PlacerConfig::quick()).expect("places");
    let (routing, route_ops) = counted(|| estimate_routing(&nl, &placement, &pdk, DEFAULT_DETOUR));
    let routing = routing.expect("routes");
    let (power, power_ops) = counted(|| {
        analyze_power(
            &nl,
            &routing,
            &placement,
            &floorplan,
            &pdk,
            floorplan.target_clock,
            DEFAULT_ACTIVITY,
        )
    });
    power.expect("power analyses");

    let objects = (nl.cell_count() + nl.net_count()) as u64;
    let ((), dropped) = counted(move || drop(nl));
    Tallies {
        objects,
        soc,
        drop_frees: dropped.frees,
        stats: stats_ops.allocs,
        route: route_ops.allocs,
        power: power_ops.allocs,
    }
}

#[test]
fn per_cell_passes_allocate_nothing_per_cell_or_net() {
    let small = measure(4);
    let large = measure(8);
    assert!(large.objects > 2 * small.objects, "{small:?} vs {large:?}");
    assert_eq!(small.stats, large.stats, "NetlistStats::compute");
    assert_eq!(small.route, large.route, "estimate_routing");
    assert_eq!(small.power, large.power, "analyze_power");
    for t in [&small, &large] {
        let Ops {
            allocs, reallocs, ..
        } = t.soc;
        let objects = t.objects as f64;
        assert!(
            (allocs as f64) < 0.2 * objects,
            "accelerator_soc made {allocs} allocations for {objects} cells + nets"
        );
        assert!(
            (reallocs as f64) < 0.1 * objects,
            "accelerator_soc made {reallocs} reallocations for {objects} cells + nets"
        );
        let frees = t.drop_frees;
        assert!(
            (frees as f64) < 0.2 * objects,
            "dropping the netlist freed {frees} blocks for {objects} cells + nets"
        );
    }
}
