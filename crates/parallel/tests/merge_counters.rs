//! Pins the deterministic `runtime.*` scheduler counters of every merge
//! strategy: one plan each for a scalar fold, a histogram, an argmin pair,
//! a two-pass scan, a search that hits, a search that misses and a
//! speculative fold.
//!
//! Each plan runs at a thread count where its counters cannot race:
//! deterministic passes run every chunk whatever the thread count, a
//! speculative search without a hit never cancels, and a speculative run
//! with a hit is pinned to one worker, which claims chunks in order.

use gr_core::detect_reductions;
use gr_frontend::compile;
use gr_interp::machine::Machine;
use gr_interp::memory::Memory;
use gr_interp::RtVal;
use gr_parallel::parallelize;
use gr_parallel::runtime::handler;

/// The counters pinned per plan, in this order.
const PINNED: [&str; 7] = [
    "runtime.passes",
    "runtime.chunk_dispatch",
    "runtime.chunk_complete",
    "runtime.chunks_planned",
    "runtime.token_polls",
    "runtime.merge_commits",
    "runtime.fold_partials_merged",
];

/// Detects and outlines `fname` in `src`, then runs it at `threads`
/// workers under a trace session. Returns the call result and the pinned
/// counters.
fn counters(
    src: &str,
    fname: &str,
    threads: usize,
    setup: impl FnOnce(&mut Memory) -> Vec<RtVal>,
) -> (Option<RtVal>, [i64; 7]) {
    let m = compile(src).unwrap();
    let rs = detect_reductions(&m);
    let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
    let mut mem = Memory::new(&pm);
    let args = setup(&mut mem);
    let mut machine = Machine::new(&pm, mem);
    machine.set_handler(handler(&pm, plan, threads));
    let guard = gr_trace::start();
    let r = machine.call(fname, &args).unwrap();
    let trace = guard.finish();
    (r, PINNED.map(|name| trace.counter(name)))
}

#[test]
fn every_merge_strategy_keeps_its_runtime_counters() {
    let n = 4096i64;
    let ints: Vec<i64> = (0..n).collect();
    let floats: Vec<f64> = (0..n).map(|i| ((i * 7919) % 10007) as f64).collect();

    // Ordered fold over scalar accumulators: one pass, one chunk per
    // worker.
    let (r, got) = counters(
        "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
        "sum",
        4,
        |mem| vec![RtVal::ptr(mem.alloc_float(&floats)), RtVal::I(n)],
    );
    assert_eq!(r, Some(RtVal::F(floats.iter().sum())));
    assert_eq!(got, [1, 4, 4, 0, 0, 0, 0], "scalar fold");

    // Element-wise histogram merge.
    let (_, got) = counters(
        "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
        "rank",
        4,
        |mem| {
            let bins = mem.alloc_int(&[0; 16]);
            let keys: Vec<i64> = ints.iter().map(|i| i % 16).collect();
            vec![RtVal::ptr(bins), RtVal::ptr(mem.alloc_int(&keys)), RtVal::I(n)]
        },
    );
    assert_eq!(got, [1, 4, 4, 0, 0, 0, 0], "histogram");

    // Argmin pair with its in-order tie-break.
    let (r, got) = counters(
        "int amin(float* a, int n) {
             float best = 1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 if (v < best) { best = v; bi = i; }
             }
             return bi;
         }",
        "amin",
        4,
        |mem| vec![RtVal::ptr(mem.alloc_float(&floats)), RtVal::I(n)],
    );
    assert_eq!(r, Some(RtVal::I(0)));
    assert_eq!(got, [1, 4, 4, 0, 0, 0, 0], "argmin");

    // Two-pass block scan: the partials pass and the replay pass each
    // run every chunk.
    let (_, got) = counters(
        "void psum(int* a, int* out, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
         }",
        "psum",
        4,
        |mem| {
            let a = mem.alloc_int(&ints);
            vec![RtVal::ptr(a), RtVal::ptr(mem.alloc_int(&vec![0; ints.len()])), RtVal::I(n)]
        },
    );
    assert_eq!(got, [2, 8, 8, 0, 0, 0, 0], "scan");

    const FIND_FIRST: &str = "int find(int* a, int x, int n) {
             int r = n;
             for (int i = 0; i < n; i++) {
                 if (a[i] == x) { r = i; break; }
             }
             return r;
         }";
    // Search with a hit at iteration 1000, one worker: of the eight
    // planned chunks, 0..=5 run, the claim of chunk 6 is polled and
    // cancelled, and the winner commits.
    let (r, got) = counters(FIND_FIRST, "find", 1, |mem| {
        vec![RtVal::ptr(mem.alloc_int(&ints)), RtVal::I(1000), RtVal::I(n)]
    });
    assert_eq!(r, Some(RtVal::I(1000)));
    assert_eq!(got, [0, 6, 6, 8, 7, 1, 0], "search with a hit");

    // Search without a hit, four workers: every planned chunk is polled,
    // dispatched and completed, and nothing commits.
    let (r, got) = counters(FIND_FIRST, "find", 4, |mem| {
        vec![RtVal::ptr(mem.alloc_int(&ints)), RtVal::I(-1), RtVal::I(n)]
    });
    assert_eq!(r, Some(RtVal::I(n)));
    assert_eq!(got, [0, 32, 32, 32, 32, 0, 0], "search without a hit");

    // Speculative fold stopping at iteration 1000, one worker: the
    // partials of chunks 0..=5 fold in order.
    let (r, got) = counters(
        "int sum_until(int* a, int stop, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) {
                 if (a[i] == stop) break;
                 s = s + a[i];
             }
             return s;
         }",
        "sum_until",
        1,
        |mem| vec![RtVal::ptr(mem.alloc_int(&ints)), RtVal::I(1000), RtVal::I(n)],
    );
    assert_eq!(r, Some(RtVal::I((0..1000).sum())));
    assert_eq!(got, [0, 6, 6, 8, 7, 1, 6], "speculative fold");
}
