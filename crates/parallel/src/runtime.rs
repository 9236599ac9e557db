//! The parallel reduction executor.
//!
//! Intercepts the `__parrun_*` intrinsic and runs it on **one scheduler**
//! (paper §4: cut the iteration space, run the chunk function on private
//! state, merge the partials). The scheduler has three parts:
//!
//! * **the chunk plan** ([`plan_chunks`]): a deterministic plan is bisected
//!   into one chunk per worker; an early-exit plan is cut into
//!   `threads × 8` chunks with the geometric front-ramp of [`ramped`], so
//!   cancellation has chunks to skip;
//! * **one worker pool**: workers claim chunks in iteration order from a
//!   shared counter. On an early-exit plan they also poll a shared
//!   [`EarlyExitToken`] and stop once a strictly earlier chunk has hit.
//!   Traps and panics are contained per chunk, and the fault-injection
//!   seams and `runtime.*` dispatch counters live here too;
//! * **one chunk runner**: it installs the plan's redirects on a
//!   thread-private memory overlay, runs the chunk function over
//!   `[start, start + len)`, and hands the private objects back in install
//!   order.
//!
//! The merge step is chosen from the plan's slots:
//!
//! * **ordered fold** (accumulators, argmin/argmax, histograms, written
//!   arrays): identity-seeded accumulator cells are merged with the
//!   original value in chunk order. Argmin/argmax `(value, index)` pairs
//!   are folded in iteration order by replaying the normalized exchange
//!   predicate, so ties break exactly as in sequential execution.
//!   Histograms are private copies (optionally grown on out-of-bounds
//!   bins) merged element-wise. Disjoint-written arrays are shared without
//!   synchronization; other written arrays are private copies, and the
//!   copy of the last chunk is written back;
//! * **two-pass block scan**: the pool runs twice. The partials pass runs
//!   every block from the identity, with the output sunk and every side
//!   effect privatized. The block partials are folded into per-block
//!   offsets, and the replay pass re-runs each block from its offset,
//!   writing the output through unsynchronized shared storage (the
//!   detector guarantees strided, therefore block-disjoint, indices). The
//!   replay pass then merges like an ordered fold;
//! * **lowest-hit commit** (searches and speculative folds): the merge
//!   commits the exit values of the lowest-indexed chunk that hit and
//!   folds the speculative-fold partials of every chunk up to it in order.
//!   Chunks past the sequential exit point may run and be discarded,
//!   which detection makes unobservable (the loop body is side-effect free
//!   by construction).
//!
//! Failures follow one of two policies. In a deterministic pass every
//! chunk runs: the lowest failing chunk decides, a trap propagates (it is
//! the trap sequential execution hits first) and a worker panic re-runs
//! the whole range sequentially. On the speculative schedule a trapping
//! or panicking chunk is discarded; when it cannot be proven irrelevant,
//! the chunks completed before it are committed and the chunk function
//! re-runs sequentially from that boundary.

use crate::fault::Seams;
use crate::overlay::{OverlayMemory, SharedRaw};
use crate::plan::{ReductionPlan, SearchSlot, WrittenPolicy, ARG_IDX_SENTINEL, SEARCH_NO_HIT};
use crate::sync::EarlyExitToken;
use gr_core::{GrError, ReductionOp};
use gr_interp::machine::{IntrinsicHandler, Machine, Trap};
use gr_interp::memory::{MemBackend, Memory, Obj, ObjId};
use gr_interp::RtVal;
use gr_ir::{CmpPred, Module, Type};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Chunks planned per worker on the speculative schedule: more chunks
/// than workers, so cancellation has someplace to bite — a worker that
/// claims a chunk past a known hit stops without touching it.
const CHUNKS_PER_WORKER: usize = 8;

/// Builds the intrinsic handler for `plan`, executing on up to `threads`
/// OS threads.
#[must_use]
pub fn handler<'m>(
    module: &'m Module,
    plan: ReductionPlan,
    threads: usize,
) -> Arc<IntrinsicHandler<'m, Memory>> {
    let threads = threads.max(1);
    Arc::new(move |name: &str, args: &[RtVal], mem: &mut Memory| {
        if name != plan.intrinsic {
            return None;
        }
        Some(execute(module, &plan, threads, args, mem))
    })
}

/// The chunks `(start, len)` the scheduler runs for `count` iterations of
/// `plan` on `threads` workers, in iteration order. A deterministic plan
/// is bisected into one chunk per worker. An early-exit plan gets
/// `threads × 8` chunks on the geometric front-ramp of [`ramped`].
#[must_use]
pub fn plan_chunks(plan: &ReductionPlan, count: i64, threads: usize) -> Vec<(i64, i64)> {
    let count_cap = usize::try_from(count).unwrap_or(0).max(1);
    if plan.search.is_some() {
        ramped(count, (threads.max(1) * CHUNKS_PER_WORKER).min(count_cap))
    } else {
        bisect(count, threads.max(1).min(count_cap))
    }
}

/// Splits `count` iterations into at most `pieces` contiguous ranges with
/// a **geometric front-ramp**: piece `k` weighs `min(2^k, 64)`, so the
/// first chunks are small and a hit near the front of the iteration space
/// cancels nearly all of it before the speculative tail has been touched,
/// while the tail still amortizes claim overhead over large chunks.
/// Coverage is exact and pieces stay in iteration order (the cancellation
/// protocol depends only on chunk *order*, not size).
#[must_use]
pub fn ramped(count: i64, pieces: usize) -> Vec<(i64, i64)> {
    if pieces <= 1 || count <= 1 {
        return bisect(count, pieces);
    }
    const RAMP_CAP: u32 = 6; // weights saturate at 2^6 = 64
    let weights: Vec<i64> = (0..pieces)
        .map(|k| 1i64 << u32::try_from(k).map_or(RAMP_CAP, |k| k.min(RAMP_CAP)))
        .collect();
    let total: i128 = weights.iter().map(|&w| i128::from(w)).sum();
    let mut out = Vec::new();
    let mut prefix: i128 = 0;
    let mut start = 0i64;
    for w in weights {
        prefix += i128::from(w);
        #[allow(clippy::cast_possible_truncation)] // bounded by count
        let end = ((i128::from(count) * prefix) / total) as i64;
        if end > start {
            out.push((start, end - start));
            start = end;
        }
    }
    out
}

/// Splits `count` iterations by recursive bisection into at most
/// `pieces` contiguous ranges `(start, len)`.
#[must_use]
pub fn bisect(count: i64, pieces: usize) -> Vec<(i64, i64)> {
    fn rec(start: i64, len: i64, pieces: usize, out: &mut Vec<(i64, i64)>) {
        if pieces <= 1 || len <= 1 {
            if len > 0 {
                out.push((start, len));
            }
            return;
        }
        let left_pieces = pieces / 2;
        let right_pieces = pieces - left_pieces;
        // Split proportionally so each piece gets a similar share.
        let left_len = len * left_pieces as i64 / pieces as i64;
        rec(start, left_len, left_pieces, out);
        rec(start + left_len, len - left_len, right_pieces, out);
    }
    let mut out = Vec::new();
    rec(0, count, pieces, &mut out);
    out
}

fn object_of(arg: RtVal) -> Result<ObjId, Trap> {
    match arg {
        RtVal::P { obj, off: 0 } => Ok(obj),
        _ => Err(Trap::UnknownFunction("misaligned runtime pointer".to_string())),
    }
}

/// All runtime objects of one plan, resolved from the intrinsic
/// arguments, each list in slot order.
struct PlanObjects {
    cells: Vec<ObjId>,
    hists: Vec<ObjId>,
    scan_cells: Vec<ObjId>,
    scan_outs: Vec<ObjId>,
    arg_vals: Vec<ObjId>,
    arg_idxs: Vec<ObjId>,
    written: Vec<ObjId>,
    /// The hit cell (empty unless the plan is speculative).
    hit: Vec<ObjId>,
    exits: Vec<ObjId>,
    folds: Vec<ObjId>,
}

impl PlanObjects {
    fn resolve(plan: &ReductionPlan, args: &[RtVal]) -> Result<PlanObjects, Trap> {
        let get = |ix: &mut dyn Iterator<Item = usize>| -> Result<Vec<ObjId>, Trap> {
            ix.map(|i| object_of(args[i])).collect()
        };
        let search = plan.search.iter();
        Ok(PlanObjects {
            cells: get(&mut plan.accs.iter().map(|a| a.arg_index))?,
            hists: get(&mut plan.hists.iter().map(|h| h.arg_index))?,
            scan_cells: get(&mut plan.scans.iter().map(|s| s.cell_arg_index))?,
            scan_outs: get(&mut plan.scans.iter().map(|s| s.out_arg_index))?,
            arg_vals: get(&mut plan.args.iter().map(|a| a.val_arg_index))?,
            arg_idxs: get(&mut plan.args.iter().map(|a| a.idx_arg_index))?,
            written: get(&mut plan.written.iter().map(|w| w.arg_index))?,
            hit: get(&mut search.clone().map(|s| s.hit_arg_index))?,
            exits: get(&mut search.clone().flat_map(|s| s.exits.iter().map(|e| e.arg_index)))?,
            folds: get(&mut search.flat_map(|s| s.folds.iter().map(|f| f.arg_index)))?,
        })
    }
}

/// How the chunk runner installs one plan object in a chunk's overlay.
enum Install {
    /// A private copy starting from `seed`, handed back after the chunk.
    /// With `grow` set it extends with the operator's identity on
    /// out-of-bounds indices (the paper's histogram reallocation).
    Private { seed: Obj, grow: Option<ReductionOp> },
    /// Unsynchronized shared storage (block-disjoint writes).
    Raw(Arc<SharedRaw>),
    /// Write-only sink for outputs a later pass recomputes.
    Sink,
}

fn private(seed: Obj) -> Install {
    Install::Private { seed, grow: None }
}

/// The chunk runner: runs `chunk_fn` over `args` on an overlay of `base`
/// with `installs` in place, and returns the private objects in install
/// order.
fn run_chunk(
    module: &Module,
    chunk_fn: &str,
    args: &[RtVal],
    base: &Memory,
    installs: Vec<(ObjId, Install)>,
) -> Result<Vec<Obj>, Trap> {
    let mut overlay = OverlayMemory::new(base);
    let mut privates = Vec::new();
    for (obj, install) in installs {
        match install {
            Install::Private { seed, grow } => {
                let (fill_i, fill_f) =
                    grow.map_or((0, 0.0), |op| (op.identity_int(), op.identity_float()));
                overlay.redirect_private(obj, seed, grow.is_some(), fill_i, fill_f);
                privates.push(obj);
            }
            Install::Raw(raw) => overlay.redirect_raw(obj, raw),
            Install::Sink => overlay.redirect_sink(obj),
        }
    }
    let mut machine = Machine::new(module, overlay);
    machine.call(chunk_fn, args)?;
    let mut overlay = machine.mem;
    Ok(privates.into_iter().map(|o| overlay.take_private(o)).collect())
}

/// Why a chunk produced no result.
enum Failure {
    /// The chunk function trapped.
    Trap(Trap),
    /// The worker panicked mid-chunk; the panic was contained on the
    /// worker. Carries the rendered panic payload.
    Panic(String),
}

/// What one run of the worker pool produced, each list sorted by chunk
/// index.
struct PoolOut {
    /// Completed chunks and their private objects.
    done: Vec<(usize, Vec<Obj>)>,
    /// Chunks that trapped or panicked.
    failed: Vec<(usize, Failure)>,
}

/// One intrinsic call: the plan, its arguments, its iteration bounds and
/// its chunk plan.
struct Call<'a> {
    module: &'a Module,
    plan: &'a ReductionPlan,
    args: &'a [RtVal],
    lo: i64,
    hi: i64,
    step: i64,
    count: i64,
    chunks: Vec<(i64, i64)>,
    threads: usize,
}

impl Call<'_> {
    /// The intrinsic arguments with the bounds narrowed to chunk `c`.
    /// Interior chunks stop exactly at the next chunk's start; the final
    /// chunk keeps the true loop bound (so `Le`/`Ge` predicates include
    /// their endpoint).
    fn chunk_args(&self, c: usize) -> Vec<RtVal> {
        let (start, len) = self.chunks[c];
        let end = start + len;
        let mut hi = self.plan.nth_iter_value(self.lo, self.step, end);
        if end == self.count {
            hi = self.hi;
        } else if matches!(self.plan.pred, CmpPred::Le | CmpPred::Ge) {
            // Inclusive predicates stop one step before the neighbour's
            // first iteration.
            hi -= self.step;
        }
        let mut args = self.args.to_vec();
        args[0] = RtVal::I(self.plan.nth_iter_value(self.lo, self.step, start));
        args[1] = RtVal::I(hi);
        args
    }

    /// The worker pool: `threads` workers claim chunks in iteration order
    /// from a shared counter and run each through [`run_chunk`] with the
    /// redirects `installs(chunk)`, on top of `base`.
    ///
    /// With a `token` the pass is speculative: workers poll it before each
    /// claim and stop once a strictly earlier chunk has hit, and the first
    /// private object of every chunk must be its hit cell, which a worker
    /// offers to the token. Without one every chunk runs.
    fn run_pool(
        &self,
        base: &Memory,
        chunk_fn: &str,
        token: Option<&EarlyExitToken>,
        installs: &(dyn Fn(usize) -> Vec<(ObjId, Install)> + Sync),
    ) -> PoolOut {
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(self.chunks.len()).max(1);
        let mut out = PoolOut { done: Vec::new(), failed: Vec::new() };
        // The calling thread's trace session and armed faults reach the
        // workers only through these two handles.
        let trace = gr_trace::current();
        let seams = crate::fault::armed();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let _trace = trace.as_ref().map(gr_trace::SessionHandle::join);
                        self.work(&next, base, chunk_fn, token, seams.as_deref(), installs)
                    })
                })
                .collect();
            for h in handles {
                let w = h.join().expect("reduction worker died outside panic containment");
                out.done.extend(w.done);
                out.failed.extend(w.failed);
            }
        });
        out.done.sort_by_key(|&(c, _)| c);
        out.failed.sort_by_key(|&(c, _)| c);
        out
    }

    /// One worker of [`Call::run_pool`]: claims chunks until none are left
    /// or the token cancels the claim.
    fn work(
        &self,
        next: &AtomicUsize,
        base: &Memory,
        chunk_fn: &str,
        token: Option<&EarlyExitToken>,
        seams: Option<&Seams>,
        installs: &(dyn Fn(usize) -> Vec<(ObjId, Install)> + Sync),
    ) -> PoolOut {
        let mut out = PoolOut { done: Vec::new(), failed: Vec::new() };
        loop {
            let c = next.fetch_add(1, Ordering::SeqCst);
            if c >= self.chunks.len() {
                return out;
            }
            if let Some(token) = token {
                if seams.is_some_and(|s| s.abort_requested(c)) {
                    token.abort();
                }
                gr_trace::counter("runtime.token_polls", 1);
                if token.cancels(c as i64) {
                    gr_trace::counter("runtime.token_cancelled", 1);
                    return out;
                }
            }
            if gr_trace::enabled() {
                let (start, len) = self.chunks[c];
                gr_trace::counter("runtime.chunk_dispatch", 1);
                gr_trace::instant(
                    "runtime.chunk",
                    vec![("chunk", c.into()), ("start", start.into()), ("len", len.into())],
                );
            }
            let args = self.chunk_args(c);
            // Contain panics on the worker itself: unwinding out of a
            // scoped thread would abort the whole executor at the join.
            let run = catch_unwind(AssertUnwindSafe(|| {
                if let Some(seams) = seams {
                    seams.maybe_panic(c);
                }
                run_chunk(self.module, chunk_fn, &args, base, installs(c))
            }));
            match run {
                Ok(Ok(objs)) => {
                    if let Some(token) = token.filter(|_| hit_of(&objs) != SEARCH_NO_HIT) {
                        gr_trace::counter("runtime.chunk_hits", 1);
                        token.offer(c as i64);
                    }
                    gr_trace::counter("runtime.chunk_complete", 1);
                    out.done.push((c, objs));
                }
                Ok(Err(trap)) => {
                    // Deterministic traps propagate; only speculative ones
                    // count as contained.
                    if token.is_some() {
                        gr_trace::counter("runtime.chunk_trap", 1);
                    }
                    out.failed.push((c, Failure::Trap(trap)));
                }
                Err(payload) => {
                    gr_trace::counter("runtime.chunk_panic", 1);
                    let detail = crate::fault::panic_message(&*payload);
                    out.failed.push((c, Failure::Panic(detail)));
                }
            }
        }
    }

    /// One deterministic pass: every chunk runs, and the lowest failing
    /// chunk decides the outcome. On success returns, per private object
    /// in install order, its partials in chunk order.
    fn deterministic_pass(
        &self,
        base: &Memory,
        chunk_fn: &str,
        installs: &(dyn Fn(usize) -> Vec<(ObjId, Install)> + Sync),
    ) -> Result<Vec<Vec<Obj>>, (usize, Failure)> {
        gr_trace::counter("runtime.passes", 1);
        let out = self.run_pool(base, chunk_fn, None, installs);
        if let Some(failure) = out.failed.into_iter().next() {
            return Err(failure);
        }
        let mut columns: Vec<Vec<Obj>> = Vec::new();
        for (_, objs) in out.done {
            columns.resize_with(objs.len(), || Vec::with_capacity(self.chunks.len()));
            for (column, obj) in columns.iter_mut().zip(objs) {
                column.push(obj);
            }
        }
        Ok(columns)
    }

    /// Degrades a failed deterministic pass. A trap propagates: the pass
    /// covers every iteration exactly once, so the lowest failing chunk
    /// holds the earliest trapping iteration, the trap sequential
    /// execution raises. A contained worker panic instead runs the chunk
    /// function once, sequentially, over the **entire** iteration space
    /// against a scratch copy of the live memory. Every chunk-local result
    /// so far lived in discarded overlays, so the re-run reproduces exact
    /// sequential semantics (including a genuine trap or panic), and the
    /// base memory is only replaced once it succeeds.
    fn recover(&self, mem: &mut Memory, (chunk, failure): (usize, Failure)) -> Result<(), Trap> {
        let detail = match failure {
            Failure::Trap(t) => return Err(t),
            Failure::Panic(detail) => detail,
        };
        let function = self.plan.chunk_fn.clone();
        GrError::WorkerPanic { function, chunk: chunk as i64, detail }.emit();
        if gr_trace::enabled() {
            gr_trace::counter("runtime.panic_fallbacks", 1);
            gr_trace::instant("runtime.panic_fallback", vec![("chunk", chunk.into())]);
        }
        let mut machine = Machine::new(self.module, mem.clone());
        machine.call(&self.plan.chunk_fn, self.args)?;
        *mem = machine.mem;
        Ok(())
    }
}

/// Runs one intrinsic call: plans its chunks, then hands them to the merge
/// strategy the plan's slots select — the lowest-hit commit for an
/// early-exit plan, the ordered fold (two passes with scans) otherwise.
fn execute(
    module: &Module,
    plan: &ReductionPlan,
    threads: usize,
    args: &[RtVal],
    mem: &mut Memory,
) -> Result<Option<RtVal>, Trap> {
    let (lo, hi, step) = (args[0].as_i(), args[1].as_i(), args[2].as_i());
    let count = plan.iteration_count(lo, hi, step);
    if count == 0 {
        return Ok(None);
    }
    let chunks = plan_chunks(plan, count, threads);
    let call = Call { module, plan, args, lo, hi, step, count, chunks, threads };
    match &plan.search {
        Some(search) => execute_speculative(&call, search, mem)?,
        None => execute_deterministic(&call, mem)?,
    }
    Ok(None)
}

/// The redirects of one deterministic chunk, in merge order: the
/// identity-seeded accumulator cells, the scan cells seeded with
/// `scan_seeds`, each argmin/argmax `(value, index)` pair seeded with
/// `(identity, sentinel)`, the histograms, and the written objects that
/// `written_raws` does not share (private copies). Scan outputs go to
/// `scan_raws`, or to a sink when it is `None`.
fn fold_installs(
    plan: &ReductionPlan,
    objs: &PlanObjects,
    base: &Memory,
    scan_seeds: &[Obj],
    scan_raws: Option<&[Arc<SharedRaw>]>,
    written_raws: &[Option<Arc<SharedRaw>>],
) -> Vec<(ObjId, Install)> {
    let mut out = Vec::new();
    for (&cell, acc) in objs.cells.iter().zip(&plan.accs) {
        out.push((cell, private(identity(acc.op, acc.ty))));
    }
    for (&cell, seed) in objs.scan_cells.iter().zip(scan_seeds) {
        out.push((cell, private(seed.clone())));
    }
    for (si, &o) in objs.scan_outs.iter().enumerate() {
        out.push((o, scan_raws.map_or(Install::Sink, |raws| Install::Raw(Arc::clone(&raws[si])))));
    }
    for (slot, (&v, &i)) in plan.args.iter().zip(objs.arg_vals.iter().zip(&objs.arg_idxs)) {
        out.push((v, private(identity(slot.op, slot.ty))));
        out.push((i, private(Obj::I(vec![ARG_IDX_SENTINEL]))));
    }
    for (&h, slot) in objs.hists.iter().zip(&plan.hists) {
        let len = if slot.growable { 1 } else { base.object(h).len() };
        let seed = match slot.elem {
            Type::Int => Obj::I(vec![slot.op.identity_int(); len]),
            _ => Obj::F(vec![slot.op.identity_float(); len]),
        };
        out.push((h, Install::Private { seed, grow: slot.growable.then_some(slot.op) }));
    }
    for (&w, raw) in objs.written.iter().zip(written_raws) {
        out.push((
            w,
            raw.as_ref().map_or_else(
                || private(base.object(w).clone()),
                |raw| Install::Raw(Arc::clone(raw)),
            ),
        ));
    }
    out
}

/// The ordered fold, run as one deterministic pass, or as the two-pass
/// block scan when the plan has scans: the partials pass, the per-block
/// offsets folded from its partials, then the replay pass, whose partials
/// merge like an ordered fold.
fn execute_deterministic(call: &Call<'_>, mem: &mut Memory) -> Result<(), Trap> {
    let plan = call.plan;
    let objs = &PlanObjects::resolve(plan, call.args)?;
    let shared = |o: ObjId| Arc::new(SharedRaw::new(mem.object(o).clone()));
    let written_raws: Vec<Option<Arc<SharedRaw>>> = objs
        .written
        .iter()
        .zip(&plan.written)
        .map(|(&o, w)| (w.policy == WrittenPolicy::DisjointShared).then(|| shared(o)))
        .collect();
    let identities: Vec<Obj> = plan.scans.iter().map(|s| identity(s.op, s.ty)).collect();
    let mut seeds = vec![identities; call.chunks.len()];
    let mut scan_totals = Vec::new();
    let mut scan_raws = None;
    if !plan.scans.is_empty() {
        // Partials pass: every block from the identity, outputs sunk and
        // every write privatized. It only needs each block's final running
        // value, so it runs the store-free value-only chunk when outlining
        // produced one.
        let value_fn = plan.chunk_value_only_fn.as_deref().unwrap_or(&plan.chunk_fn);
        let no_raws = vec![None; plan.written.len()];
        let partials = match call.deterministic_pass(mem, value_fn, &|c| {
            fold_installs(plan, objs, mem, &seeds[c], None, &no_raws)
        }) {
            Ok(columns) => columns,
            Err(failure) => return call.recover(mem, failure),
        };
        // Block 0 starts from the original initial value, block t from
        // offset(t-1) ⊕ partial(t-1).
        let mut running = objs
            .scan_cells
            .iter()
            .zip(&plan.scans)
            .map(|(&cell, s)| load_cell(mem, cell, s.ty))
            .collect::<Result<Vec<Obj>, Trap>>()?;
        let scan_partials = &partials[plan.accs.len()..plan.accs.len() + plan.scans.len()];
        for (c, block_seeds) in seeds.iter_mut().enumerate() {
            *block_seeds = running.clone();
            for ((total, s), column) in running.iter_mut().zip(&plan.scans).zip(scan_partials) {
                merge_obj(total, &column[c], s.op);
            }
        }
        scan_totals = running;
        scan_raws = Some(objs.scan_outs.iter().map(|&o| shared(o)).collect::<Vec<_>>());
    }
    // The replay pass (or the only pass, without scans). A failure here
    // drops the shared copies, so the base memory is still pristine.
    let columns = match call.deterministic_pass(mem, &plan.chunk_fn, &|c| {
        fold_installs(plan, objs, mem, &seeds[c], scan_raws.as_deref(), &written_raws)
    }) {
        Ok(columns) => columns,
        Err(failure) => return call.recover(mem, failure),
    };
    for (raw, &out) in scan_raws.into_iter().flatten().zip(&objs.scan_outs) {
        *mem.object_mut(out) = Arc::try_unwrap(raw).expect("scan output uniquely owned").into_obj();
    }
    for (total, &cell) in scan_totals.iter().zip(&objs.scan_cells) {
        store_cell(mem, cell, total)?;
    }
    let mut columns = columns.into_iter();
    let mut next = || columns.next().expect("one column per private object");
    // Accumulators: final = init ⊕ partial_0 ⊕ … ⊕ partial_{p-1}.
    for (acc, &cell) in plan.accs.iter().zip(&objs.cells) {
        fold_into(mem, cell, acc.ty, acc.op, &next())?;
    }
    // The replay pass's scan partials are already in the totals.
    plan.scans.iter().for_each(|_| drop(next()));
    // Argmin/argmax pairs in iteration order: a block partial with a real
    // index replaces the running best exactly when the normalized exchange
    // predicate holds, the same rule the loop body applies, so ties break
    // bit-equal with sequential execution. Blocks that never exchanged
    // report the sentinel and are skipped.
    for (slot, (&vcell, &icell)) in plan.args.iter().zip(objs.arg_vals.iter().zip(&objs.arg_idxs)) {
        let (vals, idxs) = (next(), next());
        let mut best = (load_cell(mem, vcell, slot.ty)?, mem.load_i(icell, 0).map_err(Trap::Mem)?);
        for (v, i) in vals.into_iter().zip(idxs) {
            let Obj::I(i) = i else { panic!("arg cell type mismatch") };
            if i[0] != ARG_IDX_SENTINEL && exchanges(slot.pred, &v, &best.0) {
                best = (v, i[0]);
            }
        }
        store_cell(mem, vcell, &best.0)?;
        mem.store_i(icell, 0, best.1).map_err(Trap::Mem)?;
    }
    // Histograms element-wise, growing the original if needed.
    for (&h, slot) in objs.hists.iter().zip(&plan.hists) {
        let partials = next();
        let len = partials.iter().map(Obj::len).chain([mem.object(h).len()]).max().unwrap_or(0);
        let hist = mem.object_mut(h);
        hist.grow_to(len, slot.op.identity_int(), slot.op.identity_float());
        for p in &partials {
            merge_obj(hist, p, slot.op);
        }
    }
    // Written objects: shared copies replace the original; for private
    // copies the chunk executing the final iterations wins.
    for (raw, &w) in written_raws.into_iter().zip(&objs.written) {
        *mem.object_mut(w) = match raw {
            Some(raw) => Arc::try_unwrap(raw).expect("raw shared uniquely owned").into_obj(),
            None => next().pop().expect("the last chunk's copy"),
        };
    }
    Ok(())
}

/// Stable per-call-site key for the runtime profiling histograms: the
/// chunk-function name with its trailing outliner gensym stripped
/// (`__chunk_find_5` → `__chunk_find`). The gensym is a process-global
/// counter, so it is not stable across runs — exactly the wrong key for
/// the persisted [`gr_trace::profile::HitProfile`]. Distinct search loops
/// in one function share a site; that coarseness is deliberate.
///
/// This is [`gr_core::strip_gensym`] — the same normalization the
/// fingerprinting layer applies to call names — *not* a private
/// re-implementation: `ChunkPolicy::with_profile` strips lookups with the
/// same function, and a divergence between the two would silently orphan
/// every persisted profile entry.
fn trace_site(chunk_fn: &str) -> &str {
    gr_core::strip_gensym(chunk_fn)
}

/// The redirects of one speculative chunk: the hit cell seeded with
/// [`SEARCH_NO_HIT`] first, then private copies of the exit and fold
/// cells as `base` holds them.
fn speculative_installs(objs: &PlanObjects, base: &Memory) -> Vec<(ObjId, Install)> {
    let hit = objs.hit.iter().map(|&h| (h, private(Obj::I(vec![SEARCH_NO_HIT]))));
    let cells = objs
        .exits
        .iter()
        .chain(&objs.folds)
        .map(|&o| (o, private(base.object(o).clone())));
    hit.chain(cells).collect()
}

/// The hit value in a speculative chunk's private objects.
fn hit_of(objs: &[Obj]) -> i64 {
    let Obj::I(hit) = &objs[0] else { panic!("hit cell type mismatch") };
    hit[0]
}

/// The lowest-hit commit for searches and speculative folds.
///
/// Each chunk runs the two-exit chunk function on private hit/exit/fold
/// cells and breaks at its first in-range hit, so per-chunk results are
/// already "earliest in chunk". The merge commits the exit cells of the
/// lowest-indexed hit chunk — exactly the sequential first hit — and folds
/// the speculative-fold partials **in chunk order, only up to that chunk**
/// (all of them when nothing hit). Claims are issued in order and only
/// chunks strictly past a known hit are cancelled, so every chunk before
/// the winner has run to completion.
///
/// Loads past the sequential exit point are *not* assumed in-bounds: a
/// speculative chunk that traps or panics is discarded. If it cannot be
/// proven irrelevant (it precedes the winning hit, or nothing hit at all),
/// the chunks completed before it are committed and the chunk function
/// runs once from that boundary to the true bound — sequential semantics,
/// including the trap if the original program really would have faulted.
fn execute_speculative(call: &Call<'_>, search: &SearchSlot, mem: &mut Memory) -> Result<(), Trap> {
    let (plan, chunks) = (call.plan, &call.chunks);
    if gr_trace::enabled() {
        gr_trace::counter("runtime.chunks_planned", chunks.len() as i64);
        // Chunk-size distribution per call site, recorded at plan time (on
        // the dispatching thread, before any worker races) so the profile
        // is deterministic for a fixed thread count.
        for &(_, len) in chunks {
            gr_trace::histogram_keyed("runtime.chunk_len", trace_site(&plan.chunk_fn), len);
        }
        gr_trace::instant(
            "runtime.ramp",
            vec![
                ("chunks", chunks.len().into()),
                ("first_len", chunks.first().map_or(0, |&(_, l)| l).into()),
                ("last_len", chunks.last().map_or(0, |&(_, l)| l).into()),
            ],
        );
    }
    let objs = PlanObjects::resolve(plan, call.args)?;
    let token = EarlyExitToken::new();
    let out =
        call.run_pool(mem, &plan.chunk_fn, Some(&token), &|_| speculative_installs(&objs, mem));
    let winner = out.done.iter().find(|(_, o)| hit_of(o) != SEARCH_NO_HIT).map(|&(c, _)| c);
    // The speculative result stands only when everything sequential
    // execution would have run is accounted for: every chunk up to the
    // winner (all chunks, when nothing hit) completed without a failure.
    let needed = winner.map_or(chunks.len(), |w| w + 1);
    let failed_min = out.failed.first().map_or(i64::MAX, |&(c, _)| c as i64);
    let complete = failed_min >= needed as i64
        && out.done.len() >= needed
        && out.done.iter().take(needed).enumerate().all(|(i, &(c, _))| c == i);
    if complete {
        if let Some(w) = winner {
            gr_trace::counter("runtime.merge_commits", 1);
            if gr_trace::enabled() {
                // Hit-position profile per call site: the committed hit is
                // the sequential first hit, so this histogram is identical
                // across thread counts and is what an adaptive ramp would
                // train on (gr_trace::profile::HitProfile extracts it).
                let site = trace_site(&plan.chunk_fn);
                gr_trace::histogram_keyed("runtime.hit_pos", site, hit_of(&out.done[w].1));
                gr_trace::histogram_keyed("runtime.hit_chunk", site, w as i64);
            }
        }
        if gr_trace::enabled() && !search.folds.is_empty() {
            gr_trace::counter("runtime.fold_partials_merged", (needed * search.folds.len()) as i64);
        }
        let partials: Vec<&[Obj]> = out.done[..needed].iter().map(|(_, o)| &o[..]).collect();
        return commit_speculative(mem, search, &objs, &partials);
    }
    // Restart from the last completed chunk boundary instead of re-running
    // the whole range: chunks `0..prefix` finished without hit or failure,
    // so their partials are committed as-is and the sequential tail
    // resumes exactly where coverage ends.
    let prefix = completed_prefix(&out.done, failed_min);
    debug_assert!(prefix < chunks.len(), "a fully completed schedule cannot be incomplete");
    let restart_at = chunks.get(prefix).map_or(call.count, |&(start, _)| start);
    // Failure ledger: one entry for the earliest failure sequential
    // execution actually needs (chunks below `needed` always run to an
    // outcome, so this choice is deterministic; racy speculative failures
    // past the winner are not user-visible degradations), plus the abort
    // itself when the schedule was torn down.
    if let Some((c, failure)) = out.failed.iter().find(|&&(c, _)| c < needed) {
        let function = plan.chunk_fn.clone();
        match failure {
            Failure::Trap(trap) => GrError::InterpTrap { function, detail: trap.to_string() },
            Failure::Panic(detail) => {
                GrError::WorkerPanic { function, chunk: *c as i64, detail: detail.clone() }
            }
        }
        .emit();
    }
    if token.aborted() {
        GrError::TokenAborted { function: plan.chunk_fn.clone() }.emit();
    }
    if gr_trace::enabled() {
        gr_trace::counter("runtime.trap_fallbacks", 1);
        gr_trace::instant(
            "runtime.trap_fallback",
            vec![("restart_chunk", prefix.into()), ("restart_iter", restart_at.into())],
        );
    }
    // The sequential tail breaks at its first hit exactly like the
    // original loop. It runs against the live cells outside the pool (the
    // fault seams never fire here), and its trap, if any, propagates before
    // any cell is touched.
    let mut tail_args = call.args.to_vec();
    tail_args[0] = RtVal::I(plan.nth_iter_value(call.lo, call.step, restart_at));
    let tail =
        run_chunk(call.module, &plan.chunk_fn, &tail_args, mem, speculative_installs(&objs, mem))?;
    let mut partials: Vec<&[Obj]> = out.done[..prefix].iter().map(|(_, o)| &o[..]).collect();
    partials.push(&tail);
    commit_speculative(mem, search, &objs, &partials)
}

/// Commits speculative chunk results covering a prefix of the iteration
/// space, in chunk order. Only the last may have hit: its hit and exit
/// cells are committed. Every fold cell becomes `init ⊕ partial_0 ⊕ …`
/// (the cell holds `init` on entry — the rewritten preheader stored it).
/// Without a hit the hit/exit cells keep the preheader's defaults.
fn commit_speculative(
    mem: &mut Memory,
    search: &SearchSlot,
    objs: &PlanObjects,
    partials: &[&[Obj]],
) -> Result<(), Trap> {
    let folds_at = 1 + objs.exits.len();
    if let Some(last) = partials.last().filter(|last| hit_of(last) != SEARCH_NO_HIT) {
        mem.store_i(objs.hit[0], 0, hit_of(last)).map_err(Trap::Mem)?;
        for (&o, obj) in objs.exits.iter().zip(&last[1..folds_at]) {
            *mem.object_mut(o) = obj.clone();
        }
    }
    for (fi, (slot, &cell)) in search.folds.iter().zip(&objs.folds).enumerate() {
        fold_into(mem, cell, slot.ty, slot.op, partials.iter().map(|p| &p[folds_at + fi]))?;
    }
    Ok(())
}

/// The longest run of chunks `0..prefix` that completed without a hit and
/// below the lowest failed chunk: their partials are exactly what
/// sequential execution would have produced over the same iterations, so
/// the fallback can commit them and restart past them. `done` must be
/// sorted by chunk index.
fn completed_prefix(done: &[(usize, Vec<Obj>)], failed_min: i64) -> usize {
    let mut prefix = 0usize;
    for (c, objs) in done {
        if *c == prefix && hit_of(objs) == SEARCH_NO_HIT && (prefix as i64) < failed_min {
            prefix += 1;
        } else {
            break;
        }
    }
    prefix
}

/// The one-element cell holding `op`'s identity for type `ty`.
fn identity(op: ReductionOp, ty: Type) -> Obj {
    match ty {
        Type::Int | Type::Bool => Obj::I(vec![op.identity_int()]),
        _ => Obj::F(vec![op.identity_float()]),
    }
}

/// Reads the one-element cell `cell` of type `ty`.
fn load_cell(mem: &Memory, cell: ObjId, ty: Type) -> Result<Obj, Trap> {
    Ok(match ty {
        Type::Int | Type::Bool => Obj::I(vec![mem.load_i(cell, 0).map_err(Trap::Mem)?]),
        _ => Obj::F(vec![mem.load_f(cell, 0).map_err(Trap::Mem)?]),
    })
}

/// Writes a one-element value back to `cell`.
fn store_cell(mem: &mut Memory, cell: ObjId, value: &Obj) -> Result<(), Trap> {
    match value {
        Obj::I(v) => mem.store_i(cell, 0, v[0]),
        Obj::F(v) => mem.store_f(cell, 0, v[0]),
    }
    .map_err(Trap::Mem)
}

/// Folds `partials` into `cell` in order: `cell = cell ⊕ p_0 ⊕ p_1 ⊕ …`.
fn fold_into<'a>(
    mem: &mut Memory,
    cell: ObjId,
    ty: Type,
    op: ReductionOp,
    partials: impl IntoIterator<Item = &'a Obj>,
) -> Result<(), Trap> {
    let mut value = load_cell(mem, cell, ty)?;
    for p in partials {
        merge_obj(&mut value, p, op);
    }
    store_cell(mem, cell, &value)
}

/// Whether a block's argmin/argmax value `a` replaces the running best
/// `b` under the normalized exchange predicate (ordering tests only — an
/// equality exchange is never classified as argmin/argmax).
fn exchanges(pred: CmpPred, a: &Obj, b: &Obj) -> bool {
    fn holds<T: PartialOrd>(pred: CmpPred, a: T, b: T) -> bool {
        match pred {
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
            CmpPred::Eq | CmpPred::Ne => false,
        }
    }
    match (a, b) {
        (Obj::I(a), Obj::I(b)) => holds(pred, a[0], b[0]),
        (Obj::F(a), Obj::F(b)) => holds(pred, a[0], b[0]),
        _ => panic!("arg cell type mismatch"),
    }
}

/// Merges `from` into `into` element-wise with `op`.
fn merge_obj(into: &mut Obj, from: &Obj, op: ReductionOp) {
    match (into, from) {
        (Obj::I(a), Obj::I(b)) => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.merge_int(*x, *y);
            }
        }
        (Obj::F(a), Obj::F(b)) => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.merge_float(*x, *y);
            }
        }
        _ => panic!("element type mismatch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outline::parallelize;
    use gr_core::detect_reductions;
    use gr_frontend::compile;

    #[test]
    fn bisect_covers_range_exactly() {
        for count in [1i64, 2, 7, 100, 1023] {
            for pieces in [1usize, 2, 3, 8, 24] {
                let ps = bisect(count, pieces);
                assert!(ps.len() <= pieces);
                let total: i64 = ps.iter().map(|p| p.1).sum();
                assert_eq!(total, count, "count={count} pieces={pieces}");
                let mut next = 0;
                for (start, len) in ps {
                    assert_eq!(start, next);
                    assert!(len > 0);
                    next = start + len;
                }
            }
        }
    }

    #[test]
    fn ramped_covers_range_exactly() {
        for count in [1i64, 2, 7, 100, 1023, 80_000] {
            for pieces in [1usize, 2, 3, 8, 64] {
                let ps = ramped(count, pieces);
                assert!(ps.len() <= pieces);
                let total: i64 = ps.iter().map(|p| p.1).sum();
                assert_eq!(total, count, "count={count} pieces={pieces}");
                let mut next = 0;
                for &(start, len) in &ps {
                    assert_eq!(start, next);
                    assert!(len > 0);
                    next = start + len;
                }
            }
        }
    }

    #[test]
    fn ramped_front_chunks_are_small() {
        // The geometric ramp: the first chunk is a small fraction of the
        // last, so an early hit cancels nearly the whole space cheaply.
        let ps = ramped(64_000, 32);
        assert!(ps.len() > 8);
        let first = ps.first().unwrap().1;
        let last = ps.last().unwrap().1;
        assert!(first * 16 <= last, "first {first} vs last {last}");
        // Sizes never shrink along the ramp (modulo rounding jitter).
        for w in ps.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1, "{ps:?}");
        }
    }

    fn run_parallel(
        src: &str,
        fname: &str,
        threads: usize,
        setup: impl FnOnce(&mut Memory) -> Vec<RtVal>,
    ) -> (Module, ReductionPlan, Memory, Option<RtVal>) {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let args = setup(&mut mem);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan.clone(), threads));
        let r = machine.call(fname, &args).unwrap();
        (pm.clone(), plan, machine.mem, r)
    }

    #[test]
    fn parallel_sum_matches_sequential() {
        let data: Vec<f64> = (0..10_000).map(|i| (i % 97) as f64 * 0.25).collect();
        let expect: f64 = data.iter().sum();
        let (_, _, _, r) = run_parallel(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            8,
            |mem| vec![RtVal::ptr(mem.alloc_float(&data)), RtVal::I(10_000)],
        );
        // Addition reassociation: compare with tolerance.
        let got = r.unwrap().as_f();
        assert!((got - expect).abs() < 1e-6, "got {got}, want {expect}");
    }

    #[test]
    fn parallel_min_uses_identity_correctly() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37 % 101) as f64) - 50.0).collect();
        let expect = data.iter().cloned().fold(f64::INFINITY, f64::min).min(3.0);
        let (_, _, _, r) = run_parallel(
            "float lo(float* a, int n) { float s = 3.0; for (int i = 0; i < n; i++) s = fmin(s, a[i]); return s; }",
            "lo",
            6,
            |mem| vec![RtVal::ptr(mem.alloc_float(&data)), RtVal::I(1000)],
        );
        assert_eq!(r.unwrap().as_f(), expect);
    }

    #[test]
    fn parallel_histogram_matches_sequential() {
        let keys: Vec<i64> = (0..20_000).map(|i| (i * 7919 + 13) % 256).collect();
        let mut expect = vec![0i64; 256];
        for &k in &keys {
            expect[k as usize] += 1;
        }
        let m = compile(
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "rank", &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let bins = mem.alloc_int(&vec![0; 256]);
        let k = mem.alloc_int(&keys);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        machine
            .call("rank", &[RtVal::ptr(bins), RtVal::ptr(k), RtVal::I(keys.len() as i64)])
            .unwrap();
        assert_eq!(machine.mem.ints(bins), expect.as_slice());
    }

    #[test]
    fn growable_histogram_expands() {
        let keys: Vec<i64> = vec![1, 5, 9, 9, 9, 2];
        let m = compile(
            "void rank(int* bins, int* keys, int n) { for (int i = 0; i < n; i++) bins[keys[i]]++; }",
        )
        .unwrap();
        let rs = detect_reductions(&m);
        let (pm, mut plan) = parallelize(&m, "rank", &rs).unwrap();
        plan.hists[0].growable = true;
        let mut mem = Memory::new(&pm);
        // Original histogram is big enough; private copies start at 1 and
        // grow dynamically (the paper's reallocation scheme).
        let bins = mem.alloc_int(&[0; 10]);
        let k = mem.alloc_int(&keys);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 3));
        machine
            .call("rank", &[RtVal::ptr(bins), RtVal::ptr(k), RtVal::I(keys.len() as i64)])
            .unwrap();
        assert_eq!(machine.mem.ints(bins), &[0, 1, 1, 0, 0, 1, 0, 0, 0, 3]);
    }

    #[test]
    fn mixed_ep_loop_runs_in_parallel() {
        let n = 4096usize;
        // Pseudo-random input in [0, 1).
        let xs: Vec<f64> =
            (0..2 * n).map(|i| ((i * 1103515245 + 12345) % 1000) as f64 / 1000.0).collect();
        let src = "void ep(float* x, float* q, float* sums, int nk) {
                 float sx = 0.0;
                 float sy = 0.0;
                 for (int i = 0; i < nk; i++) {
                     float x1 = 2.0 * x[2 * i] - 1.0;
                     float x2 = 2.0 * x[2 * i + 1] - 1.0;
                     float t1 = x1 * x1 + x2 * x2;
                     if (t1 <= 1.0) {
                         float t2 = sqrt(-2.0 * log(t1) / t1);
                         float t3 = x1 * t2;
                         float t4 = x2 * t2;
                         int l = fmax(fabs(t3), fabs(t4));
                         q[l] = q[l] + 1.0;
                         sx = sx + t3;
                         sy = sy + t4;
                     }
                 }
                 sums[0] = sx;
                 sums[1] = sy;
             }";
        // Sequential reference.
        let m = compile(src).unwrap();
        let mut mem = Memory::new(&m);
        let x = mem.alloc_float(&xs);
        let q = mem.alloc_float(&[0.0; 16]);
        let sums = mem.alloc_float(&[0.0; 2]);
        let mut seq = Machine::new(&m, mem);
        seq.call("ep", &[RtVal::ptr(x), RtVal::ptr(q), RtVal::ptr(sums), RtVal::I(n as i64)])
            .unwrap();
        let q_ref = seq.mem.floats(q).to_vec();
        let sums_ref = seq.mem.floats(sums).to_vec();
        // Parallel.
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "ep", &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let x = mem.alloc_float(&xs);
        let q = mem.alloc_float(&[0.0; 16]);
        let sums = mem.alloc_float(&[0.0; 2]);
        let mut par = Machine::new(&pm, mem);
        par.set_handler(handler(&pm, plan, 8));
        par.call("ep", &[RtVal::ptr(x), RtVal::ptr(q), RtVal::ptr(sums), RtVal::I(n as i64)])
            .unwrap();
        assert_eq!(par.mem.floats(q), q_ref.as_slice());
        for (a, b) in par.mem.floats(sums).iter().zip(&sums_ref) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn disjoint_written_array_is_correct() {
        let n = 5000usize;
        let keys: Vec<i64> = (0..n as i64).map(|i| (i * 31 + 7) % 64).collect();
        let src = "void f(int* member, int* keys, int* counts, int n) {
                 for (int i = 0; i < n; i++) {
                     int c = keys[i];
                     counts[c] = counts[c] + 1;
                     member[i] = c * 2;
                 }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        assert_eq!(plan.written.len(), 1);
        let mut mem = Memory::new(&pm);
        let member = mem.alloc_int(&vec![0; n]);
        let k = mem.alloc_int(&keys);
        let counts = mem.alloc_int(&vec![0; 64]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        machine
            .call("f", &[RtVal::ptr(member), RtVal::ptr(k), RtVal::ptr(counts), RtVal::I(n as i64)])
            .unwrap();
        for (i, &kv) in keys.iter().enumerate() {
            assert_eq!(machine.mem.ints(member)[i], kv * 2);
        }
        let mut expect = vec![0i64; 64];
        for &kv in &keys {
            expect[kv as usize] += 1;
        }
        assert_eq!(machine.mem.ints(counts), expect.as_slice());
    }

    #[test]
    fn parallel_prefix_sum_matches_sequential_int_exact() {
        let src = "void psum(int* a, int* out, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].kind.is_scan());
        let (pm, plan) = parallelize(&m, "psum", &rs).unwrap();
        assert_eq!(plan.scans.len(), 1);
        let data: Vec<i64> = (0..10_000).map(|i| (i * 37 % 101) - 50).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut s = 0i64;
        for &v in &data {
            s += v;
            expect.push(s);
        }
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let out = mem.alloc_int(&vec![0; data.len()]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            machine
                .call("psum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
                .unwrap();
            assert_eq!(machine.mem.ints(out), expect.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_exclusive_scan_matches_sequential() {
        let src = "void epsum(int* a, int* out, int n) {
                 int s = 5;
                 for (int i = 0; i < n; i++) { out[i] = s; s += a[i]; }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        let (pm, plan) = parallelize(&m, "epsum", &rs).unwrap();
        let data: Vec<i64> = (0..5000).map(|i| i % 13).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut s = 5i64;
        for &v in &data {
            expect.push(s);
            s += v;
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_int(&data);
        let out = mem.alloc_int(&vec![0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 4));
        machine
            .call("epsum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        assert_eq!(machine.mem.ints(out), expect.as_slice());
    }

    #[test]
    fn parallel_float_scan_within_tolerance_and_final_value_exposed() {
        // The accumulator's final value is used after the loop: the
        // rewiring must expose the replay pass's total.
        let src = "float psum(float* a, float* out, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i]; out[i] = s; }
                 return s;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "psum", &rs).unwrap();
        let data: Vec<f64> = (0..8192).map(|i| ((i * 31) % 97) as f64 * 0.125).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut s = 0.0f64;
        for &v in &data {
            s += v;
            expect.push(s);
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&data);
        let out = mem.alloc_float(&vec![0.0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        let r = machine
            .call("psum", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        let got = machine.mem.floats(out);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < 1e-6 * e.abs().max(1.0), "out[{i}]: {g} vs {e}");
        }
        let total = r.unwrap().as_f();
        assert!((total - s).abs() < 1e-6 * s.abs().max(1.0), "{total} vs {s}");
    }

    #[test]
    fn parallel_running_min_scan() {
        let src = "void runmin(float* a, float* out, int n) {
                 float m = 1.0e30;
                 for (int i = 0; i < n; i++) { m = fmin(m, a[i]); out[i] = m; }
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs[0].kind.is_scan());
        let (pm, plan) = parallelize(&m, "runmin", &rs).unwrap();
        let data: Vec<f64> = (0..4000).map(|i| ((i * 7919) % 4001) as f64 - 2000.0).collect();
        let mut expect = Vec::with_capacity(data.len());
        let mut best = f64::INFINITY.min(1.0e30);
        for &v in &data {
            best = best.min(v);
            expect.push(best);
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&data);
        let out = mem.alloc_float(&vec![0.0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 6));
        machine
            .call("runmin", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        // min is exact: no reassociation error allowed.
        assert_eq!(machine.mem.floats(out), expect.as_slice());
    }

    fn run_arg(src: &str, fname: &str, data: &[f64], threads: usize) -> i64 {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_arg()), "{rs:?}");
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        assert_eq!(plan.args.len(), 1);
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(data);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, threads));
        machine
            .call(fname, &[RtVal::ptr(a), RtVal::I(data.len() as i64)])
            .unwrap()
            .unwrap()
            .as_i()
    }

    const ARGMIN_STRICT: &str = "int amin(float* a, int n) {
             float best = 1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 if (v < best) { best = v; bi = i; }
             }
             return bi;
         }";

    const ARGMAX_NONSTRICT: &str = "int amax(float* a, int n) {
             float best = -1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 if (v >= best) { best = v; bi = i; }
             }
             return bi;
         }";

    #[test]
    fn parallel_argmin_matches_sequential() {
        let data: Vec<f64> = (0..9000).map(|i| ((i * 7919) % 10007) as f64).collect();
        let expect = data
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap())
            .unwrap()
            .0 as i64;
        for threads in crate::test_thread_counts() {
            assert_eq!(run_arg(ARGMIN_STRICT, "amin", &data, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn strict_argmin_tie_break_keeps_first() {
        // The minimum appears several times, straddling block boundaries:
        // strict `<` keeps the first occurrence.
        let mut data = vec![5.0; 6000];
        for &i in &[123usize, 1500, 3000, 4500, 5999] {
            data[i] = -7.0;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(run_arg(ARGMIN_STRICT, "amin", &data, threads), 123, "threads={threads}");
        }
    }

    #[test]
    fn non_strict_argmax_tie_break_keeps_last() {
        let mut data = vec![1.0; 6000];
        for &i in &[77usize, 2000, 4000, 5500] {
            data[i] = 9.0;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(
                run_arg(ARGMAX_NONSTRICT, "amax", &data, threads),
                5500,
                "threads={threads}"
            );
        }
    }

    const ARGMIN_SELECT: &str = "int amin(float* a, int n) {
             float best = 1.0e30;
             int bi = 0;
             for (int i = 0; i < n; i++) {
                 float v = a[i];
                 bi = v < best ? i : bi;
                 best = v < best ? v : best;
             }
             return bi;
         }";

    #[test]
    fn parallel_select_argmin_matches_sequential() {
        // The select-shaped pair exploits identically to the diamond,
        // including the strict tie-break across block boundaries.
        let mut data: Vec<f64> = (0..7000).map(|i| ((i * 7919) % 10007) as f64).collect();
        for &i in &[411usize, 3500, 6999] {
            data[i] = -3.0;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(run_arg(ARGMIN_SELECT, "amin", &data, threads), 411, "threads={threads}");
        }
    }

    #[test]
    fn argmin_with_no_winner_keeps_initial_pair() {
        // Every element exceeds the initial best: the initial (value,
        // index) pair must survive the merge untouched.
        let data = vec![1.0e31; 100];
        let src = "int amin(float* a, int n) {
                 float best = 0.5;
                 int bi = -42;
                 for (int i = 0; i < n; i++) {
                     float v = a[i];
                     if (v < best) { best = v; bi = i; }
                 }
                 return bi;
             }";
        for threads in [1usize, 3, 8] {
            assert_eq!(run_arg(src, "amin", &data, threads), -42, "threads={threads}");
        }
    }

    #[test]
    fn scan_and_scalar_in_same_loop() {
        // A scan plus an independent scalar accumulation: the replay pass
        // is the authoritative pass for the scalar partials.
        let src = "float both(float* a, float* out, int n) {
                 float s = 0.0;
                 float t = 0.0;
                 for (int i = 0; i < n; i++) {
                     s += a[i];
                     out[i] = s;
                     t += a[i] * a[i];
                 }
                 return t;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 2, "{rs:?}");
        let (pm, plan) = parallelize(&m, "both", &rs).unwrap();
        assert_eq!(plan.scans.len(), 1);
        assert_eq!(plan.accs.len(), 1);
        let data: Vec<f64> = (0..5000).map(|i| (i % 17) as f64).collect();
        let expect_t: f64 = data.iter().map(|v| v * v).sum();
        let mut expect_out = Vec::new();
        let mut s = 0.0;
        for &v in &data {
            s += v;
            expect_out.push(s);
        }
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&data);
        let out = mem.alloc_float(&vec![0.0; data.len()]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 8));
        let r = machine
            .call("both", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(data.len() as i64)])
            .unwrap();
        let t = r.unwrap().as_f();
        assert!((t - expect_t).abs() < 1e-6 * expect_t.max(1.0), "{t} vs {expect_t}");
        for (i, (g, e)) in machine.mem.floats(out).iter().zip(&expect_out).enumerate() {
            assert!((g - e).abs() < 1e-6 * e.abs().max(1.0), "out[{i}]: {g} vs {e}");
        }
    }

    const FIND_FIRST: &str = "int find(int* a, int x, int n) {
             int r = n;
             for (int i = 0; i < n; i++) {
                 if (a[i] == x) { r = i; break; }
             }
             return r;
         }";

    fn run_search_int(src: &str, fname: &str, data: &[i64], x: i64, threads: usize) -> i64 {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_search()), "{rs:?}");
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        assert!(plan.search.is_some());
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_int(data);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, threads));
        machine
            .call(fname, &[RtVal::ptr(a), RtVal::I(x), RtVal::I(data.len() as i64)])
            .unwrap()
            .unwrap()
            .as_i()
    }

    #[test]
    fn parallel_find_first_matches_sequential() {
        let n = 9000usize;
        let data: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 10007).collect();
        let x = data[2 * n / 3];
        let expect = data.iter().position(|&v| v == x).unwrap() as i64;
        for threads in crate::test_thread_counts() {
            assert_eq!(
                run_search_int(FIND_FIRST, "find", &data, x, threads),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_find_first_takes_lowest_indexed_hit() {
        // The needle occurs many times, straddling chunk boundaries: the
        // merge must commit the lowest-indexed hit even when later chunks
        // finish (and offer) first.
        let mut data = vec![0i64; 8000];
        for &i in &[137usize, 1500, 3000, 4500, 6000, 7999] {
            data[i] = 42;
        }
        for threads in crate::test_thread_counts() {
            assert_eq!(
                run_search_int(FIND_FIRST, "find", &data, 42, threads),
                137,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_find_first_not_found_keeps_default() {
        let data = vec![1i64; 5000];
        for threads in [1usize, 3, 8] {
            assert_eq!(
                run_search_int(FIND_FIRST, "find", &data, 7, threads),
                5000,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_any_of_and_flag_pair() {
        // Two exit phis (index + flag) exploited together.
        let src = "int find(int* a, int x, int* flag, int n) {
                 int r = n;
                 int found = 0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == x) { r = i; found = 1; break; }
                 }
                 flag[0] = found;
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 2, "{rs:?}");
        let (pm, plan) = parallelize(&m, "find", &rs).unwrap();
        assert_eq!(plan.search.as_ref().unwrap().exits.len(), 2);
        let mut data = vec![0i64; 6000];
        data[4321] = 9;
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let flag = mem.alloc_int(&[-1]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("find", &[RtVal::ptr(a), RtVal::I(9), RtVal::ptr(flag), RtVal::I(6000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 4321, "threads={threads}");
            assert_eq!(machine.mem.ints(flag), &[1], "threads={threads}");
        }
    }

    #[test]
    fn parallel_all_of_short_circuit() {
        let src = "int all_below(float* a, float limit, int n) {
                 int ok = 1;
                 for (int i = 0; i < n; i++) {
                     if (a[i] >= limit) { ok = 0; break; }
                 }
                 return ok;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        let (pm, plan) = parallelize(&m, "all_below", &rs).unwrap();
        for (data, expect) in [
            (vec![1.0f64; 4000], 1i64), // all below
            (
                {
                    let mut d = vec![1.0f64; 4000];
                    d[3999] = 7.0;
                    d
                },
                0,
            ), // violation at the end
        ] {
            for threads in crate::test_thread_counts() {
                let mut mem = Memory::new(&pm);
                let a = mem.alloc_float(&data);
                let mut machine = Machine::new(&pm, mem);
                machine.set_handler(handler(&pm, plan.clone(), threads));
                let r = machine
                    .call("all_below", &[RtVal::ptr(a), RtVal::F(5.0), RtVal::I(4000)])
                    .unwrap()
                    .unwrap()
                    .as_i();
                assert_eq!(r, expect, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_find_min_index_sentinel_search() {
        let src = "int below(float* a, float bound, int n) {
                 int r = -1;
                 for (int i = 0; i < n; i++) {
                     if (a[i] < bound) { r = i; break; }
                 }
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].kind, gr_core::ReductionKind::FindMinIndex);
        let (pm, plan) = parallelize(&m, "below", &rs).unwrap();
        let mut data: Vec<f64> = (0..7000).map(|i| 10.0 + (i % 17) as f64).collect();
        data[5555] = -3.0;
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("below", &[RtVal::ptr(a), RtVal::F(0.0), RtVal::I(7000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 5555, "threads={threads}");
        }
    }

    #[test]
    fn parallel_search_downward_loop() {
        // Downward iteration: "first" means first in iteration order, not
        // lowest array index.
        let src = "int findr(int* a, int x, int n) {
                 int r = -1;
                 for (int i = n - 1; i >= 0; i = i + -1) {
                     if (a[i] == x) { r = i; break; }
                 }
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_search()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "findr", &rs).unwrap();
        let mut data = vec![0i64; 5000];
        data[100] = 6;
        data[4000] = 6; // iteration order visits 4999..0: 4000 comes first
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("findr", &[RtVal::ptr(a), RtVal::I(6), RtVal::I(5000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 4000, "threads={threads}");
        }
    }

    #[test]
    fn single_thread_execution_works() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (_, _, _, r) = run_parallel(
            "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            1,
            |mem| vec![RtVal::ptr(mem.alloc_float(&data)), RtVal::I(100)],
        );
        assert_eq!(r.unwrap().as_f(), 4950.0);
    }

    #[test]
    fn empty_iteration_space_is_fine() {
        let (_, _, _, r) = run_parallel(
            "float sum(float* a, int n) { float s = 1.5; for (int i = 0; i < n; i++) s += a[i]; return s; }",
            "sum",
            4,
            |mem| vec![RtVal::ptr(mem.alloc_float(&[])), RtVal::I(0)],
        );
        assert_eq!(r.unwrap().as_f(), 1.5);
    }

    // ---- the speculative-fold schedule --------------------------------

    const SUM_UNTIL_INT: &str = "int sum_until(int* a, int stop, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) {
                 if (a[i] == stop) break;
                 s = s + a[i];
             }
             return s;
         }";

    fn fold_plan(src: &str, fname: &str) -> (Module, ReductionPlan) {
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fold_until()), "{rs:?}");
        let (pm, plan) = parallelize(&m, fname, &rs).unwrap();
        assert!(!plan.search.as_ref().unwrap().folds.is_empty());
        (pm, plan)
    }

    fn run_fold_int(
        pm: &Module,
        plan: &ReductionPlan,
        data: &[i64],
        stop: i64,
        threads: usize,
    ) -> i64 {
        let mut mem = Memory::new(pm);
        let a = mem.alloc_int(data);
        let mut machine = Machine::new(pm, mem);
        machine.set_handler(handler(pm, plan.clone(), threads));
        machine
            .call(&plan.function, &[RtVal::ptr(a), RtVal::I(stop), RtVal::I(data.len() as i64)])
            .unwrap()
            .unwrap()
            .as_i()
    }

    #[test]
    fn parallel_sum_until_sentinel_matches_sequential() {
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let mut data: Vec<i64> = (0..40_000).map(|i| (i * 31 + 7) % 97 + 1).collect();
        data[29_000] = -5; // the sentinel, deep in the speculative tail
        let expect: i64 = data[..29_000].iter().sum();
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -5, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sum_until_first_sentinel_wins() {
        // Several sentinels straddling chunk boundaries: the merge must
        // replay partials only up to the lowest-indexed hit, even when a
        // later chunk finds (and offers) its hit first.
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let mut data: Vec<i64> = vec![3; 32_000];
        for &i in &[1_111usize, 8_000, 16_000, 24_000, 31_999] {
            data[i] = -1;
        }
        let expect: i64 = 3 * 1_111;
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -1, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sum_until_no_hit_folds_everything() {
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let data: Vec<i64> = (0..20_000).map(|i| i % 13).collect();
        let expect: i64 = data.iter().sum();
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -7, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_fold_until_empty_space_keeps_init() {
        let (pm, plan) = fold_plan(
            "int f(int* a, int stop, int n) {
                 int s = 42;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s = s + a[i];
                 }
                 return s;
             }",
            "f",
        );
        for threads in [1usize, 4] {
            assert_eq!(run_fold_int(&pm, &plan, &[], 0, threads), 42, "threads={threads}");
        }
    }

    #[test]
    fn parallel_post_update_fold_includes_hit_element() {
        // `s += a[i]; if (a[i] == stop) break;` — the sentinel element is
        // folded in before the break.
        let (pm, plan) = fold_plan(
            "int through(int* a, int stop, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) {
                     s = s + a[i];
                     if (a[i] == stop) break;
                 }
                 return s;
             }",
            "through",
        );
        let mut data: Vec<i64> = vec![2; 24_000];
        data[17_002] = 1000;
        let expect: i64 = 2 * 17_002 + 1000;
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, 1000, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_float_sum_until_within_tolerance() {
        let (pm, plan) = fold_plan(
            "float fsum_until(float* a, float stop, int n) {
                 float s = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[i] == stop) break;
                     s += a[i];
                 }
                 return s;
             }",
            "fsum_until",
        );
        let mut data: Vec<f64> =
            (0..30_000).map(|i| ((i * 131) % 997) as f64 * 0.125 + 0.25).collect();
        data[23_456] = -1.0;
        let expect: f64 = data[..23_456].iter().sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("fsum_until", &[RtVal::ptr(a), RtVal::F(-1.0), RtVal::I(data.len() as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "threads={threads}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn parallel_fold_until_downward_loop() {
        // Scanning from the high end: the fold covers the suffix above
        // the first sentinel met in (downward) iteration order.
        let (pm, plan) = fold_plan(
            "int dsum(int* a, int stop, int n) {
                 int s = 0;
                 for (int i = n - 1; i >= 0; i = i + -1) {
                     if (a[i] == stop) break;
                     s = s + a[i];
                 }
                 return s;
             }",
            "dsum",
        );
        let mut data: Vec<i64> = vec![5; 16_000];
        data[300] = -1;
        data[9_000] = -1; // met first when iterating downward from 15999
        let expect: i64 = 5 * (15_999 - 9_000);
        for threads in crate::test_thread_counts() {
            assert_eq!(run_fold_int(&pm, &plan, &data, -1, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_min_until_is_bit_exact() {
        let (pm, plan) = fold_plan(
            "float min_until(float* a, float bound, int n) {
                 float m = 1.0e30;
                 for (int i = 0; i < n; i++) {
                     if (a[i] > bound) break;
                     m = fmin(m, a[i]);
                 }
                 return m;
             }",
            "min_until",
        );
        let mut data: Vec<f64> = (0..20_000).map(|i| ((i * 7919) % 4001) as f64 - 2000.0).collect();
        data[15_000] = 1.0e9; // exceeds the bound: the loop stops here
        let expect = data[..15_000].iter().cloned().fold(f64::INFINITY, f64::min).min(1.0e30);
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("min_until", &[RtVal::ptr(a), RtVal::F(1.0e6), RtVal::I(data.len() as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_fold_and_find_first_share_one_loop() {
        // The combined template: hit index (search exit phi) and carried
        // sum (fold cell) committed consistently from one schedule.
        let src = "int f(int* a, int* out, int x, int n) {
                 int r = n;
                 int s = 0;
                 for (int i = 0; i < n; i++) {
                     s = s + a[i];
                     if (a[i] == x) { r = i; break; }
                 }
                 out[0] = s;
                 return r;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert_eq!(rs.len(), 2, "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        let search = plan.search.as_ref().unwrap();
        assert_eq!(search.exits.len(), 1);
        assert_eq!(search.folds.len(), 1);
        let mut data: Vec<i64> = (0..18_000).map(|i| (i % 100) + 1).collect();
        data[12_345] = -9;
        let expect_r = 12_345i64;
        let expect_s: i64 = data[..=12_345].iter().sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let out = mem.alloc_int(&[0]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call(
                    "f",
                    &[RtVal::ptr(a), RtVal::ptr(out), RtVal::I(-9), RtVal::I(data.len() as i64)],
                )
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, expect_r, "threads={threads}");
            assert_eq!(machine.mem.ints(out), &[expect_s], "threads={threads}");
        }
    }

    #[test]
    fn parallel_two_folds_in_one_loop() {
        let (pm, plan) = fold_plan(
            "void two(float* a, float* out, float stop, int n) {
                 float sx = 0.0;
                 float sy = 0.0;
                 for (int i = 0; i < n; i++) {
                     if (a[2 * i] == stop) break;
                     sx += a[2 * i];
                     sy += a[2 * i + 1];
                 }
                 out[0] = sx;
                 out[1] = sy;
             }",
            "two",
        );
        assert_eq!(plan.search.as_ref().unwrap().folds.len(), 2);
        let n = 8_000usize;
        let mut data: Vec<f64> = (0..2 * n).map(|i| ((i * 37) % 19) as f64 + 1.0).collect();
        data[2 * 6_500] = -3.0;
        let expect_x: f64 = (0..6_500).map(|i| data[2 * i]).sum();
        let expect_y: f64 = (0..6_500).map(|i| data[2 * i + 1]).sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let out = mem.alloc_float(&[0.0, 0.0]);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            machine
                .call("two", &[RtVal::ptr(a), RtVal::ptr(out), RtVal::F(-3.0), RtVal::I(n as i64)])
                .unwrap();
            let got = machine.mem.floats(out);
            assert!((got[0] - expect_x).abs() < 1e-6 * expect_x.max(1.0), "threads={threads}");
            assert!((got[1] - expect_y).abs() < 1e-6 * expect_y.max(1.0), "threads={threads}");
        }
    }

    // ---- map-reduce fusion --------------------------------------------

    const FUSED_SQ: &str = "float sq(float* a, int n) {
             float tmp[8192];
             for (int i = 0; i < n; i++) tmp[i] = a[i] * a[i];
             float s = 0.0;
             for (int j = 0; j < n; j++) s += tmp[j];
             return s;
         }";

    #[test]
    fn parallel_fused_map_reduce_matches_sequential_float() {
        let m = compile(FUSED_SQ).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "sq", &rs).unwrap();
        let n = 8_000usize;
        let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 * 0.125 - 3.0).collect();
        // Sequential reference from the *unmodified* module.
        let mut mem = Memory::new(&m);
        let a = mem.alloc_float(&data);
        let mut seq = Machine::new(&m, mem);
        let expect = seq.call("sq", &[RtVal::ptr(a), RtVal::I(n as i64)]).unwrap().unwrap().as_f();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("sq", &[RtVal::ptr(a), RtVal::I(n as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "threads={threads}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn parallel_fused_map_reduce_int_bit_exact() {
        let src = "int f(int* a, int n) {
                 int tmp[8192];
                 for (int i = 0; i < n; i++) tmp[i] = a[i] * 3 + 1;
                 int s = 0;
                 for (int j = 0; j < n; j++) s += tmp[j];
                 return s;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        let n = 6_000usize;
        let data: Vec<i64> = (0..n as i64).map(|i| (i * 31 + 5) % 97 - 48).collect();
        let expect: i64 = data.iter().map(|v| v * 3 + 1).sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got =
                machine.call("f", &[RtVal::ptr(a), RtVal::I(n as i64)]).unwrap().unwrap().as_i();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_fused_min_reduce_is_bit_exact() {
        // A non-Add merge through the fused template.
        let src = "float f(float* a, float x, int n) {
                 float tmp[4096];
                 for (int i = 0; i < n; i++) tmp[i] = fabs(a[i] - x);
                 float best = 1.0e30;
                 for (int j = 0; j < n; j++) best = fmin(best, tmp[j]);
                 return best;
             }";
        let m = compile(src).unwrap();
        let rs = detect_reductions(&m);
        assert!(rs.iter().any(|r| r.kind.is_fusion()), "{rs:?}");
        let (pm, plan) = parallelize(&m, "f", &rs).unwrap();
        assert_eq!(plan.accs[0].op, ReductionOp::Min);
        let n = 4_000usize;
        let data: Vec<f64> = (0..n).map(|i| ((i * 7919) % 4001) as f64 - 2000.0).collect();
        let expect =
            data.iter().map(|v| (v - 1.25).abs()).fold(f64::INFINITY, f64::min).min(1.0e30);
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_float(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("f", &[RtVal::ptr(a), RtVal::F(1.25), RtVal::I(n as i64)])
                .unwrap()
                .unwrap()
                .as_f();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn fused_empty_iteration_space_keeps_init() {
        let m = compile(FUSED_SQ).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "sq", &rs).unwrap();
        let mut mem = Memory::new(&pm);
        let a = mem.alloc_float(&[]);
        let mut machine = Machine::new(&pm, mem);
        machine.set_handler(handler(&pm, plan, 4));
        let got = machine.call("sq", &[RtVal::ptr(a), RtVal::I(0)]).unwrap().unwrap().as_f();
        assert_eq!(got, 0.0);
    }

    // ---- bounds-aware speculation -------------------------------------

    #[test]
    fn speculative_trap_past_hit_is_discarded() {
        // The array ends right after the sentinel; the loop bound claims
        // far more. Sequential execution breaks at the sentinel and never
        // reads past it — speculative chunks do, trap, and must be
        // discarded (they all lie past the winning hit), not propagated.
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let h = 1_000usize;
        let mut data: Vec<i64> = (0..=h as i64).map(|i| i % 7 + 1).collect();
        data[h] = -2; // sentinel at the last valid index
        let expect: i64 = data[..h].iter().sum();
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let got = machine
                .call("sum_until", &[RtVal::ptr(a), RtVal::I(-2), RtVal::I(8_000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn search_trap_past_hit_is_discarded() {
        // The same guarantee for a pure search: find-first over an array
        // shorter than the declared bound, hit inside the valid range.
        let m = compile(FIND_FIRST).unwrap();
        let rs = detect_reductions(&m);
        let (pm, plan) = parallelize(&m, "find", &rs).unwrap();
        let mut data = vec![0i64; 700];
        data[650] = 9;
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let r = machine
                .call("find", &[RtVal::ptr(a), RtVal::I(9), RtVal::I(50_000)])
                .unwrap()
                .unwrap()
                .as_i();
            assert_eq!(r, 650, "threads={threads}");
        }
    }

    #[test]
    fn trap_with_no_hit_reproduces_sequential_trap() {
        // No sentinel inside the valid range: sequential execution runs
        // off the end and traps — the fallback must reproduce *that* trap
        // (same index, same bounds) rather than return a made-up partial
        // fold. The partial restart changes where re-execution begins, not
        // what it observes.
        let src_module = compile(SUM_UNTIL_INT).unwrap();
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let data = vec![1i64; 500];
        // Sequential reference trap.
        let mut mem = Memory::new(&src_module);
        let a = mem.alloc_int(&data);
        let mut seq = Machine::new(&src_module, mem);
        let seq_err = seq
            .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(2_000)])
            .expect_err("sequential execution must trap");
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let err = machine
                .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(2_000)])
                .expect_err("the out-of-bounds read is real, not speculative");
            // Same faulting access as the sequential run.
            match (&seq_err, &err) {
                (
                    Trap::Mem(gr_interp::memory::MemError::OutOfBounds {
                        index: i1, len: l1, ..
                    }),
                    Trap::Mem(gr_interp::memory::MemError::OutOfBounds {
                        index: i2, len: l2, ..
                    }),
                ) => {
                    assert_eq!((i1, l1), (i2, l2), "threads={threads}");
                }
                other => panic!("expected matching OOB traps, got {other:?}"),
            }
        }
    }

    #[test]
    fn completed_prefix_stops_at_gap_hit_and_trap() {
        let out = |chunk: usize, hit: i64| (chunk, vec![Obj::I(vec![hit])]);
        // Clean prefix below the trapped chunk.
        let outs = vec![out(0, SEARCH_NO_HIT), out(1, SEARCH_NO_HIT), out(3, SEARCH_NO_HIT)];
        assert_eq!(completed_prefix(&outs, 2), 2, "stops at the trapped chunk");
        assert_eq!(completed_prefix(&outs, i64::MAX), 2, "stops at the gap");
        // A hit terminates the prefix (the tail re-run must re-find it).
        let outs = vec![out(0, SEARCH_NO_HIT), out(1, 77)];
        assert_eq!(completed_prefix(&outs, i64::MAX), 1);
        // Chunk 0 trapped: nothing is committed.
        let outs = vec![out(1, SEARCH_NO_HIT)];
        assert_eq!(completed_prefix(&outs, 0), 0);
        assert_eq!(completed_prefix(&[], 0), 0);
    }

    #[test]
    fn partial_restart_matches_sequential_result_and_trap_deep_in_range() {
        // The array covers most of the claimed range, so many chunks
        // complete before the trapping one: the fallback commits their
        // partials and restarts from the boundary — and must still end in
        // exactly the sequential trap (the fold result is unobservable
        // after a trap, the trap identity is the contract).
        let src_module = compile(SUM_UNTIL_INT).unwrap();
        let (pm, plan) = fold_plan(SUM_UNTIL_INT, "sum_until");
        let data: Vec<i64> = (0..30_000).map(|i| i % 11 + 1).collect();
        let claimed = 32_000i64; // 2k iterations past the end, no sentinel
        let mut mem = Memory::new(&src_module);
        let a = mem.alloc_int(&data);
        let mut seq = Machine::new(&src_module, mem);
        let seq_err = seq
            .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(claimed)])
            .expect_err("sequential trap");
        for threads in crate::test_thread_counts() {
            let mut mem = Memory::new(&pm);
            let a = mem.alloc_int(&data);
            let mut machine = Machine::new(&pm, mem);
            machine.set_handler(handler(&pm, plan.clone(), threads));
            let err = machine
                .call("sum_until", &[RtVal::ptr(a), RtVal::I(-1), RtVal::I(claimed)])
                .expect_err("parallel trap");
            assert_eq!(err.to_string(), seq_err.to_string(), "threads={threads}");
        }
    }
}
