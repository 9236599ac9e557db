//! Stepwise detection for the traced run: one layer at a time.
//!
//! It drives detection through public pieces of `gr-core`, in the order
//! `IdiomRegistry::detect_in_function_report` uses, so that a span can sit
//! around each layer: analyses, match context, prefix solve, extension
//! search and post-check. The traced run compares its reports byte for
//! byte with `detect_reductions` and with `DetectionServer::run_batch`, so
//! the layer numbers always describe the real path.

use crate::spans::Recorder;
use gr_analysis::Analyses;
use gr_core::atoms::MatchCtx;
use gr_core::detect::{solve_with_cache, PrefixCache};
use gr_core::solver::SolveOptions;
use gr_core::{DetectBudget, DetectionReport, DetectionStatus, GrError, IdiomRegistry, Reduction};
use gr_ir::{Function, Module, ValueId};
use std::collections::HashSet;

/// Work stepwise detection did, counted beside the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Prefix solves made while a `gr-trace` session was recording.
    pub session_prefix_solves: u64,
    /// Distinct solutions handed to a post-check.
    pub postchecked: u64,
    /// Reports kept after post-check, classification and finalize.
    pub kept: u64,
}

/// Builds the default registry inside a `core.registry` span.
pub fn build_registry(rec: &mut Recorder) -> IdiomRegistry {
    rec.time("core.registry", None, IdiomRegistry::with_default_idioms)
}

/// Detects one module the way `detect_reductions` does: one registry for
/// the module, one prefix cache per function.
pub fn detect_module(rec: &mut Recorder, module: &Module, work: &mut Work) -> Vec<Reduction> {
    let registry = build_registry(rec);
    module
        .functions
        .iter()
        .flat_map(|f| detect_function(rec, &registry, module, f, work).reductions)
        .collect()
}

/// Detects one function under the unlimited budget, mirroring
/// `IdiomRegistry::detect_in_function_report`.
pub fn detect_function(
    rec: &mut Recorder,
    registry: &IdiomRegistry,
    module: &Module,
    func: &Function,
    work: &mut Work,
) -> DetectionReport {
    let budget = DetectBudget::UNLIMITED;
    let analyses = rec.time("analysis.analyses", None, || Analyses::new(module, func));
    let ctx = rec.time("core.matchctx", None, || MatchCtx::new(module, func, &analyses));
    let mut cache = PrefixCache::new();
    let mut solved_prefixes: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    let mut steps_used: usize = 0;
    let mut truncated_idioms: Vec<&'static str> = Vec::new();
    for entry in registry.entries() {
        let defaults = SolveOptions { policy: registry.policy(), ..SolveOptions::default() };
        let remaining = budget.per_function_steps.saturating_sub(steps_used);
        let opts = SolveOptions {
            max_steps: defaults.max_steps.min(budget.per_call_steps).min(remaining),
            ..defaults
        };
        // The first entry on a prefix pays its solve; solving it through
        // `lookup` first puts that cost in its own span. The extension
        // below then finds the prefix cached, as every later entry does.
        if let Some(p) = &entry.spec.prefix {
            if !solved_prefixes.contains(&p.fingerprint) {
                solved_prefixes.push(p.fingerprint);
                let solved = rec.time("core.prefix", Some(entry.name), || {
                    cache.lookup(&entry.spec, &ctx, opts)
                });
                if let Some((prefix, true)) = solved {
                    steps_used += prefix.stats.steps;
                    work.session_prefix_solves += u64::from(gr_trace::enabled());
                }
            }
        }
        let (sols, stats, _) = rec.time("core.extend", Some(entry.name), || {
            solve_with_cache(&entry.spec, &ctx, Some(&mut cache), opts)
        });
        steps_used += stats.steps;
        if stats.truncated {
            truncated_idioms.push(entry.name);
            GrError::SolverBudget {
                function: func.name.clone(),
                idiom: entry.name.to_string(),
                budget: budget.per_function_steps.min(budget.per_call_steps),
                steps_used,
            }
            .emit();
        }
        let found = rec.time("core.postcheck", Some(entry.name), || {
            let mut seen: HashSet<(ValueId, ValueId)> = HashSet::new();
            let mut found = Vec::new();
            for s in sols {
                if !seen.insert((entry.anchor)(&entry.spec, &s)) {
                    continue;
                }
                work.postchecked += 1;
                let Some(op) = (entry.post_check)(&ctx, &entry.spec, &s) else { continue };
                if let Some(r) = (entry.classify)(&ctx, &entry.spec, &s, op) {
                    found.push(r);
                }
            }
            (entry.finalize)(&ctx, found)
        });
        work.kept += found.len() as u64;
        out.extend(found);
    }
    let status = if truncated_idioms.is_empty() {
        DetectionStatus::Complete
    } else {
        DetectionStatus::Degraded { budget: budget.per_function_steps, steps_used }
    };
    DetectionReport {
        function: func.name.clone(),
        reductions: out,
        status,
        steps_used,
        truncated_idioms,
    }
}

/// Byte form used by the equivalence checks.
pub fn render<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}
