//! Integration guards on the detection service (`gr-server`): batch
//! output must be byte-identical to the sequential reference driver on
//! every worker count (`GR_THREADS` honored), the persistent cache must
//! serve unchanged functions for **zero solver steps** across the whole
//! synthetic corpus (`GR_CORPUS_FUNCS` scales the sweep), and a
//! corrupted cache file must degrade to a clean re-solve — a `GR006`
//! ledger entry, never wrong results.

use gr_benchsuite::fuzz::{corpus_functions_from_env, synthetic_corpus, CORPUS_SEED};
use gr_core::DetectBudget;
use gr_ir::Module;
use gr_server::{detect_sequential, CacheOutcome, DetectionServer, ServeConfig};

fn corpus_modules(functions: usize) -> Vec<Module> {
    synthetic_corpus(CORPUS_SEED, functions)
        .iter()
        .map(|c| {
            gr_frontend::compile(&c.src)
                .unwrap_or_else(|e| panic!("corpus [{}] fails to compile: {e}", c.name))
        })
        .collect()
}

/// Renders a batch's reports in the same shape as the sequential driver's
/// output, for byte-level comparison.
fn batch_reports(batch: &gr_server::BatchResult) -> String {
    batch.results.iter().map(|r| format!("{:?}\n", r.report)).collect()
}

#[test]
fn prop_batch_is_byte_identical_to_sequential_on_every_worker_count() {
    let modules = corpus_modules(160);
    let seq: String = detect_sequential(&modules, DetectBudget::UNLIMITED)
        .iter()
        .map(|r| format!("{r:?}\n"))
        .collect();
    for jobs in gr_parallel::test_thread_counts() {
        let mut server = DetectionServer::new(ServeConfig { jobs, ..ServeConfig::default() });
        let cold = server.run_batch(&modules);
        assert_eq!(
            batch_reports(&cold),
            seq,
            "cold batch diverged from the sequential driver at jobs={jobs}"
        );
        // The warm path must reproduce the same reductions, still in
        // submission order, with zero steps.
        let warm = server.run_batch(&modules);
        assert_eq!(warm.summary.solver_steps, 0, "jobs={jobs}");
        for (w, c) in warm.results.iter().zip(&cold.results) {
            assert_eq!(
                format!("{:?}", w.report.reductions),
                format!("{:?}", c.report.reductions),
                "warm reductions diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn traced_batch_records_the_same_solver_ledger_as_the_sequential_driver() {
    // The pool's workers join the caller's trace session, so a traced
    // batch counts every cold solve, whichever worker ran it.
    let modules = corpus_modules(40);
    let ledger = |trace: gr_trace::Trace| -> Vec<(String, i64)> {
        trace
            .counters
            .into_iter()
            .filter(|(k, _)| k == "solver.steps" || k.starts_with("detect.reports{"))
            .collect()
    };
    let guard = gr_trace::start();
    let _ = detect_sequential(&modules, DetectBudget::UNLIMITED);
    let seq = ledger(guard.finish());
    let guard = gr_trace::start();
    let batch =
        DetectionServer::new(ServeConfig { jobs: 2, ..ServeConfig::default() }).run_batch(&modules);
    let par = ledger(guard.finish());
    assert_eq!(batch.summary.cold_solves, batch.summary.functions);
    assert!(seq.iter().any(|(k, v)| k == "solver.steps" && *v > 0), "{seq:?}");
    assert!(seq.iter().any(|(k, v)| k.starts_with("detect.reports{") && *v > 0), "{seq:?}");
    assert_eq!(par, seq);
}

#[test]
fn prop_degraded_batches_stay_deterministic_across_worker_counts() {
    // A starvation budget degrades some solves — under the trie search
    // most corpus functions solve by forced moves alone, so only the
    // genuinely branching ones exceed a one-step budget; the reports
    // (including the GR-coded degraded status and step counts) must
    // still be byte-identical to the sequential driver on every worker
    // count.
    let modules = corpus_modules(48);
    let budget = DetectBudget::steps(1);
    let seq: String =
        detect_sequential(&modules, budget).iter().map(|r| format!("{r:?}\n")).collect();
    for jobs in gr_parallel::test_thread_counts() {
        let mut server =
            DetectionServer::new(ServeConfig { jobs, budget, ..ServeConfig::default() });
        let batch = server.run_batch(&modules);
        assert_eq!(batch_reports(&batch), seq, "degraded batch diverged at jobs={jobs}");
        assert!(batch.summary.degraded > 0, "the starvation budget must degrade something");
    }
}

/// The acceptance pin: a warm-cache batch over the full synthetic corpus
/// (10 000 functions unless `GR_CORPUS_FUNCS` scales it) spends **zero**
/// solver steps on unchanged functions — every function is served from
/// the fingerprint cache.
#[test]
fn prop_warm_corpus_batch_spends_zero_solver_steps() {
    let functions = corpus_functions_from_env();
    let modules = corpus_modules(functions);
    let mut server = DetectionServer::new(ServeConfig::default());
    let cold = server.run_batch(&modules);
    assert_eq!(cold.summary.functions, functions);
    assert!(cold.summary.solver_steps > 0);

    let warm = server.run_batch(&modules);
    assert_eq!(warm.summary.functions, functions);
    assert_eq!(
        warm.summary.solver_steps, 0,
        "unchanged functions must cost zero solver steps on a warm cache"
    );
    assert_eq!(warm.summary.warm_hits, functions, "every unchanged function must hit");
    assert!(warm.results.iter().all(|r| r.outcome == CacheOutcome::Warm));
    for (w, c) in warm.results.iter().zip(&cold.results) {
        assert_eq!(
            format!("{:?}", w.report.reductions),
            format!("{:?}", c.report.reductions),
            "warm report diverged for {}",
            c.report.function
        );
    }
}

#[test]
fn prop_cache_round_trips_cold_warm_and_poisoned() {
    let dir = std::env::temp_dir().join(format!("gr-serving-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("gr-cache.json");
    let modules = corpus_modules(64);
    let seq: String = detect_sequential(&modules, DetectBudget::UNLIMITED)
        .iter()
        .map(|r| format!("{:?}\n", r.reductions))
        .collect();
    let reductions = |b: &gr_server::BatchResult| -> String {
        b.results.iter().map(|r| format!("{:?}\n", r.report.reductions)).collect()
    };
    let config = || ServeConfig { cache_path: Some(path.clone()), ..ServeConfig::default() };

    // Cold: fresh server, empty disk.
    let mut server = DetectionServer::new(config());
    assert!(server.ledger().is_empty(), "{:?}", server.ledger());
    let cold = server.run_batch(&modules);
    assert_eq!(cold.summary.warm_hits, 0);
    assert_eq!(reductions(&cold), seq);
    server.persist().expect("cache persists");
    let rendered = std::fs::read_to_string(&path).expect("cache file written");
    assert!(rendered.starts_with("{\n  \"schema\": \"gr-cache/v1\","), "{rendered}");

    // Warm: a *new* server process reloads the artifact and serves every
    // unchanged function for free.
    let mut server = DetectionServer::new(config());
    assert!(server.ledger().is_empty());
    let warm = server.run_batch(&modules);
    assert_eq!(warm.summary.solver_steps, 0, "cross-run warm batch must be free");
    assert_eq!(reductions(&warm), seq);
    // Re-persisting an untouched-but-rehit cache is byte-deterministic.
    server.persist().expect("cache persists again");

    // Poisoned: corrupt the artifact; the server degrades to an empty
    // cache with a GR006 ledger entry and re-solves correctly.
    std::fs::write(&path, "{\"schema\": \"gr-cache/v1\", \"entries\": [{broken").unwrap();
    let mut server = DetectionServer::new(config());
    let ledger = server.ledger();
    assert_eq!(ledger.len(), 1, "{ledger:?}");
    assert_eq!(ledger[0].code(), "GR006");
    assert!(ledger[0].to_string().contains("persistent cache discarded"), "{}", ledger[0]);
    let recovered = server.run_batch(&modules);
    assert_eq!(recovered.summary.warm_hits, 0, "a poisoned cache must not serve hits");
    assert_eq!(reductions(&recovered), seq, "recovery must re-solve to the same reports");

    let _ = std::fs::remove_dir_all(&dir);
}
