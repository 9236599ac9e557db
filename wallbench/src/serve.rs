//! `serve-corpus`: requests against one `DetectionServer` that keeps an
//! on-disk `gr-cache/v1` file. A request compiles its sources, runs one
//! batch and persists the cache, as `greduce serve` does per request. Each
//! request mixes functions the server has never seen with functions it
//! served before.
//!
//! The server runs with the default capacity of `greduce serve` and a
//! cache of about [`CACHE_ENTRIES`] entries. Persisting writes the whole
//! artifact, so its cost grows with the cache; to keep the cache at that
//! size however many requests a run gets through, the server is restarted
//! from the artifact written at set-up every [`RESTART_EVERY`] requests,
//! between two requests and outside their timing.

use crate::spans::{Phase, Recorder};
use crate::stepwise::{self, Work};
use crate::{shuffle, Tally, TempDir, Workload};
use gr_benchsuite::fuzz::{synthetic_corpus, FuzzCase};
use gr_benchsuite::rng::StdRng;
use gr_core::ReductionKind;
use gr_ir::Module;
use gr_server::{CacheOutcome, DetectionServer, ServeConfig};
use std::path::PathBuf;
use std::time::Instant;

/// Functions per request.
const REQUEST_FUNCTIONS: usize = 10;
/// Functions per request the server has not seen before.
const NEW_PER_REQUEST: usize = 3;
/// Detection workers in the server's pool.
const JOBS: usize = 2;
/// Entries the cache holds after set-up: the size of a cache observed on
/// a server fed this request mix, where persisting it took about 37 % of
/// a request.
const CACHE_ENTRIES: usize = 900;
/// Requests between two restarts; the cache grows by at most
/// `RESTART_EVERY * NEW_PER_REQUEST` entries in between.
const RESTART_EVERY: usize = 10;
/// Corpus size. Set-up caches the first functions; new functions cycle
/// through the rest. A restart forgets the new functions of the requests
/// before it, and a cycle is much longer than the requests between two
/// restarts, so a new function is never cached when it is submitted.
const CORPUS: usize = 2048;

/// The idiom each corpus family is drawn to exhibit.
fn family_kind(case: &FuzzCase) -> Option<ReductionKind> {
    let family = case.name.split('/').nth(1)?;
    Some(match family {
        "fold-sum" | "fold-guarded" => ReductionKind::Scalar,
        "histogram" => ReductionKind::Histogram,
        "scan" => ReductionKind::Scan,
        "argmin" => ReductionKind::ArgMin,
        "find-first" => ReductionKind::FindFirst,
        "fold-until" => ReductionKind::FoldUntil,
        "fusion" => ReductionKind::MapReduceFusion,
        _ => return None,
    })
}

/// Cold functions of one traced request, kept until the `gr-trace`
/// session has closed so that re-detecting them does not add to its
/// counters.
struct Pending {
    request: u64,
    modules: Vec<Module>,
    /// The server's fingerprint of each module's function.
    fingerprints: Vec<u64>,
    /// `(module index, run_batch report in byte form)` per cold function.
    cold: Vec<(usize, String)>,
}

pub struct ServeCorpus {
    server: DetectionServer,
    dir: TempDir,
    corpus: Vec<FuzzCase>,
    /// The cache artifact written at set-up, and its entries.
    snapshot: Vec<u8>,
    entries: usize,
    /// Corpus functions set-up cached; new functions start after them.
    base: usize,
    next_new: usize,
    /// Corpus functions the server has served since its last restart,
    /// set-up's first.
    served: Vec<usize>,
    since_restart: usize,
    rng: StdRng,
    pending: Vec<Pending>,
    work: Work,
}

impl ServeCorpus {
    fn cache_path(&self) -> PathBuf {
        self.dir.path().join("gr-cache.json")
    }

    /// Size of the persisted cache file in bytes.
    pub fn cache_bytes(&self) -> u64 {
        std::fs::metadata(self.cache_path()).map_or(0, |m| m.len())
    }

    fn config(dir: &std::path::Path) -> ServeConfig {
        ServeConfig {
            jobs: JOBS,
            cache_path: Some(dir.join("gr-cache.json")),
            ..ServeConfig::default()
        }
    }

    /// Starts a server on the cache file, which must load whole.
    fn load(
        dir: &std::path::Path,
        entries: usize,
        rec: &mut Recorder,
    ) -> Result<DetectionServer, String> {
        let server = rec.time("server.load", None, || DetectionServer::new(Self::config(dir)));
        if !server.ledger().is_empty() || server.cache().len() != entries {
            return Err(format!(
                "reloaded cache holds {} of {entries} entries (ledger: {:?})",
                server.cache().len(),
                server.ledger()
            ));
        }
        Ok(server)
    }

    /// Restarts the server from the set-up artifact.
    fn restart(&mut self, rec: &mut Recorder) -> Result<(), String> {
        std::fs::write(self.cache_path(), &self.snapshot)
            .map_err(|e| format!("cannot restore the cache file: {e}"))?;
        self.server = Self::load(self.dir.path(), self.entries, rec)?;
        self.served.truncate(self.base);
        self.since_restart = 0;
        Ok(())
    }

    fn check_results(&self, picks: &[usize], batch: &gr_server::BatchResult, tally: &mut Tally) {
        tally.check(batch.results.len() == picks.len(), || {
            format!(
                "run_batch returned {} results for {} functions",
                batch.results.len(),
                picks.len()
            )
        });
        for (&ci, r) in picks.iter().zip(&batch.results) {
            let case = &self.corpus[ci];
            let want = family_kind(case);
            let ok = !r.report.status.is_degraded()
                && want.is_some_and(|k| r.report.reductions.iter().any(|x| x.kind == k));
            tally.check(ok, || {
                let kinds: Vec<String> =
                    r.report.reductions.iter().map(|x| x.kind.to_string()).collect();
                format!("{}: expected {want:?}, got [{}]", case.name, kinds.join(", "))
            });
        }
    }
}

impl Workload for ServeCorpus {
    const NAME: &'static str = "serve-corpus";
    const TAIL: f64 = 0.95;
    const THREADS: usize = JOBS;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let corpus = synthetic_corpus(seed ^ 0x5EED_C0DE, CORPUS);
        let dir = TempDir::new("serve")?;
        let mut server = DetectionServer::new(Self::config(dir.path()));
        // Fill the cache through the server in requests of the usual size,
        // then restart it from the persisted file.
        let mut base = 0;
        while server.cache().len() < CACHE_ENTRIES {
            let picks = base..base + REQUEST_FUNCTIONS;
            if picks.end > CORPUS {
                return Err("cache fill: the corpus ran out".into());
            }
            let modules = picks
                .clone()
                .map(|i| {
                    rec.time("frontend.compile", None, || gr_frontend::compile(&corpus[i].src))
                        .map_err(|e| format!("{}: {e}", corpus[i].name))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let batch = rec.time("server.run_batch", None, || server.run_batch(&modules));
            if batch.summary.degraded > 0 {
                return Err("cache fill: a report degraded".into());
            }
            base = picks.end;
        }
        rec.time("server.persist", None, || server.persist())
            .map_err(|e| format!("cannot persist the cache: {e}"))?;
        let entries = server.cache().len();
        drop(server);
        let path = dir.path().join("gr-cache.json");
        let snapshot =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let server = Self::load(dir.path(), entries, rec)?;
        Ok(ServeCorpus {
            dir,
            server,
            corpus,
            snapshot,
            entries,
            base,
            next_new: base,
            served: (0..base).collect(),
            since_restart: 0,
            rng: StdRng::seed_from_u64(seed),
            pending: Vec::new(),
            work: Work::default(),
        })
    }

    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        if self.since_restart == RESTART_EVERY {
            let restarted = self.restart(rec);
            tally.verdict(restarted);
        }
        self.since_restart += 1;
        let fresh: Vec<usize> = (0..NEW_PER_REQUEST)
            .map(|_| {
                let i = self.next_new;
                self.next_new = if i + 1 == CORPUS { self.base } else { i + 1 };
                i
            })
            .collect();
        // Functions submitted again are drawn evenly from all the server
        // has served since it started.
        let mut warm = self.served.clone();
        shuffle(&mut warm, &mut self.rng);
        let mut picks = fresh.clone();
        picks.extend(warm.into_iter().take(REQUEST_FUNCTIONS - NEW_PER_REQUEST));
        shuffle(&mut picks, &mut self.rng);
        self.served.extend(fresh);

        let request = rec.next_request();
        let traced = rec.is_on();
        let corpus = &self.corpus;
        let t0 = Instant::now();
        let root = rec.enter("bench.request", None);
        let modules: Result<Vec<Module>, String> = picks
            .iter()
            .map(|&i| {
                rec.time("frontend.compile", None, || gr_frontend::compile(&corpus[i].src))
                    .map_err(|e| format!("{}: {e}", corpus[i].name))
            })
            .collect();
        let outcome = modules.map(|modules| {
            let batch = rec.time("server.run_batch", None, || self.server.run_batch(&modules));
            let persisted = rec.time("server.persist", None, || self.server.persist());
            (modules, batch, persisted)
        });
        rec.exit(root);
        let elapsed = t0.elapsed();
        match outcome {
            Ok((modules, batch, persisted)) => {
                tally.op(elapsed, picks.len() as u64, modules.iter().map(crate::ir_insts).sum());
                tally.check(persisted.is_ok(), || format!("persist failed: {persisted:?}"));
                self.check_results(&picks, &batch, tally);
                tally.output(&stepwise::render(&batch.results));
                if traced {
                    let cold = batch
                        .results
                        .iter()
                        .filter(|r| r.outcome == CacheOutcome::Cold)
                        .map(|r| (r.module, stepwise::render(&r.report)))
                        .collect();
                    let fingerprints = batch.results.iter().map(|r| r.fingerprint).collect();
                    self.pending.push(Pending { request, modules, fingerprints, cold });
                }
            }
            Err(e) => {
                tally.op(elapsed, picks.len() as u64, 0);
                tally.check(false, || e);
            }
        }
    }

    fn after_trace(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        // Each function is fingerprinted again, as the server's coordinator
        // does. The server's pool builds one registry per worker for each
        // batch with cold work; stepwise detection does the same, then
        // re-detects every cold function and must reproduce the server's
        // report exactly.
        rec.set_phase(Phase::Measure);
        for p in std::mem::take(&mut self.pending) {
            rec.set_request(p.request);
            for (m, &want) in p.modules.iter().zip(&p.fingerprints) {
                let fp = rec.time("core.fingerprint", None, || {
                    gr_core::function_fingerprint(m, &m.functions[0])
                });
                tally.check(fp == want, || {
                    format!("{}: fingerprint differs from run_batch", m.functions[0].name)
                });
            }
            let workers = JOBS.min(p.cold.len());
            let mut registry = None;
            for _ in 0..workers {
                registry = Some(stepwise::build_registry(rec));
            }
            let Some(registry) = registry else { continue };
            for (mi, want) in &p.cold {
                let module = &p.modules[*mi];
                // Every corpus source holds exactly one function.
                let got = stepwise::detect_function(
                    rec,
                    &registry,
                    module,
                    &module.functions[0],
                    &mut self.work,
                );
                tally.check(stepwise::render(&got) == *want, || {
                    format!(
                        "{}: stepwise detection differs from run_batch",
                        module.functions[0].name
                    )
                });
            }
        }
    }

    fn work(&self) -> Work {
        self.work
    }

    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        vec![("server.cache_bytes", self.cache_bytes() as f64)]
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "cache: {} entries after set-up, {} now, {} bytes on disk",
            self.entries,
            self.server.cache().len(),
            self.cache_bytes()
        )]
    }
}
