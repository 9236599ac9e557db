//! `detect-suites`: compile and detect the 40 NAS/Parboil/Rodinia
//! miniatures and the 9 Micro programs one program at a time, like
//! `greduce detect`, in passes whose order the seed shuffles.

use crate::spans::Recorder;
use crate::stepwise::{self, Work};
use crate::{shuffle, Tally, Workload};
use gr_benchsuite::rng::StdRng;
use gr_benchsuite::ProgramDef;
use gr_core::Reduction;
use std::collections::BTreeMap;
use std::time::Instant;

/// Reports every program must produce, one `Reduction` display line each
/// under a `[program]` header.
const EXPECTED: &str = include_str!("../expected/detect-suites.txt");

/// The programs of this workload, in suite order.
pub fn programs() -> Vec<ProgramDef> {
    let mut v = gr_benchsuite::all_programs();
    v.extend(gr_benchsuite::micro::programs());
    v
}

/// A program's name in the expected-report file: two suites have a `bfs`.
pub fn label(p: &ProgramDef) -> String {
    format!("{:?}/{}", p.suite, p.name)
}

/// The expected-report file's form of one program's reports.
pub fn expected_block(name: &str, reductions: &[Reduction]) -> String {
    let mut s = format!("[{name}]\n");
    for r in reductions {
        s.push_str(&format!("{r}\n"));
    }
    s
}

fn parse_expected(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in text.lines() {
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if let Some((n, block)) = current.take() {
                out.insert(n, block);
            }
            current = Some((name.to_string(), format!("{line}\n")));
        } else if let Some((_, block)) = current.as_mut() {
            block.push_str(line);
            block.push('\n');
        } else if !line.trim().is_empty() {
            return Err(format!("expected-report line outside a program block: `{line}`"));
        }
    }
    if let Some((n, block)) = current {
        out.insert(n, block);
    }
    Ok(out)
}

pub struct DetectSuites {
    programs: Vec<ProgramDef>,
    expected: Vec<String>,
    /// `detect_reductions` output per program, in byte form, from set-up.
    reference: Vec<String>,
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
    work: Work,
}

impl DetectSuites {
    fn check(&self, idx: usize, reductions: &[Reduction], tally: &mut Tally) {
        let name = label(&self.programs[idx]);
        let got = expected_block(&name, reductions);
        tally.output(&got);
        tally.check(got == self.expected[idx], || {
            format!("{name}: reports differ from the expected file:\n{got}")
        });
    }
}

impl Workload for DetectSuites {
    const NAME: &'static str = "detect-suites";
    const TAIL: f64 = 0.99;
    const THREADS: usize = 1;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let programs = programs();
        let expected_map = parse_expected(EXPECTED)?;
        let mut expected = Vec::with_capacity(programs.len());
        for p in &programs {
            let block = expected_map
                .get(&label(p))
                .ok_or_else(|| format!("expected-report file has no block for `{}`", label(p)))?;
            expected.push(block.clone());
        }
        if expected_map.len() != programs.len() {
            return Err("expected-report file names programs the suite does not have".into());
        }
        // A warm-up pass: it fills lazily built state before anything is
        // timed and records the reference reports of the real path.
        let mut reference = Vec::with_capacity(programs.len());
        for (p, exp) in programs.iter().zip(&expected) {
            let module = rec
                .time("frontend.compile", None, || gr_frontend::compile(p.source))
                .map_err(|e| format!("{}: {e}", p.name))?;
            let rs = gr_core::detect_reductions(&module);
            let got = expected_block(&label(p), &rs);
            if got != *exp {
                return Err(format!("{}: reports differ from the expected file:\n{got}", p.name));
            }
            reference.push(stepwise::render(&rs));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..programs.len()).collect();
        shuffle(&mut order, &mut rng);
        Ok(DetectSuites {
            programs,
            expected,
            reference,
            rng,
            order,
            pos: 0,
            work: Work::default(),
        })
    }

    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        if self.pos == self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.pos = 0;
        }
        let idx = self.order[self.pos];
        self.pos += 1;
        let p = &self.programs[idx];
        rec.next_request();
        let traced = rec.is_on();
        let t0 = Instant::now();
        let root = rec.enter("bench.program", Some(p.name));
        let module = rec.time("frontend.compile", None, || gr_frontend::compile(p.source));
        let result = module.map(|m| {
            let rs = if traced {
                stepwise::detect_module(rec, &m, &mut self.work)
            } else {
                gr_core::detect_reductions(&m)
            };
            (m, rs)
        });
        rec.exit(root);
        let elapsed = t0.elapsed();
        match result {
            Ok((m, rs)) => {
                tally.op(elapsed, 1, crate::ir_insts(&m));
                self.check(idx, &rs, tally);
                if traced {
                    tally.check(stepwise::render(&rs) == self.reference[idx], || {
                        format!("{}: stepwise detection differs from detect_reductions", p.name)
                    });
                }
            }
            Err(e) => {
                tally.op(elapsed, 1, 0);
                tally.check(false, || format!("{}: {e}", p.name));
            }
        }
    }

    fn work(&self) -> Work {
        self.work
    }
}
