//! A fixed reference workload, independent of the code under test, timed
//! between operations to track how fast the machine runs at the moment.
//!
//! On a shared machine the same code runs up to a fifth slower or faster
//! from one second to the next, and wall-clock medians of whole runs
//! scatter by 10–15 %. Each operation's time is therefore also expressed
//! at a reference speed: multiplied by [`REF_PROBE_S`] over the probe time
//! measured around it. The probe is the benchmark's own code, so a change
//! to the program moves these figures in proportion to its wall time.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Small table the probe walks with branches: fits in L1.
const SMALL: usize = 1 << 10;
/// Steps over the small table.
const SMALL_STEPS: u64 = 100_000;
/// Large table the probe walks: larger than L1, smaller than L2.
const TABLE: usize = 1 << 15;
/// Steps over the large table.
const STEPS: u64 = 30_000;
/// Map insertions of one probe.
const ALLOCS: u64 = 4_000;
/// Probe time, in seconds, of the reference machine the calibrated figures
/// are expressed on.
pub const REF_PROBE_S: f64 = 1e-3;
/// Probes are taken at most this often.
const EVERY: Duration = Duration::from_millis(50);
/// The machine speed is the median of this many latest probes.
const WINDOW: usize = 3;

/// One thread's share of a probe.
struct Lane {
    small: Vec<u64>,
    table: Vec<u64>,
    state: u64,
}

fn filled(len: usize) -> Vec<u64> {
    (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

impl Lane {
    fn new() -> Lane {
        Lane { small: filled(SMALL), table: filled(TABLE), state: 1 }
    }

    /// Branchy arithmetic on L1-resident data, a data-dependent walk of a
    /// larger table, then small allocations and hashing: the mix of work
    /// the pipeline does. Each part alone tracks the pipeline's speed
    /// less closely than the three together.
    fn run(&mut self) {
        let mut x = self.state;
        for _ in 0..SMALL_STEPS {
            let i = (x >> 23) as usize & (SMALL - 1);
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(self.small[i]);
            if x & 3 == 0 {
                self.small[i] ^= x;
            } else if x & 7 == 1 {
                x = x.rotate_left(5);
            }
        }
        for _ in 0..STEPS {
            let i = (x >> 17) as usize & (TABLE - 1);
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(self.table[i]);
            if x & 3 == 0 {
                self.table[i] ^= x;
            }
        }
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for k in 0..ALLOCS {
            x = x.rotate_left(9).wrapping_add(k);
            map.entry(x & 255).or_default().push(x);
        }
        self.state = black_box(x ^ map.values().map(|v| v.len() as u64).sum::<u64>());
    }
}

/// Probes the machine on as many threads as the workload keeps busy, so
/// that contention on any core it uses shows in the probe.
pub struct Calibrator {
    lanes: Vec<Lane>,
    recent: VecDeque<f64>,
    last: Option<Instant>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            lanes: (0..threads.max(1)).map(|_| Lane::new()).collect(),
            recent: VecDeque::new(),
            last: None,
        }
    }

    /// Times one probe: every lane at once; the probe time is the mean of
    /// the lanes' times.
    fn probe(&mut self) -> f64 {
        let timed = |lane: &mut Lane| {
            let t0 = Instant::now();
            lane.run();
            t0.elapsed().as_secs_f64()
        };
        let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
        let total = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|lane| s.spawn(move || timed(lane))).collect();
            let mine = timed(first);
            mine + others.into_iter().map(|h| h.join().expect("probe lane panicked")).sum::<f64>()
        });
        total / self.lanes.len() as f64
    }

    /// Probes when the last probe is older than [`EVERY`], and returns the
    /// current probe time in seconds.
    pub fn tick(&mut self) -> f64 {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            let p = self.probe();
            self.recent.push_back(p);
            if self.recent.len() > WINDOW {
                self.recent.pop_front();
            }
            self.last = Some(Instant::now());
        }
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
}
