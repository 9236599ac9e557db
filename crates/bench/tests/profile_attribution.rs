//! Corpus-wide pins for the profiling layer: span-path attribution must
//! reconcile *exactly* with the legacy [`SolveStats`] ledger, the
//! collapsed-stack and hit-profile artifacts must be byte-deterministic
//! across runs, and the persisted hit profile must round-trip.
//!
//! Each test records into a trace session of its own thread, so tests
//! running side by side never see each other's solver steps.
//!
//! [`SolveStats`]: gr_core::solver::SolveStats

use gr_bench::stats::measure_profile;
use gr_trace::profile::HitProfile;

#[test]
fn attribution_reconciles_with_legacy_ledger_corpus_wide() {
    let profile = measure_profile();
    assert_eq!(
        profile.attributed_steps, profile.legacy_steps as i64,
        "collapsed-stack attribution must conserve every solver step the SolveStats ledger counts"
    );
    // The same trend bound `trace_substrate.rs` pins (measured 168 with
    // the trie-backed extension search).
    assert!(profile.legacy_steps <= 300, "corpus steps regressed: {}", profile.legacy_steps);
    // Attribution is hierarchical: the corpus sweep runs under
    // detect/extend/solve spans, so the collapsed stacks must be deeper
    // than a single flat frame.
    assert!(
        profile
            .collapsed
            .lines()
            .any(|l| l.split(' ').next().is_some_and(|p| p.contains(';'))),
        "expected nested span paths in:\n{}",
        profile.collapsed
    );
}

#[test]
fn profile_artifacts_are_byte_deterministic() {
    let a = measure_profile();
    let b = measure_profile();
    assert_eq!(a.collapsed, b.collapsed, "collapsed-stack output must replay to the same bytes");
    assert_eq!(a.hit_profile_json, b.hit_profile_json, "hit profile must replay to the same bytes");
    let render = |hists: &std::collections::BTreeMap<String, gr_trace::Histogram>| {
        hists
            .iter()
            .map(|(k, h)| format!("{k}={}", h.render_json()))
            .collect::<Vec<_>>()
            .join(";")
    };
    assert_eq!(render(&a.histograms), render(&b.histograms), "histogram digests must be stable");
}

#[test]
fn hit_profile_round_trips_and_seeds_chunk_policy() {
    let profile = measure_profile();
    let parsed = HitProfile::parse_json(&profile.hit_profile_json).expect("own render parses");
    assert_eq!(
        parsed.render_json(),
        profile.hit_profile_json,
        "parse(render(p)) must render identically"
    );
    // The hit workload searches for 3000 in a 4096-element space, so the
    // recorded median must land in that range for some site, and seeding
    // a ChunkPolicy from it must surface the hint read-only.
    let (site, _) = parsed.sites.iter().next().expect("hit workload recorded a site");
    let median = parsed.median_hit(site).expect("site has hits");
    assert!(median > 0, "median hit position positive, got {median}");
    let policy = gr_parallel::plan::ChunkPolicy::default().with_profile(&parsed, site);
    assert_eq!(policy.expected_hit, Some(median));
    // Unknown sites leave the hint unset.
    let absent = gr_parallel::plan::ChunkPolicy::default().with_profile(&parsed, "no-such-site");
    assert_eq!(absent.expected_hit, None);
}
