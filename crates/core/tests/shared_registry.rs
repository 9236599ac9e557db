//! The process-wide default registry (`IdiomRegistry::shared_default`)
//! is one instance, safe to share across threads, and detects exactly
//! what a freshly built default registry does.

use gr_core::{detect_reductions, detect_with, IdiomRegistry};

#[test]
fn shared_registry_is_one_sync_instance() {
    fn assert_sync<T: Sync>(_: &T) {}
    let shared = IdiomRegistry::shared_default();
    assert_sync(shared);
    let addr = |r: &'static IdiomRegistry| std::ptr::from_ref(r) as usize;
    let here = addr(shared);
    let there: Vec<usize> = std::thread::scope(|s| {
        let workers: Vec<_> =
            (0..2).map(|_| s.spawn(|| addr(IdiomRegistry::shared_default()))).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(there, [here, here], "every thread sees the same registry");
    assert_eq!(shared.names(), IdiomRegistry::with_default_idioms().names());
}

#[test]
fn shared_registry_reports_match_a_fresh_registry_on_every_suite_program() {
    let mut programs = gr_benchsuite::all_programs();
    programs.extend(gr_benchsuite::micro::programs());
    assert_eq!(programs.len(), 49, "40 miniatures and 9 Micro programs");
    let fresh = IdiomRegistry::with_default_idioms();
    for p in &programs {
        let module = p.compile();
        let want = format!("{:?}", detect_with(&fresh, &module));
        let shared = format!("{:?}", detect_with(IdiomRegistry::shared_default(), &module));
        assert_eq!(shared, want, "{}: shared registry reports differ", p.name);
        assert_eq!(format!("{:?}", detect_reductions(&module)), want, "{}", p.name);
    }
}
