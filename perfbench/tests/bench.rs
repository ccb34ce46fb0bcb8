//! The benchmark's own tests, on smoke-sized workloads.

use nascent_driver::json::{parse, Json};
use perfbench::corpus::{self, Step};
use perfbench::exec::{run_passes, setup, Tally};
use perfbench::{cert_accepted_pct, checks_eliminated_pct, run, Size, Workload};

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = spec.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Removes the native tier's compile cache this process left in the
/// temporary directory.
fn remove_native_cache() {
    let prefix = format!("nascent-native-{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

#[test]
fn smoke_runs_print_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        if w == Workload::PaperExecute && !nascent_cback::cc_available() {
            let err = run(w, Size::Smoke, 3, 0.0, false)
                .err()
                .expect("no C compiler");
            assert!(err.contains("C compiler"), "{err}");
            continue;
        }
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(w, Size::Smoke, 3, 0.0, trace).expect("smoke run");
            assert!(report.correct, "{}: {:?}", w.name(), report.lines);
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{} trace={trace}", w.name());
            let line = report.json_line();
            let v = parse(&line).expect("result line is JSON");
            assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
            for (name, _) in want {
                assert!(report
                    .lines
                    .iter()
                    .any(|l| l.starts_with(&format!("{name} = "))));
            }
        }
    }
    remove_native_cache();
}

#[test]
fn a_wrong_reference_output_counts_as_failed() {
    for w in [Workload::SuiteCertify, Workload::ServiceMixed] {
        let mut inst = setup(w, Size::Smoke, 5).expect("set-up");
        assert_eq!(run_passes(&inst, 0.0).failed, 0, "{}", w.name());
        inst.references[0].output.push("-12345".into());
        let t = run_passes(&inst, 0.0);
        let wrong = inst
            .corpus
            .sequence
            .iter()
            .filter(|s| matches!(s, Step::Run(k) if inst.corpus.distinct[*k].program == 0))
            .count();
        assert!(wrong > 0);
        assert_eq!(t.failed as usize, wrong, "{}: {:?}", w.name(), t.problems);
    }
}

#[test]
fn the_same_seed_repeats_the_sequence_and_every_count() {
    for w in Workload::ALL {
        let a = corpus::build(w, Size::Full, 11);
        let b = corpus::build(w, Size::Full, 11);
        assert_eq!(a.sequence, b.sequence, "{}", w.name());
        let c = corpus::build(w, Size::Full, 12);
        assert_ne!(a.sequence, c.sequence, "{}", w.name());
    }
    for w in [Workload::LargeCompile, Workload::ServiceMixed] {
        let runs: Vec<Tally> = (0..2)
            .map(|_| run_passes(&setup(w, Size::Smoke, 11).expect("set-up"), 0.0))
            .collect();
        for t in &runs {
            assert_eq!(t.failed, 0, "{}: {:?}", w.name(), t.problems);
        }
        assert_eq!(
            checks_eliminated_pct(&runs[0]),
            checks_eliminated_pct(&runs[1])
        );
        assert_eq!(cert_accepted_pct(&runs[0]), cert_accepted_pct(&runs[1]));
        assert_eq!(
            (runs[0].hits, runs[0].misses),
            (runs[1].hits, runs[1].misses)
        );
    }
}

#[test]
fn service_passes_hit_the_cache_three_times_in_four() {
    let t = run_passes(
        &setup(Workload::ServiceMixed, Size::Smoke, 2).expect("set-up"),
        0.0,
    );
    assert_eq!(t.failed, 0, "{:?}", t.problems);
    assert_eq!(t.hits, 3 * t.misses);
    let malformed = t.status_400;
    assert!(malformed > 0);
    assert_eq!(t.attempted, t.hits + t.misses + malformed);
}
