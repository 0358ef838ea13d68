//! Tiny-scale runs of every workload: every named metric is emitted with
//! its unit, the output checks pass on healthy code and fire on an
//! injected fault, and a run leaves the repository untouched.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use oslaybench::{
    run, self_metric, Fault, RunResult, Settings, Workload, END_TO_END, PER_LAYER, SPANS,
};

/// Tiny settings with a scratch directory of the test's own: tests run in
/// parallel, and two runs must never share an archive directory.
fn tiny(workload: Workload, trace: bool, test: &str) -> Settings {
    let mut s = Settings::tiny(workload, oslaybench::DEFAULT_SEED, trace);
    s.work_dir = oslaybench::bench_dir().join("work").join(format!(
        "{test}-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    s
}

fn units(r: &RunResult) -> BTreeMap<String, &'static str> {
    r.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

fn quality(r: &RunResult, name: &str) -> Option<f64> {
    r.quality.iter().find(|m| m.name == name).map(|m| m.value)
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let plain = run(&tiny(workload, false, "metrics"));
        assert!(plain.correct, "{}: {:?}", workload.name(), plain.failures);
        assert!(plain.attempted > 0);
        assert_eq!(quality(&plain, "fail_ratio"), Some(0.0));
        let expect: BTreeMap<String, &str> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        assert_eq!(units(&plain), expect, "{}", workload.name());
        for m in &plain.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                workload.name()
            );
        }

        let traced = run(&tiny(workload, true, "metrics"));
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.failures);
        let mut expect: BTreeMap<String, &str> =
            PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        for span in SPANS {
            expect.insert(self_metric(span), "s");
        }
        assert_eq!(units(&traced), expect, "{}", workload.name());
        assert!(!traced.spans.is_empty());
        assert!(traced
            .spans
            .iter()
            .all(|s| s.end >= s.start && s.parent.is_none_or(|p| p < s.id)));
    }
}

#[test]
fn opts_miss_ratio_agrees_across_workloads() {
    let ratios: Vec<f64> = [
        Workload::PaperDigest,
        Workload::DesignSweep,
        Workload::TraceArchive,
    ]
    .into_iter()
    .map(|w| quality(&run(&tiny(w, false, "ratio")), "opts_miss_ratio").expect("computed"))
    .collect();
    assert!(ratios[0] > 0.0 && ratios[0] < 1.0, "{ratios:?}");
    assert!(ratios.iter().all(|&r| r == ratios[0]), "{ratios:?}");
}

#[test]
fn injected_faults_raise_the_fail_ratio() {
    for workload in Workload::ALL {
        let mut s = tiny(workload, false, "perturb");
        s.fault = Some(Fault::PerturbExpected);
        let r = run(&s);
        assert!(!r.correct && r.failed > 0, "{}", workload.name());
        assert!(quality(&r, "fail_ratio").expect("always reported") > 0.0);
    }
    let mut s = tiny(Workload::TraceArchive, false, "flip");
    s.fault = Some(Fault::FlipStoreByte);
    let r = run(&s);
    assert!(r.failed > 0, "a flipped store byte must fail verification");
    assert!(
        r.failures.iter().any(|f| f.contains("verify")),
        "{:?}",
        r.failures
    );
}

/// Names, sizes and modification times of a directory's entries.
fn listing(dir: &Path) -> BTreeMap<PathBuf, (u64, Option<SystemTime>)> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| {
                    let meta = e.metadata().ok();
                    (
                        e.path(),
                        (
                            meta.as_ref().map_or(0, std::fs::Metadata::len),
                            meta.and_then(|m| m.modified().ok()),
                        ),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn a_run_leaves_the_repository_untouched() {
    let root = oslaybench::bench_dir()
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf();
    let results = root.join("results");
    // The benchmark's own directory holds its `work/` and `out/` and may
    // change; nothing else may.
    let outside = |dir: &Path| {
        let mut l = listing(dir);
        l.remove(&oslaybench::bench_dir());
        l
    };
    let before = (outside(&root), listing(&results));
    let r = run(&tiny(Workload::TraceArchive, false, "untouched"));
    assert!(r.correct, "{:?}", r.failures);
    // No report, no bench-history line, no stray file at the root.
    assert_eq!((outside(&root), listing(&results)), before);
}

#[test]
fn compare_refuses_records_from_different_machines() {
    let dir = oslaybench::bench_dir().join("work").join("compare");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let record = |name: &str, machine: &str, wall: f64| {
        let path = dir.join(name);
        let text = format!(
            "{{\"machine\": \"{machine}\", \"result\": {{\"metrics\": \
             {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}}}}}}}"
        );
        std::fs::write(&path, text).expect("write record");
        path
    };
    let a = record("a.json", "linux-x86_64-2cpu", 2.0);
    let b = record("b.json", "linux-x86_64-2cpu", 2.2);
    let c = record("c.json", "linux-x86_64-8cpu", 1.0);
    let compare = |x: &Path, y: &Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_oslaybench"))
            .arg("--compare")
            .args([x, y])
            .output()
            .expect("run the benchmark binary")
    };
    let same = compare(&a, &b);
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("+10.00%"));
    let across = compare(&a, &c);
    assert_eq!(across.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&across.stderr).contains("refusing"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}
