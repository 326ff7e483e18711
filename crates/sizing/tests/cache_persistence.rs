//! Persistence gates for the disk-backed evaluation cache.
//!
//! Kept as a **single test in its own binary**: the `losac-obs` counters
//! are process-global, so the disk hit/corrupt deltas asserted here
//! would race against sibling tests in the same process.
//!
//! The scenario walks one cache directory through its whole life:
//! cold write (to disk only) → read-back into memory → warm restart (verified disk hits, no simulator work) →
//! crash mid-write (orphaned temp file: a plain miss, not corruption) →
//! flipped byte in an entry (a *counted* corrupt miss, never a wrong
//! hit) → self-heal on the next store.

use losac_obs::metrics::snapshot;
use losac_sizing::eval::{evaluate_with, EvalCache, EvalOptions};
use losac_sizing::{FoldedCascodePlan, OtaSpecs, ParasiticMode};
use losac_tech::{Corner, Pvt, Scenario, Technology};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "losac-cache-persistence-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn entry_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("cache dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "lsec"))
        .collect();
    files.sort();
    files
}

/// Entry file names (`e{key hash}-{key bytes hash}.lsec`) of the paper
/// example's evaluation, at nominal and at {ss, 125 °C}: content
/// addresses of the exact key bytes, so a change of either name means
/// entries cached by earlier builds no longer hit.
const NOMINAL_ENTRY: &str = "ee70db76ffcd28b08-11a67f14636fbdc8.lsec";
const CORNER_ENTRY: &str = "e1203a8336fbe6d71-6b578972b5695f31.lsec";

fn file_name(path: &std::path::Path) -> &str {
    path.file_name()
        .and_then(|n| n.to_str())
        .expect("utf-8 entry name")
}

fn deltas<R>(f: impl FnOnce() -> R) -> (R, std::collections::BTreeMap<&'static str, u64>) {
    let before = snapshot();
    let out = f();
    (out, snapshot().counters_since(&before))
}

fn get(map: &std::collections::BTreeMap<&'static str, u64>, name: &str) -> u64 {
    map.get(name).copied().unwrap_or(0)
}

#[test]
fn disk_cache_survives_restart_and_tolerates_crashes() {
    let tech = Technology::cmos06();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &OtaSpecs::paper_example(), &ParasiticMode::None)
        .expect("sizing");
    let mode = ParasiticMode::None;
    let dir = fresh_dir("lifecycle");

    // --- Cold run: one miss, one entry file on disk. -------------------
    let cache = Arc::new(EvalCache::persistent(&dir).expect("open cache dir"));
    let opts = EvalOptions::default().with_cache(cache.clone());
    let (cold, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("cold eval"));
    assert_eq!(get(&d, "sizing.eval.cache_miss"), 1);
    assert_eq!(get(&d, "sizing.eval.cache_disk_hit"), 0);
    assert_eq!(get(&d, "sizing.eval.cache_disk_write_error"), 0);
    let files = entry_files(&dir);
    assert_eq!(files.len(), 1, "cold store must leave exactly one entry");
    assert_eq!(
        file_name(&files[0]),
        NOMINAL_ENTRY,
        "the key bytes of a nominal evaluation changed: entries written by \
         earlier builds would stop hitting"
    );
    assert!(
        !files[0]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("tmp"),
        "entry must be the renamed final file, not a temp file"
    );
    // A disk-backed cache keeps in memory only the entries it reads
    // back: the store wrote the file alone, the first lookup reads it
    // from disk into memory, and the next one stays off disk.
    assert_eq!(cache.len(), 0, "a stored entry must not enter memory");
    let (_, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("read-back eval"));
    assert_eq!(get(&d, "sizing.eval.cache_disk_hit"), 1);
    assert_eq!(cache.len(), 1, "a read-back entry must enter memory");
    let (_, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("memory eval"));
    assert_eq!(get(&d, "sizing.eval.cache_hit"), 1);
    assert_eq!(get(&d, "sizing.eval.cache_disk_hit"), 0);
    drop(opts);
    drop(cache);

    // --- Warm restart: fresh process-equivalent (empty memory layer) ---
    // answers from disk: a verified hit, zero simulator work.
    let cache = Arc::new(EvalCache::persistent(&dir).expect("reopen cache dir"));
    assert!(cache.is_empty(), "memory layer must start cold");
    let opts = EvalOptions::default().with_cache(cache.clone());
    let (warm, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("warm eval"));
    assert_eq!(get(&d, "sizing.eval.cache_hit"), 1, "warm restart must hit");
    assert_eq!(get(&d, "sizing.eval.cache_disk_hit"), 1);
    assert_eq!(get(&d, "sizing.eval.cache_miss"), 0);
    assert_eq!(
        get(&d, "sim.matrix.factorizations"),
        0,
        "a disk hit must not run the simulator"
    );
    assert_eq!(
        format!("{cold:?}"),
        format!("{warm:?}"),
        "disk round trip drifted (f64 Debug is shortest-roundtrip, so \
         equal Debug forms mean bitwise-equal rows)"
    );
    // The disk hit was promoted to memory: a second lookup stays off
    // disk.
    let (_, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("memory eval"));
    assert_eq!(get(&d, "sizing.eval.cache_hit"), 1);
    assert_eq!(get(&d, "sizing.eval.cache_disk_hit"), 0);
    drop(opts);
    drop(cache);

    // --- Crash mid-write: a writer that died before the atomic rename
    // leaves only a temp file. It must be invisible: a plain miss, no
    // corruption counted, and it must never shadow real entries.
    let crash_dir = fresh_dir("crash");
    fs::create_dir_all(&crash_dir).expect("mkdir");
    fs::write(crash_dir.join(".tmp-12345-0"), b"LSECACHE half a wri").expect("orphan temp");
    let cache = Arc::new(EvalCache::persistent(&crash_dir).expect("open crash dir"));
    let opts = EvalOptions::default().with_cache(cache.clone());
    let (_, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("post-crash eval"));
    assert_eq!(get(&d, "sizing.eval.cache_miss"), 1, "orphan = plain miss");
    assert_eq!(get(&d, "sizing.eval.cache_disk_corrupt"), 0);
    assert_eq!(entry_files(&crash_dir).len(), 1, "store must still land");
    drop(opts);
    drop(cache);

    // --- Corruption: flip one byte of the entry. A fresh cache must
    // detect it (counted corrupt miss), never serve wrong numbers, and
    // heal the entry with its own store.
    let victim = &entry_files(&dir)[0];
    let mut bytes = fs::read(victim).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(victim, &bytes).expect("corrupt entry");
    let cache = Arc::new(EvalCache::persistent(&dir).expect("reopen corrupted dir"));
    let opts = EvalOptions::default().with_cache(cache.clone());
    let (healed, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("heal eval"));
    assert_eq!(get(&d, "sizing.eval.cache_disk_corrupt"), 1);
    assert_eq!(
        get(&d, "sizing.eval.cache_miss"),
        1,
        "corrupt = counted miss"
    );
    assert_eq!(get(&d, "sizing.eval.cache_hit"), 0, "never a wrong hit");
    assert_eq!(format!("{healed:?}"), format!("{cold:?}"));
    drop(opts);
    drop(cache);

    // The re-store healed the file: one more cold open hits again.
    let cache = Arc::new(EvalCache::persistent(&dir).expect("reopen healed dir"));
    let opts = EvalOptions::default().with_cache(cache);
    let (_, d) = deltas(|| evaluate_with(&ota, &tech, &mode, &opts).expect("healed eval"));
    assert_eq!(get(&d, "sizing.eval.cache_disk_hit"), 1);
    assert_eq!(get(&d, "sizing.eval.cache_disk_corrupt"), 0);

    // --- Key stability under a corner: the non-nominal key bytes (the
    // scenario marker and coordinates) are pinned too.
    let corner_dir = fresh_dir("corner");
    let cache = Arc::new(EvalCache::persistent(&corner_dir).expect("open corner dir"));
    let opts = EvalOptions::default()
        .with_cache(cache)
        .with_scenario(Scenario::at(Pvt::new(Corner::Slow, 125.0, 1.0)));
    evaluate_with(&ota, &tech, &mode, &opts).expect("corner eval");
    let files = entry_files(&corner_dir);
    assert_eq!(files.len(), 1);
    assert_eq!(
        file_name(&files[0]),
        CORNER_ENTRY,
        "the key bytes of a corner evaluation changed: entries written by \
         earlier builds would stop hitting"
    );

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash_dir);
    let _ = fs::remove_dir_all(&corner_dir);
}
