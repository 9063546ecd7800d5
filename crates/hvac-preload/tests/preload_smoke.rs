//! End-to-end smoke test: run a real external program under
//! `LD_PRELOAD=libhvac_preload.so` and verify (a) its output is byte-correct
//! and (b) the shim actually intercepted the dataset I/O (via the
//! `HVAC_STATS_FILE` report written at process exit).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Whether the stats line holds the `name=value` field `field` exactly.
fn has_field(stats: &str, field: &str) -> bool {
    stats.split_whitespace().any(|f| f == field)
}

/// Locate the built cdylib next to our own test binary.
fn preload_lib() -> Option<PathBuf> {
    // test executable lives in target/<profile>/deps/...
    let exe = std::env::current_exe().ok()?;
    let deps = exe.parent()?; // .../deps
    let profile = deps.parent()?; // .../debug or .../release
    for dir in [profile, deps] {
        let candidate = dir.join("libhvac_preload.so");
        if candidate.exists() {
            return Some(candidate);
        }
    }
    // Fall back to scanning deps for hashed artifacts.
    for entry in fs::read_dir(deps).ok()? {
        let p = entry.ok()?.path();
        let name = p.file_name()?.to_str()?;
        if name.starts_with("libhvac_preload") && name.ends_with(".so") {
            return Some(p);
        }
    }
    None
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvac-preload-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cat_under_preload_is_intercepted_and_correct() {
    let Some(lib) = preload_lib() else {
        eprintln!(
            "skipping: libhvac_preload.so not built (run `cargo build -p hvac-preload` first)"
        );
        return;
    };
    let Ok(cat) = which_cat() else {
        eprintln!("skipping: no `cat` binary on this system");
        return;
    };

    let dataset = fresh_dir("dataset");
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    let file = dataset.join("sample.bin");
    fs::write(&file, &payload).unwrap();
    let stats_file = dataset.join("stats.txt");

    let output = Command::new(&cat)
        .arg(&file)
        .env("LD_PRELOAD", &lib)
        .env("HVAC_DATASET_DIR", &dataset)
        .env("HVAC_STATS_FILE", &stats_file)
        .env("HVAC_CACHE_CAPACITY_MB", "16")
        .output()
        .expect("spawn cat");

    assert!(
        output.status.success(),
        "cat failed under preload: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(output.stdout, payload, "payload corrupted by interception");

    let stats = fs::read_to_string(&stats_file).expect("stats file written at exit");
    assert!(stats.starts_with("hvac_preload "), "stats: {stats}");
    assert!(
        has_field(&stats, "client.opens=1"),
        "open was not intercepted: {stats}"
    );
    assert!(
        has_field(&stats, "server.pfs_copies=1"),
        "no PFS copy recorded: {stats}"
    );

    let _ = fs::remove_dir_all(&dataset);
}

#[test]
fn non_dataset_io_passes_through_untouched() {
    let Some(lib) = preload_lib() else {
        eprintln!("skipping: libhvac_preload.so not built");
        return;
    };
    let Ok(cat) = which_cat() else {
        eprintln!("skipping: no `cat`");
        return;
    };

    let dataset = fresh_dir("passthrough-ds");
    let outside = fresh_dir("passthrough-out");
    let file = outside.join("plain.txt");
    fs::write(&file, b"outside the dataset\n").unwrap();
    let stats_file = dataset.join("stats.txt");

    let output = Command::new(&cat)
        .arg(&file)
        .env("LD_PRELOAD", &lib)
        .env("HVAC_DATASET_DIR", &dataset)
        .env("HVAC_STATS_FILE", &stats_file)
        .output()
        .expect("spawn cat");

    assert!(output.status.success());
    assert_eq!(output.stdout, b"outside the dataset\n");
    if let Ok(stats) = fs::read_to_string(&stats_file) {
        assert!(
            has_field(&stats, "client.opens=0"),
            "unexpected interception: {stats}"
        );
    }
    let _ = fs::remove_dir_all(&dataset);
    let _ = fs::remove_dir_all(&outside);
}

fn which_cat() -> Result<PathBuf, ()> {
    for p in ["/bin/cat", "/usr/bin/cat"] {
        let pb = PathBuf::from(p);
        if pb.exists() {
            return Ok(pb);
        }
    }
    Err(())
}
