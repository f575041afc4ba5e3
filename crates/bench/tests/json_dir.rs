//! `repro --json-dir DIR` creates `DIR` (parents included) instead of
//! failing at the end of the run.

use std::process::Command;

#[test]
fn json_dir_is_created_when_missing() {
    let root = std::env::temp_dir().join(format!("sft-repro-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("not").join("yet");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["4", "6"])
        .arg("--json-dir")
        .arg(&dir)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("BENCH_streamlet.json").is_file());
    let _ = std::fs::remove_dir_all(&root);
}
