//! `sft-loadgen --json-dir DIR` creates `DIR` (parents included) instead
//! of failing at the end of the run.

use std::process::Command;

#[test]
fn json_dir_is_created_when_missing() {
    let root = std::env::temp_dir().join(format!("sft-loadgen-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("not").join("yet");
    let out = Command::new(env!("CARGO_BIN_EXE_sft-loadgen"))
        .args(["--protocol", "streamlet", "--clients", "1", "--txns", "4"])
        .arg("--json-dir")
        .arg(&dir)
        .output()
        .expect("spawn sft-loadgen");
    assert!(
        out.status.success(),
        "sft-loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("BENCH_loadgen_streamlet.json").is_file());
    let _ = std::fs::remove_dir_all(&root);
}
