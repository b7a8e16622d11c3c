//! Command-line validation shared by every experiment binary
//! (`Scale::from_args`): a missing or malformed `--jobs` / `--shards`
//! value is an error, not a silent fallback to the default.

use std::process::Command;

#[test]
fn malformed_counts_exit_2() {
    for args in [
        &["--shards", "four"][..],
        &["--shards=-1"][..],
        &["--jobs"][..],
        &["--jobs=x"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig09"))
            .arg("--tiny")
            .args(args)
            .output()
            .expect("fig09 binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[0].split('=').next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: stderr: {stderr}");
    }
}
