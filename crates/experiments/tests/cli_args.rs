//! Command-line validation shared by every experiment binary
//! (`Scale::from_args`): a missing or malformed `--jobs` / `--shards`
//! value, or a malformed `CR_JOBS` / `CR_SHARDS` environment value, is
//! an error, not a silent fallback to the default.

use std::process::Command;

#[test]
fn malformed_counts_exit_2() {
    for (args, env) in [
        (&["--shards", "four"][..], None),
        (&["--shards=-1"][..], None),
        (&["--jobs"][..], None),
        (&["--jobs=x"][..], None),
        (&[][..], Some(("CR_JOBS", "two"))),
        (&[][..], Some(("CR_SHARDS", "-3"))),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig09"));
        cmd.arg("--tiny").args(args);
        if let Some((var, value)) = env {
            cmd.env(var, value);
        }
        let out = cmd.output().expect("fig09 binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = match env {
            Some((var, _)) => var,
            None => args[0].split('=').next().unwrap_or_default(),
        };
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} {env:?}: stderr: {stderr}"
        );
        assert!(stderr.contains(name), "{args:?} {env:?}: stderr: {stderr}");
    }
}
