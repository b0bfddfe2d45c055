//! The command-line contract of every bin, driven through the real
//! binaries: `--help` exits 0 with a usage line, and an unknown flag or a
//! bad value exits 2 naming the flag — both before any sweep, bind or
//! file write, which is why every case here returns in milliseconds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every bin with its built executable.
macro_rules! bins {
    ($($bin:ident)*) => {
        [$((stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))))),*]
    };
}
const BINS: [(&str, &str); 19] = bins!(
    ab cache coordinator fig1 fig10 fig3 fig4 fig5 fig6 fig7 fig8 fig9
    iters_to_match serve snapshot sweep table1 table2 trace
);

/// A fresh, empty working directory, so anything a bin writes under
/// `target/` would show up (and never lands in the repository).
fn scratch_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("portopt-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &Path, bin: &str, args: &[&str]) -> Output {
    let exe = BINS.iter().find(|(name, _)| *name == bin).unwrap().1;
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .env_remove("PORTOPT_LOG")
        .output()
        .unwrap()
}

#[test]
fn every_bin_prints_usage_on_help() {
    let dir = scratch_dir("help");
    for (bin, _) in BINS {
        let out = run_in(&dir, bin, &["--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{bin} --help: {out:?}");
        assert!(
            stdout.starts_with(&format!("usage: {bin}")),
            "{bin}: {stdout}"
        );
        assert!(stdout.contains("--help"), "{bin}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_command_lines_exit_2_naming_the_flag() {
    let dir = scratch_dir("errors");
    for (line, want) in [
        ("sweep --bogus", "unknown flag --bogus"),
        ("fig6 --scale bogus", "--scale expects"),
        ("serve --port abc", "--port expects"),
        ("serve --batch 0", "--batch expects"),
        ("serve --snapshot --stdio", "--snapshot expects PATH"),
        ("ab --snapshot a.snap", "missing --snapshot-b PATH"),
        ("trace", "missing FILE"),
        (
            "cache stats dir --max-bytes 5",
            "--max-bytes is a gc option",
        ),
        ("snapshot --out a --out b", "--out given more than once"),
        ("fig1 --no-cache", "unknown flag --no-cache"),
        ("table2 stray", "unexpected argument \"stray\""),
    ] {
        let mut words = line.split(' ');
        let bin = words.next().unwrap();
        let out = run_in(&dir, bin, &words.collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        let want = format!("{bin}: usage error: {want}");
        assert!(stderr.contains(&want), "{line}: {stderr}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "usage errors wrote {left:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_wins_over_errors_and_does_no_work() {
    let dir = scratch_dir("help-wins");
    let out = run_in(&dir, "fig6", &["--help", "--scale", "bogus"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: fig6"));
    assert!(
        !dir.join("target").exists(),
        "fig6 --help wrote under target/"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_profile_rate_counts_only_completed_profiling_runs() {
    let dir = scratch_dir("trace-rate");
    let trace = dir.join("t.trace");
    let header = r#"{"magic":"portopt-trace","format_version":1,"bin":"sweep","start_unix_ms":0}"#;
    let ok_run = [
        r#"{"t":"so","us":0,"id":1,"parent":0,"tgt":"core.dataset","name":"profile","f":{}}"#,
        r#"{"t":"sc","us":2000,"id":1,"dur_us":2000,"f":{"ok":true,"dyn_insts":3000000,"data_accesses":5,"ifetch_lines":7}}"#,
    ];
    // A failed run closes with `ok=false` only and must not count.
    let failed_run = [
        r#"{"t":"so","us":2000,"id":2,"parent":0,"tgt":"core.dataset","name":"profile","f":{}}"#,
        r#"{"t":"sc","us":9000,"id":2,"dur_us":7000,"f":{"ok":false}}"#,
    ];
    for (records, want) in [
        (&failed_run[..], "profile rate: 0 runs"),
        (
            &[ok_run, failed_run].concat()[..],
            "profile rate: 1 runs, 3.0 Minst, 1500.00 Minst/s",
        ),
    ] {
        let mut text = format!("{header}\n");
        for r in records {
            text += r;
            text += "\n";
        }
        std::fs::write(&trace, text).unwrap();
        let out = run_in(&dir, "trace", &["t.trace"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert!(stdout.contains(want), "want {want:?} in:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
