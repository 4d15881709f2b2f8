//! `ferrum-repro` refuses a malformed command line with status 2 and
//! its usage text, before running anything.

use std::process::Command;

#[test]
fn malformed_lines_exit_2_with_usage_and_no_output() {
    for args in [
        &[][..],
        &["tabel2"][..],
        &["table2", "--scale", "tset"][..],
        &["table2", "--scale", "test", "--bogus"][..],
        &["table1", "--help"][..],
        &["fig11", "--samples", "abc"][..],
        &["fig11", "--opt", "1"][..],
        &["fig10", "--samples", "abc"][..],
        &["speedup", "--help"][..],
        &["speedup", "--threads", "many"][..],
        &["all", "--samples", "300"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ferrum-repro"))
            .args(args)
            .output()
            .expect("ferrum-repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ferrum-repro"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn help_lists_every_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_ferrum-repro"))
        .arg("--help")
        .output()
        .expect("ferrum-repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for e in ferrum_bench::repro::EXPERIMENTS {
        assert!(stderr.contains(e.name), "{} not listed", e.name);
    }
}
