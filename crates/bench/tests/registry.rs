//! The figure registry as the executable presents it: `list`, every
//! entry's `--help`, and the unknown-name error.

use std::process::{Command, Output};

const VERBS: [&str; 5] = ["list", "gate", "perfdiff", "simstat", "memstat"];

fn bgq_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgq-bench"))
        .args(args)
        .output()
        .expect("spawn bgq-bench")
}

fn figures() -> Vec<String> {
    let out = bgq_bench(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let names = String::from_utf8(out.stdout).expect("UTF-8");
    names.lines().map(str::to_owned).collect()
}

#[test]
fn list_prints_twenty_unique_names() {
    let names = figures();
    assert_eq!(names.len(), 20, "{names:?}");
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate figure name");
    // A figure named like a verb would shadow it in the dispatch.
    assert!(!names.iter().any(|n| VERBS.contains(&n.as_str())));
}

#[test]
fn every_entry_has_help_with_each_default_stated_once() {
    for name in figures().iter().map(String::as_str).chain(VERBS) {
        let out = bgq_bench(&[name, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        let help = String::from_utf8(out.stdout).expect("UTF-8");
        assert!(help.contains(&format!("usage: bgq-bench {name}")), "{help}");
        // The table renders "(default N)" on every numeric option's line;
        // help prose that repeated the default would say the word twice.
        for line in help.lines().filter(|l| l.starts_with("  --")) {
            let numeric = ["<n>", "<n,n,..>", "<x>"].iter().any(|p| line.contains(p));
            assert_eq!(line.matches("default").count(), usize::from(numeric));
            assert_eq!(line.matches("(default ").count(), usize::from(numeric));
        }
    }
}

#[test]
fn unknown_name_exits_2_and_prints_the_list() {
    let out = bgq_bench(&["nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("UTF-8");
    assert!(stderr.starts_with("bgq-bench: unknown figure or verb 'nosuch'\n"));
    for name in figures() {
        assert!(
            stderr.contains(&format!("\n  {name} ")),
            "{name} not listed"
        );
    }
    // No arguments at all is the same usage error.
    assert_eq!(bgq_bench(&[]).status.code(), Some(2));
    assert_eq!(bgq_bench(&["--help"]).status.code(), Some(0));
}
