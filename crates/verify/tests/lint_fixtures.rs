//! End-to-end lint checks: the scanner must fire on the seeded fixtures
//! (proving the rules detect what they claim to), exit non-zero on them
//! through the real CLI, and exit zero on the actual workspace tree.

use dyrs_verify::{cli, scan_file, scan_workspace, Allowlist, Rule};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/verify sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn fixtures_trigger_every_rule() {
    let findings = scan_file(&workspace_root(), &[fixture_dir()]).expect("fixtures scan");
    let fired: Vec<Rule> = {
        let mut rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
        rules.sort();
        rules.dedup();
        rules
    };
    assert_eq!(
        fired,
        vec![
            Rule::NondetIter,
            Rule::WallClock,
            Rule::AmbientRng,
            Rule::NanCompare,
            Rule::LibUnwrap,
            Rule::NetFence,
            Rule::PendingFence,
        ],
        "every rule must fire on the fixtures; findings: {findings:#?}"
    );
    for spawn in [
        "std::thread::spawn",
        "crossbeam::scope",
        "std::thread::scope",
    ] {
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::NetFence && f.excerpt.contains(spawn)),
            "net-fence must fire on `{spawn}`; findings: {findings:#?}"
        );
    }
}

#[test]
fn fixtures_do_not_fire_on_comments_strings_or_tests() {
    let findings = scan_file(&workspace_root(), &[fixture_dir()]).expect("fixtures scan");
    for f in &findings {
        assert!(
            !f.excerpt.contains("must not fire"),
            "rule fired on exempt code: {f}"
        );
    }
    // The `#[cfg(test)]` unwrap and the keyed access are exempt: exactly
    // one lib-unwrap (the bare `.next().unwrap()` in pick/first path).
    let unwraps = findings
        .iter()
        .filter(|f| f.rule == Rule::LibUnwrap)
        .count();
    assert_eq!(unwraps, 1, "findings: {findings:#?}");
}

#[test]
fn cli_exits_nonzero_on_fixtures() {
    let args: Vec<String> = vec![
        "lint".into(),
        "--root".into(),
        workspace_root().display().to_string(),
        fixture_dir().display().to_string(),
    ];
    assert_eq!(cli::run(&args), 1, "seeded hazards must fail the lint");
}

#[test]
fn cli_exits_zero_on_the_workspace_tree() {
    let root = workspace_root();
    let args: Vec<String> = vec!["lint".into(), "--root".into(), root.display().to_string()];
    assert_eq!(
        cli::run(&args),
        0,
        "the tree must stay lint-clean (run `cargo run -p dyrs-verify -- lint` to see why)"
    );
}

#[test]
fn emitted_allowlist_roundtrips_and_suppresses_everything() {
    let findings = scan_file(&workspace_root(), &[fixture_dir()]).expect("fixtures scan");
    assert!(!findings.is_empty());
    let text: String = findings
        .iter()
        .map(|f| format!("{}\n", Allowlist::format_entry(f)))
        .collect();
    let allowlist = Allowlist::parse(&text).expect("emitted entries must parse back");
    let (kept, suppressed, stale) = allowlist.apply(findings);
    assert!(
        kept.is_empty(),
        "every finding must be suppressed: {kept:#?}"
    );
    assert_eq!(suppressed, allowlist.len());
    assert!(stale.is_empty(), "no entry may be stale: {stale:#?}");
}

#[test]
fn workspace_scan_matches_checked_in_allowlist() {
    // Belt and braces for `cli_exits_zero_on_the_workspace_tree`: the raw
    // scan may only contain findings justified in verify-allowlist.txt.
    let root = workspace_root();
    let findings = scan_workspace(&root).expect("workspace scan");
    let text = std::fs::read_to_string(root.join("verify-allowlist.txt"))
        .expect("checked-in allowlist exists");
    let allowlist = Allowlist::parse(&text).expect("checked-in allowlist parses");
    let (kept, _, stale) = allowlist.apply(findings);
    assert!(kept.is_empty(), "unsuppressed findings: {kept:#?}");
    assert!(stale.is_empty(), "stale allowlist entries: {stale:#?}");
}
