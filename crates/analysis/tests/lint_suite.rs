//! The fixture corpus: every lint must fire on its known-bad fixture and
//! fall silent on the waived variant — so a lint that rots into a no-op
//! fails CI here, not silently in the field. The final test runs the whole
//! suite over the live workspace: the tree must stay clean.

use analysis::{lints, Workspace};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// Build a fixture workspace whose files land in lint-scoped crates.
fn ws(files: &[(&str, &str)], docs: &[(&str, &str)]) -> Workspace {
    let owned_files: Vec<(String, String)> = files
        .iter()
        .map(|(rel, fixture_name)| ((*rel).to_string(), fixture(fixture_name)))
        .collect();
    let owned_docs: Vec<(String, String)> = docs
        .iter()
        .map(|(rel, fixture_name)| ((*rel).to_string(), fixture(fixture_name)))
        .collect();
    Workspace::from_sources(
        &owned_files
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect::<Vec<_>>(),
        &owned_docs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn determinism_fires_on_bad_fixture() {
    let ws = ws(&[("crates/core/src/bad.rs", "determinism/bad.rs")], &[]);
    let report = analysis::run(&ws);
    let msgs: Vec<&str> = report.active.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("Instant")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("SystemTime")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("thread_rng")), "{msgs:?}");
    assert!(
        msgs.iter()
            .any(|m| m.contains("`values`") && m.contains("routes")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("for") && m.contains("seen")),
        "{msgs:?}"
    );
    assert!(report.active.iter().all(|f| f.lint == lints::DETERMINISM));
}

#[test]
fn determinism_waivers_suppress_and_are_all_used() {
    let ws = ws(
        &[("crates/core/src/waived.rs", "determinism/waived.rs")],
        &[],
    );
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.waived.len(), 2, "{:?}", report.waived);
}

#[test]
fn msg_exhaustiveness_fires_on_dropped_variant() {
    let ws = ws(
        &[
            ("crates/core/src/msg.rs", "exhaustiveness/msg.rs"),
            ("crates/core/src/node.rs", "exhaustiveness/bad_node.rs"),
        ],
        &[],
    );
    let report = analysis::run(&ws);
    assert_eq!(report.active.len(), 1, "{}", report.render());
    assert_eq!(report.active[0].lint, lints::MSG_EXHAUSTIVENESS);
    assert!(report.active[0].message.contains("FixtureMsg::Bye"));
    assert_eq!(report.active[0].rel, "crates/core/src/node.rs");
}

#[test]
fn msg_exhaustiveness_waiver_suppresses() {
    let ws = ws(
        &[
            ("crates/core/src/msg.rs", "exhaustiveness/msg.rs"),
            ("crates/core/src/node.rs", "exhaustiveness/waived_node.rs"),
        ],
        &[],
    );
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.waived.len(), 1);
}

#[test]
fn timer_refire_fires_on_unrearmed_tag() {
    let ws = ws(&[("crates/core/src/bad.rs", "timer_refire/bad.rs")], &[]);
    let report = analysis::run(&ws);
    assert_eq!(report.active.len(), 1, "{}", report.render());
    assert_eq!(report.active[0].lint, lints::TIMER_REFIRE);
    assert!(report.active[0].message.contains("PING_TAG"));
}

#[test]
fn timer_refire_waiver_suppresses() {
    let ws = ws(
        &[("crates/core/src/waived.rs", "timer_refire/waived.rs")],
        &[],
    );
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.waived.len(), 1);
}

#[test]
fn metrics_completeness_fires_on_ghost_field() {
    let ws = ws(
        &[
            ("crates/core/src/metrics.rs", "metrics/metrics.rs"),
            ("crates/bench/src/report.rs", "metrics/report.rs"),
        ],
        &[("docs/BENCHMARKS.md", "metrics/BENCHMARKS.md")],
    );
    let report = analysis::run(&ws);
    // ghost_counter is both unexported and undocumented: two findings.
    assert_eq!(report.active.len(), 2, "{}", report.render());
    assert!(report
        .active
        .iter()
        .all(|f| f.lint == lints::METRICS_COMPLETENESS && f.message.contains("ghost_counter")));
}

#[test]
fn metrics_completeness_waiver_suppresses_both_findings() {
    let ws = ws(
        &[
            ("crates/core/src/metrics.rs", "metrics/waived_metrics.rs"),
            ("crates/bench/src/report.rs", "metrics/report.rs"),
        ],
        &[("docs/BENCHMARKS.md", "metrics/BENCHMARKS.md")],
    );
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.waived.len(), 2);
}

#[test]
fn ballot_discipline_fires_on_unmasked_comparison() {
    let ws = ws(
        &[
            ("crates/paxos/src/ballot.rs", "ballot/ballot.rs"),
            ("crates/paxos/src/leader.rs", "ballot/bad_use.rs"),
        ],
        &[],
    );
    let report = analysis::run(&ws);
    assert_eq!(report.active.len(), 1, "{}", report.render());
    assert_eq!(report.active[0].lint, lints::BALLOT_DISCIPLINE);
    assert_eq!(report.active[0].rel, "crates/paxos/src/leader.rs");
}

#[test]
fn ballot_discipline_waiver_suppresses() {
    let ws = ws(
        &[
            ("crates/paxos/src/ballot.rs", "ballot/ballot.rs"),
            ("crates/paxos/src/leader.rs", "ballot/waived_use.rs"),
        ],
        &[],
    );
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.waived.len(), 1);
}

#[test]
fn persist_before_ack_fires_on_unpersisted_replies() {
    let ws = ws(&[("crates/core/src/service.rs", "persist/bad.rs")], &[]);
    let report = analysis::run(&ws);
    assert_eq!(report.active.len(), 2, "{}", report.render());
    assert!(report
        .active
        .iter()
        .all(|f| f.lint == lints::PERSIST_BEFORE_ACK));
    assert!(report.active[0].message.contains("PrepareReply"));
    assert!(report.active[1].message.contains("AcceptReply"));
}

#[test]
fn persist_before_ack_waiver_suppresses() {
    let ws = ws(&[("crates/core/src/service.rs", "persist/waived.rs")], &[]);
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.waived.len(), 2);
}

#[test]
fn persist_before_ack_accepts_replies_handed_to_the_release_path() {
    let ws = ws(&[("crates/core/src/service.rs", "persist/held.rs")], &[]);
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.waived.is_empty());
}

#[test]
fn persist_before_ack_fires_on_replies_sent_before_the_sync() {
    let ws = ws(
        &[("crates/core/src/service.rs", "persist/sent_before_sync.rs")],
        &[],
    );
    let report = analysis::run(&ws);
    assert_eq!(report.active.len(), 2, "{}", report.render());
    assert!(report
        .active
        .iter()
        .all(|f| f.lint == lints::PERSIST_BEFORE_ACK
            && f.message.contains("ctx.send")
            && f.message.contains(lints::persist::RELEASE_PATH)));
    assert!(report.active[0].message.contains("PrepareReply"));
    assert!(report.active[1].message.contains("AcceptReply"));
}

#[test]
fn persist_before_ack_fires_on_a_vote_copy_sent_before_the_sync() {
    let ws = ws(
        &[(
            "crates/core/src/service.rs",
            "persist/copy_sent_before_sync.rs",
        )],
        &[],
    );
    let report = analysis::run(&ws);
    assert_eq!(report.active.len(), 1, "{}", report.render());
    let finding = &report.active[0];
    assert_eq!(finding.lint, lints::PERSIST_BEFORE_ACK);
    assert!(
        finding.message.contains("Msg::VoteCopy"),
        "{}",
        finding.message
    );
    assert!(finding.message.contains("ctx.send"), "{}", finding.message);
}

#[test]
fn stale_waiver_fails_the_run() {
    let ws = Workspace::from_sources(
        &[(
            "crates/core/src/x.rs",
            "// lint:allow(determinism): nothing here violates anything\nfn quiet() {}\n",
        )],
        &[],
    );
    let report = analysis::run(&ws);
    assert!(!report.is_clean());
    assert_eq!(report.unused_waivers.len(), 1);
    assert_eq!(report.unused_waivers[0].lint, "unused-waiver");
}

/// The suite's own CI gate: the live workspace must be lint-clean. Every
/// intentional exception is waived inline with a reason; anything else that
/// fires here is a real protocol hazard introduced since this PR.
#[test]
fn live_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let ws = Workspace::load(&root).expect("load workspace");
    assert!(
        ws.files.len() > 20,
        "workspace loader found only {} files — scan roots moved?",
        ws.files.len()
    );
    let report = analysis::run(&ws);
    assert!(report.is_clean(), "\n{}", report.render());
    // The waiver inventory is intentional and exact: wall-clock use in the
    // parallel (real-time) runtime, three sites in `simnet/src/parallel.rs`.
    // A new waiver updates this count and docs/ANALYSIS.md together.
    assert_eq!(
        report.waived.len(),
        3,
        "expected exactly the inventoried exceptions: {:?}",
        report.waived
    );
    assert!(
        report
            .waived
            .iter()
            .all(|w| w.finding.rel == "crates/simnet/src/parallel.rs"),
        "{:?}",
        report.waived
    );
}
