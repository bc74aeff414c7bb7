//! The design rules CI checks with shell steps, run in the tier-1 suite.
//!
//! Each rule is a step of `.github/workflows/ci.yml`; this suite reads the
//! step's `run:` script out of that file and runs it unchanged through
//! `bash -e`, so a rule matches here exactly the lines it matches in CI.
//! Every rule runs on the repository, where it must pass, and on a small tree
//! written to a temporary directory: it must pass on the tree as written and
//! fail once the tree holds one offending line.  The offending lines are
//! written at test time and never committed — a committed one would trip the
//! rules that scan `tests/`.
//!
//! The census step ("Code lines per crate") only prints; [`CEILINGS`] is the
//! ratchet over what it prints.  A change that lowers a crate's count lowers
//! its ceiling; one that raises a ceiling says so and why in CHANGES.md.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Code lines per crate as CI's census counts them: no crate may rise above
/// its line.
const CEILINGS: &[(&str, usize)] = &[
    ("crates/bench/", 2017),
    ("crates/cache/", 764),
    ("crates/core/", 4257),
    ("crates/locks/", 621),
    ("crates/memserver/", 802),
    ("crates/metrics/", 582),
    ("crates/sim/", 2256),
    ("crates/workload/", 738),
    ("vendor/parking_lot/", 89),
    ("vendor/proptest/", 566),
    ("vendor/rand/", 148),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `run:` script of the CI step whose name starts with `name`, with the
/// block's indentation stripped.
fn step(name: &str) -> String {
    let ci = std::fs::read_to_string(repo().join(".github/workflows/ci.yml")).unwrap();
    let mut lines = ci.lines().skip_while(|l| {
        !l.trim_start()
            .strip_prefix("- name: ")
            .is_some_and(|n| n.starts_with(name))
    });
    assert!(lines.next().is_some(), "no CI step named {name:?}");
    assert_eq!(lines.next().map(str::trim), Some("run: |"), "step {name:?}");
    let body: Vec<&str> = lines
        .take_while(|l| l.is_empty() || l.starts_with(&" ".repeat(10)))
        .map(|l| l.get(10..).unwrap_or(""))
        .collect();
    assert!(!body.is_empty(), "step {name:?} runs nothing");
    body.join("\n") + "\n"
}

/// Run the CI step `name` in `dir` as CI runs it.
fn run_step(name: &str, dir: &Path) -> Output {
    Command::new("bash")
        .args(["-e", "-c", &step(name)])
        .current_dir(dir)
        .output()
        .expect("bash runs")
}

fn report(out: &Output) -> String {
    format!(
        "{}\n--- stdout\n{}--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// A directory of its own under the system's temporary directory, removed
/// when dropped.
struct Tree(PathBuf);

impl Tree {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("design-rules-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Tree(dir)
    }

    fn write(&self, files: &[(&str, String)]) {
        for (path, text) in files {
            let path = self.0.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A rule with the tree it passes on and the files that must trip it, each
/// on its own.  A forbidden name is spelled in two halves so that this file
/// never holds it.
struct Rule {
    step: &'static str,
    passes: Vec<(&'static str, String)>,
    trips: Vec<(&'static str, String)>,
}

fn word(a: &str, b: &str) -> String {
    format!("{a}{b}")
}

fn rules() -> Vec<Rule> {
    let one_cost_record = "fn post(c: &C) { c.metrics().add(1); }\n#[cfg(test)]\nmod tests {\n    fn t(c: &C) { c.metrics(); }\n}\n";
    vec![
        Rule {
            step: "Operations wait with await, not a blocking poll",
            passes: vec![
                ("crates/core/src/ops.rs", "async fn op(cx: &Cx) { cx.read().await; }\n".into()),
                ("crates/core/src/exec.rs", word("fn run() { poll_", "token(); }\n")),
                ("crates/core/src/scheduler.rs", "fn go(l: &L) { l.acquire(); }\n".into()),
            ],
            trips: vec![
                ("crates/core/src/ops.rs", word("fn op(cx: &Cx) { cx.drive_", "blocking(); }\n")),
                ("crates/core/src/commit.rs", word("fn f(cx: &Cx) { cx.charge_", "cpu(9); }\n")),
                ("crates/core/src/commit.rs", "fn f(l: &L) { l.release(); }\n".into()),
            ],
        },
        Rule {
            step: "Protocols wait with await",
            passes: vec![("crates/locks/src/manager.rs", "async fn acquire() {}\n".into())],
            trips: vec![
                ("crates/locks/src/manager.rs", word("fn step_", "acquire() {}\n")),
                ("crates/memserver/src/pool.rs", word("enum Alloc", "Step {}\n")),
            ],
        },
        Rule {
            step: "One scheduling rule",
            passes: vec![
                ("crates/core/src/ops.rs", "fn f() {}\n".into()),
                ("docs/ARCHITECTURE.md", "# Architecture\n".into()),
            ],
            trips: vec![
                ("crates/core/src/ops.rs", word("fn f() { drive_", "alone(); }\n")),
                ("crates/core/src/commit.rs", word("let p = Park::", "Exclusive;\n")),
                ("docs/ARCHITECTURE.md", word("`begin_", "release` posts the release.\n")),
            ],
        },
        Rule {
            step: "The substrate names no index RPC",
            passes: vec![("crates/sim/src/rpc.rs", "pub fn post_rpc() {}\n".into())],
            trips: vec![("crates/sim/src/rpc.rs", word("pub struct Rpc", "Request;\n"))],
        },
        Rule {
            step: "One move-right step",
            passes: vec![(
                "crates/core/src/node.rs",
                "fn step(k: u64, h: &H) -> bool { k >= h.fence_high }\n".into(),
            )],
            trips: vec![(
                "crates/core/src/ops.rs",
                "fn walk(k: u64, h: &H) -> bool { k >= h.fence_high }\n".into(),
            )],
        },
        Rule {
            step: "One cost record",
            passes: vec![("crates/sim/src/client.rs", one_cost_record.into())],
            trips: vec![
                ("crates/sim/src/client.rs", one_cost_record.replace("#[cfg(test)]", "")),
                ("crates/sim/src/fabric.rs", word("fn f() { from_", "delta(); }\n")),
            ],
        },
        Rule {
            step: "Simulated clients run on the executor",
            // The rule scans every one of these paths, and fails when one
            // is missing.
            passes: vec![
                ("tests/one.rs", "fn t() { sherman_sim::run(clients); }\n".into()),
                ("crates/sim/src/clock.rs", word("fn register_for_", "thread() {}\n")),
                ("src/lib.rs", String::new()),
                ("examples/one.rs", String::new()),
                ("benchmark/src/main.rs", String::new()),
                ("docs/ARCHITECTURE.md", String::new()),
                ("README.md", String::new()),
            ],
            trips: vec![
                ("tests/one.rs", word("fn t() { spawn_", "clients(4); }\n")),
                ("docs/ARCHITECTURE.md", word("Clients start by `spawn_", "clients`.\n")),
                ("crates/core/src/client.rs", word("fn f() { register_for_", "thread(); }\n")),
            ],
        },
        Rule {
            step: "Architecture document lines",
            passes: vec![("docs/ARCHITECTURE.md", "a line\n".repeat(10))],
            trips: vec![("docs/ARCHITECTURE.md", "a line\n".repeat(100_000))],
        },
    ]
}

#[test]
fn every_design_rule_holds_on_the_repository() {
    for rule in rules() {
        let out = run_step(rule.step, repo());
        assert!(out.status.success(), "{}: {}", rule.step, report(&out));
    }
}

#[test]
fn each_design_rule_trips_on_an_offending_line() {
    for (r, rule) in rules().iter().enumerate() {
        for (t, trip) in rule.trips.iter().enumerate() {
            let tree = Tree::new(&format!("{r}-{t}"));
            tree.write(&rule.passes);
            let out = run_step(rule.step, &tree.0);
            assert!(out.status.success(), "{} on its clean tree: {}", rule.step, report(&out));
            tree.write(std::slice::from_ref(trip));
            let out = run_step(rule.step, &tree.0);
            assert!(!out.status.success(), "{} let {} through", rule.step, trip.0);
        }
    }
}

/// grep exits 2 on a path it cannot read: a rule then fails rather than pass
/// on the paths it could read.  The move-right rule's grep feeds a pipe,
/// whose status is the last command's, so it is checked too.
#[test]
fn a_design_rule_fails_on_a_missing_path() {
    for (step, missing) in [
        ("Simulated clients run on the executor", "examples"),
        ("One move-right step", "crates/core/src"),
    ] {
        let rule = rules().into_iter().find(|r| r.step == step).unwrap();
        let tree = Tree::new(&format!("missing-{}", missing.replace('/', "-")));
        tree.write(&rule.passes);
        std::fs::remove_dir_all(tree.0.join(missing)).unwrap();
        let out = run_step(step, &tree.0);
        let report = report(&out);
        assert!(!out.status.success(), "{step} passed without {missing}: {report}");
    }
}

/// `(crate, code lines)` as the census step prints them in `dir`.
fn census(dir: &Path) -> Vec<(String, usize)> {
    let out = run_step("Code lines per crate", dir);
    assert!(out.status.success(), "census: {}", report(&out));
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| {
            let (krate, lines) = line.split_once(' ').expect("`crate lines`");
            (krate.to_string(), lines.trim().parse().expect("a line count"))
        })
        .collect()
}

/// The crates of `counted` above their ceiling, or missing from the table.
fn over_ceiling(counted: &[(String, usize)], ceilings: &[(&str, usize)]) -> Vec<String> {
    counted
        .iter()
        .filter(|(krate, lines)| {
            let ceiling = ceilings.iter().find(|(c, _)| c == krate).map(|&(_, n)| n);
            ceiling.is_none_or(|ceiling| *lines > ceiling)
        })
        .map(|(krate, lines)| format!("{krate} {lines}"))
        .collect()
}

#[test]
fn no_crate_rises_above_its_census_ceiling() {
    let counted = census(repo());
    assert_eq!(counted.len(), CEILINGS.len(), "{counted:?}");
    let over = over_ceiling(&counted, CEILINGS);
    assert!(over.is_empty(), "over the census ceiling (or not in it): {over:?}");
}

#[test]
fn the_census_ratchet_trips_on_a_crate_that_grew() {
    let tree = Tree::new("census");
    let code = "// a comment\nfn a() {\n    b();\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
    tree.write(&[("crates/one/src/lib.rs", code.to_string())]);
    let counted: Vec<_> = census(&tree.0)
        .into_iter()
        .filter(|(krate, _)| krate.starts_with("crates/"))
        .collect();
    assert_eq!(counted, [("crates/one/".to_string(), 3)]);
    assert!(over_ceiling(&counted, &[("crates/one/", 3)]).is_empty());
    assert_eq!(over_ceiling(&counted, &[("crates/one/", 2)]), ["crates/one/ 3"]);
    assert_eq!(over_ceiling(&counted, &[]), ["crates/one/ 3"]);
}
