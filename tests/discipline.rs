//! Mutation self-test for the label-discipline checker (static + runtime).
//!
//! The checker is only trustworthy if it demonstrably *fires*: each test
//! here seeds a §3.3 violation — a write without a check, a stale hint
//! consumed unverified, a parked dirty page dropped — and asserts that the
//! static pass (`xtask::lint_sources`) and the runtime auditor
//! (`DiskDrive::enable_audit`) both catch their half of it. The
//! interprocedural pass (`xtask::analyze_sources`) gets the same treatment
//! with mutations only visible across call edges — an indirect raw op, a
//! swallowed error, hash-order iteration, an opcode nobody answers. The
//! real tree must stay clean under all the rules, and the auditor must cost
//! zero *simulated* time, which the last test checks as exact clock
//! equality.

use alto::disk::{
    Action, AuditRule, DiskAddress, DiskDrive, DiskModel, Label, SectorBuf, SectorOp, UnparkOutcome,
};
use alto::fs::{dir, FileSystem};
use alto::sim::{SimClock, Trace};
use alto::streams::{DiskByteStream, Stream};

fn audited_drive() -> (DiskDrive, alto::disk::Auditor) {
    let mut drive =
        DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
    // `enable_audit` installs a fresh non-strict auditor (replacing any
    // strict one the ALTO_AUDIT environment variable may have installed),
    // so the seeded violations below record instead of panicking.
    let aud = drive.enable_audit();
    (drive, aud)
}

fn live_label(page: u16) -> Label {
    Label {
        fid: [21, 42],
        version: 1,
        page_number: page,
        length: 512,
        next: DiskAddress::NIL,
        prev: DiskAddress::NIL,
    }
}

// --- Mutation 1: a value write with no label check in the sector visit. ---
// Static half: `raw-disk-op` (the only way to issue such an op from fs code
// is to bypass the fs::page wrappers). Runtime half: `check-before-write`.

#[test]
fn runtime_catches_write_without_check() {
    let (mut drive, aud) = audited_drive();
    let unchecked_write = SectorOp {
        header: Action::Check,
        label: Action::Read,
        value: Action::Write,
    };
    let mut buf = SectorBuf::zeroed();
    alto::disk::Disk::do_op(&mut drive, DiskAddress(10), unchecked_write, &mut buf).unwrap();
    let violations = aud.violations();
    assert!(
        violations
            .iter()
            .any(|v| v.rule == AuditRule::CheckBeforeWrite),
        "auditor must flag a value write whose label action is a plain read, got {violations:?}"
    );
}

#[test]
fn static_catches_raw_disk_op() {
    let smuggled_write = r#"
fn smuggle_a_write(&mut self, da: DiskAddress, buf: &mut SectorBuf) {
    self.disk.do_op(da, SectorOp::WRITE, buf).ok();
}
"#;
    // The lending read and the staged write forms, called straight from a
    // stream: neither spelling contains `.do_batch(`.
    let lent_read = r#"
fn peek_pages(&mut self, das: &[DiskAddress]) -> usize {
    let mut seen = 0;
    self.disk.do_batch_read(das, |_, _| seen += 1);
    seen
}
"#;
    let sourced_write = r#"
fn flush_pages(&mut self, das: &[DiskAddress]) {
    self.disk.do_batch_write(das, |i| self.sources[i], |_, _| {});
}
"#;
    for (path, seeded) in [
        ("crates/fs/src/mutant.rs", smuggled_write),
        ("crates/streams/src/mutant.rs", lent_read),
        ("crates/streams/src/mutant.rs", sourced_write),
    ] {
        let report = xtask::lint_sources(&[(path, seeded)]);
        assert!(
            report.violations.iter().any(|v| v.rule == "raw-disk-op"),
            "lint must flag a raw disk request outside fs::page in {seeded}, got {:?}",
            report.violations
        );
    }
}

// --- Mutation 2: a hint trusted without re-verification. ---
// Static half: `hint-reverify`. Runtime half: `unverified-label-write` (a
// label rewrite that skipped the check pass is exactly what trusting a
// stale hint produces at the drive).

#[test]
fn runtime_catches_label_write_without_check_pass() {
    let (mut drive, aud) = audited_drive();
    // The two-pass allocate protocol is CHECK_LABEL then WRITE_LABEL; going
    // straight to WRITE_LABEL trusts a hint that the sector is still free.
    let mut buf = SectorBuf::with_label(live_label(1));
    alto::disk::Disk::do_op(&mut drive, DiskAddress(11), SectorOp::WRITE_LABEL, &mut buf).unwrap();
    let violations = aud.violations();
    assert!(
        violations
            .iter()
            .any(|v| v.rule == AuditRule::UnverifiedLabelWrite),
        "auditor must flag a label rewrite with no prior check pass, got {violations:?}"
    );
}

#[test]
fn runtime_accepts_the_two_pass_protocol() {
    let (mut drive, aud) = audited_drive();
    let mut buf = SectorBuf::with_label(Label::FREE);
    alto::disk::Disk::do_op(&mut drive, DiskAddress(11), SectorOp::CHECK_LABEL, &mut buf).unwrap();
    let mut buf = SectorBuf::with_label(live_label(1));
    alto::disk::Disk::do_op(&mut drive, DiskAddress(11), SectorOp::WRITE_LABEL, &mut buf).unwrap();
    assert_eq!(
        aud.violation_count(),
        0,
        "check pass then label write is the sanctioned §3.3 sequence: {:?}",
        aud.violations()
    );
}

#[test]
fn static_catches_unverified_hint_use() {
    let seeded = r#"
fn stale_hint_shortcut(&mut self, name: &str) -> Option<DiskAddress> {
    let hit = self.cache.lookup_name(self.root, name)?;
    Some(hit.da)
}
"#;
    let report = xtask::lint_sources(&[("crates/fs/src/mutant.rs", seeded)]);
    assert!(
        report.violations.iter().any(|v| v.rule == "hint-reverify"),
        "lint must flag a hint consumed without re-verification, got {:?}",
        report.violations
    );
}

// --- Mutation 3: a parked dirty page dropped without reaching the medium. ---
// Static half: `diskerror-unwrap` (the way a drain error turns into silent
// data loss is an unwrap/ok() swallowing the failed write). Runtime half:
// `park-accounting`.

#[test]
fn runtime_catches_dropped_parked_page() {
    let (mut drive, aud) = audited_drive();
    let da = DiskAddress(12);
    alto::disk::Disk::note_park(&mut drive, da, 3);
    assert_eq!(aud.parked_outstanding(), 1);
    alto::disk::Disk::note_unpark(&mut drive, da, 3, UnparkOutcome::Dropped);
    let violations = aud.violations();
    assert!(
        violations
            .iter()
            .any(|v| v.rule == AuditRule::ParkAccounting),
        "auditor must flag a parked page discarded without a write, got {violations:?}"
    );
    assert_eq!(aud.parked_outstanding(), 0);
}

#[test]
fn runtime_catches_uncovered_drain_claim() {
    let (mut drive, aud) = audited_drive();
    let da = DiskAddress(13);
    alto::disk::Disk::note_park(&mut drive, da, 4);
    // Claiming the page drained when no write to `da` was ever observed is
    // the lying-buffer variant of the same data loss.
    alto::disk::Disk::note_unpark(&mut drive, da, 4, UnparkOutcome::Drained);
    assert!(aud
        .violations()
        .iter()
        .any(|v| v.rule == AuditRule::ParkAccounting));
}

#[test]
fn static_catches_unwrap_on_disk_paths() {
    let seeded = r#"
fn drop_failed_drain(&mut self) {
    self.drain_batch().unwrap();
}
"#;
    let report = xtask::lint_sources(&[("crates/streams/src/mutant.rs", seeded)]);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "diskerror-unwrap"),
        "lint must flag unwrap on a fallible disk path, got {:?}",
        report.violations
    );
}

// --- The remaining static rules also still fire. ---

#[test]
fn static_catches_clock_mutation_outside_disk() {
    let seeded = r#"
fn cheat_time(&mut self) {
    self.clock.advance(SimTime::from_millis(5));
}
"#;
    let report = xtask::lint_sources(&[("crates/core/src/mutant.rs", seeded)]);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "clock-discipline"),
        "lint must flag clock mutation outside crates/disk and crates/sim, got {:?}",
        report.violations
    );
}

#[test]
fn clock_discipline_catches_a_forward_store_outside_disk() {
    // `advance_to` never rewinds, but a ready reply that jumps the shared
    // clock to an instant of its own choosing skews every latency just the
    // same: outside crates/disk and crates/sim it needs an annotation.
    let seeded = r#"
fn reply_when_ready(&mut self, ready: SimTime) {
    self.clock.advance_to(ready);
}

fn pump_replies(&mut self, ready: SimTime) {
    self.reply_when_ready(ready);
}
"#;
    let path = "crates/net/src/mutant.rs";
    let lint = xtask::lint_sources(&[(path, seeded)]);
    assert!(
        lint.violations.iter().any(|v| v.rule == "clock-discipline"),
        "lint must flag `.advance_to(` on a clock outside crates/disk and crates/sim, got {:?}",
        lint.violations
    );
    let analyze = xtask::analyze_sources(&[(path, seeded)]);
    assert!(
        analyze.violations.iter().any(|v| {
            v.rule == "clock-discipline-transitive" && v.message.contains("pump_replies")
        }),
        "analyze must flag the caller that reaches `.advance_to(`, got {:?}",
        analyze.violations
    );
}

#[test]
fn static_catches_stale_allow() {
    let seeded = "// lint: allow(raw-disk-op) — left over from a refactor\nfn innocent() {}\n";
    let report = xtask::lint_sources(&[("crates/fs/src/mutant.rs", seeded)]);
    assert!(
        report.violations.iter().any(|v| v.rule == "stale-allow"),
        "lint must flag an allow annotation that suppresses nothing, got {:?}",
        report.violations
    );
}

#[test]
fn static_annotated_seed_is_suppressed_and_recorded() {
    let seeded = r#"
fn drop_failed_drain(&mut self) {
    // lint: allow(diskerror-unwrap) — seeded exception for the self-test
    self.drain_batch().unwrap();
}
"#;
    let report = xtask::lint_sources(&[("crates/streams/src/mutant.rs", seeded)]);
    assert!(report.is_clean(), "got {:?}", report.violations);
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].rule, "diskerror-unwrap");
}

// --- The real tree is clean under the same rules. ---

#[test]
fn workspace_tree_passes_the_lint() {
    let report = xtask::lint_workspace(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace sources must be readable");
    assert!(
        report.is_clean(),
        "`cargo xtask lint` must pass on the tree:\n{}",
        report
            .violations
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_checked > 50, "the walk found the workspace");
}

// --- The interprocedural rules (`cargo xtask analyze`) also fire. Each
// mutation here is invisible to the per-function lint — the violation only
// exists across a call edge or across the whole protocol surface. ---

#[test]
fn analyze_catches_raw_op_reached_through_a_helper() {
    // The helper contains the raw op; the caller never mentions do_op at
    // all, so only the call-graph pass can see that it reaches one.
    let through_do_op = r#"
fn helper_with_raw_op(&mut self, da: DiskAddress, buf: &mut SectorBuf) {
    self.disk.do_op(da, SectorOp::WRITE, buf).expect("write");
}

fn innocent_looking_caller(&mut self, da: DiskAddress) {
    let mut buf = SectorBuf::zeroed();
    self.helper_with_raw_op(da, &mut buf);
}
"#;
    // The same shape through the lending read form.
    let through_lent_read = r#"
fn helper_with_raw_op(&mut self, das: &[DiskAddress]) -> usize {
    let mut seen = 0;
    self.disk.do_batch_read(das, |_, _| seen += 1);
    seen
}

fn innocent_looking_caller(&mut self, da: DiskAddress) -> usize {
    self.helper_with_raw_op(&[da])
}
"#;
    for seeded in [through_do_op, through_lent_read] {
        let report = xtask::analyze_sources(&[("crates/fs/src/mutant.rs", seeded)]);
        assert!(
            report.violations.iter().any(|v| {
                v.rule == "raw-disk-op-transitive" && v.message.contains("innocent_looking_caller")
            }),
            "analyze must flag the caller that reaches a raw op indirectly in {seeded}, got {:?}",
            report.violations
        );
    }
}

#[test]
fn analyze_catches_swallowed_disk_error() {
    let forgetful_flush = r#"
fn forgetful_flush(&mut self, file: FileFullName, bytes: &[u8]) {
    let _ = self.fs.write_file(file, bytes);
}
"#;
    // The chained-transfer routine's result, split over lines by rustfmt.
    let forgetful_drain = r#"
fn forgetful_drain(&mut self, fs: &mut FileSystem<D>) {
    let _ = alto_fs::page::transfer(
        fs.disk_mut(),
        self.file.fv,
        &self.write_behind,
        None,
        0,
        &mut self.write_results,
        &mut self.read_results,
    );
}
"#;
    // The link walk's result, whose error is a failed check or a cycle.
    let forgetful_seek = r#"
fn forgetful_seek(&mut self, fs: &mut FileSystem<D>, from: PageName) {
    let _ = follow(fs.disk_mut(), from, |_, _, _| false);
}
"#;
    // A staged batch write's per-request results, dropped whole.
    let forgetful_batch = r#"
fn forgetful_batch(&mut self, das: &[DiskAddress]) {
    let _ = self.disk.do_batch_write(das, |i| self.sources[i], |_, _| {});
}
"#;
    for (path, seeded) in [
        ("crates/fs/src/mutant.rs", forgetful_flush),
        ("crates/streams/src/mutant.rs", forgetful_drain),
        ("crates/streams/src/mutant.rs", forgetful_seek),
        ("crates/fs/src/mutant.rs", forgetful_batch),
    ] {
        let report = xtask::analyze_sources(&[(path, seeded)]);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == "error-path-discard"),
            "analyze must flag a DiskError discarded via `let _ =` in {path}, got {:?}",
            report.violations
        );
    }
}

#[test]
fn analyze_catches_swallowed_send_result() {
    // The blocking send and the non-blocking post both return the
    // medium's refusal.
    for call in ["ether.send(reply).ok();", "ether.post(reply).ok();"] {
        let seeded = format!(
            "\nfn fire_and_forget(&mut self, ether: &mut Ether, reply: Packet) {{\n    {call}\n}}\n"
        );
        let report = xtask::analyze_sources(&[("crates/net/src/mutant.rs", seeded.as_str())]);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == "error-path-discard"),
            "analyze must flag `{call}`, a send Result swallowed via `.ok()`, got {:?}",
            report.violations
        );
    }
}

#[test]
fn analyze_catches_hashmap_iteration_on_a_planning_path() {
    let seeded = r#"
fn plan_batches(&mut self, pending: &HashMap<u16, Request>) -> Vec<Request> {
    let mut plan = Vec::new();
    for (_seq, req) in pending.iter() {
        plan.push(req.clone());
    }
    plan
}
"#;
    let report = xtask::analyze_sources(&[("crates/net/src/mutant.rs", seeded)]);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "hashmap-iteration"),
        "analyze must flag hash-order iteration in batch planning, got {:?}",
        report.violations
    );
}

#[test]
fn analyze_catches_unhandled_opcode() {
    let seeded = r#"
pub const SHUTDOWN_REQUEST: PacketType = PacketType::Other(0x70);
"#;
    let report = xtask::analyze_sources(&[("crates/net/src/mutant.rs", seeded)]);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "protocol-totality" && v.message.contains("no dispatch site")),
        "analyze must flag a request opcode nobody dispatches, got {:?}",
        report.violations
    );
}

#[test]
fn analyze_catches_dispatched_request_that_never_replies() {
    let seeded = r#"
pub const PING_REQUEST: PacketType = PacketType::Other(0x71);

fn dispatch(&mut self, p: &Packet) {
    if p.ptype == PING_REQUEST {
        self.stats.pings += 1;
    }
}
"#;
    let report = xtask::analyze_sources(&[("crates/net/src/mutant.rs", seeded)]);
    assert!(
        report.violations.iter().any(
            |v| v.rule == "protocol-totality" && v.message.contains("never reaches a `.send(`")
        ),
        "analyze must flag a handled request with no reply path, got {:?}",
        report.violations
    );
}

#[test]
fn analyze_catches_host_threads_anywhere() {
    let seeded = r#"
fn sneak_parallelism(&mut self) {
    let handle = thread::spawn(|| expensive_scan());
    handle.join().expect("join");
}
"#;
    // A thread-local free list is per-thread state shared by every object
    // on the thread — the same rule.
    let pooled = r#"
thread_local! {
    static SPARE: RefCell<Vec<Vec<u16>>> = const { RefCell::new(Vec::new()) };
}
"#;
    // Every crate is covered, the disk crate included.
    for (path, source) in [
        ("crates/fs/src/mutant.rs", seeded),
        ("crates/disk/src/mutant.rs", seeded),
        ("crates/net/src/mutant.rs", pooled),
    ] {
        let report = xtask::analyze_sources(&[(path, source)]);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == "thread-discipline"),
            "analyze must flag host threads in {path}, got {:?}",
            report.violations
        );
    }
}

#[test]
fn analyze_catches_clock_mutation_reached_through_a_helper() {
    let seeded = r#"
fn skip_ahead(&mut self) {
    self.clock.advance(SimTime::from_millis(5));
}

fn tick_looking_wrapper(&mut self) {
    self.skip_ahead();
}
"#;
    let report = xtask::analyze_sources(&[("crates/core/src/mutant.rs", seeded)]);
    assert!(
        report.violations.iter().any(|v| {
            v.rule == "clock-discipline-transitive" && v.message.contains("tick_looking_wrapper")
        }),
        "analyze must flag the caller that reaches a clock write, got {:?}",
        report.violations
    );
}

#[test]
fn analyze_allow_on_the_direct_site_sanctions_the_callers() {
    // Annotating the raw op itself (the base `raw-disk-op` escape hatch)
    // vouches for the whole path: the transitive rule must stay quiet for
    // the helper's callers instead of demanding a second annotation.
    let seeded = r#"
fn helper_with_raw_op(&mut self, da: DiskAddress, buf: &mut SectorBuf) {
    // lint: allow(raw-disk-op) — seeded exception for the self-test
    self.disk.do_op(da, SectorOp::WRITE, buf).expect("write");
}

fn innocent_looking_caller(&mut self, da: DiskAddress) {
    let mut buf = SectorBuf::zeroed();
    self.helper_with_raw_op(da, &mut buf);
}
"#;
    let report = xtask::analyze_sources(&[("crates/fs/src/mutant.rs", seeded)]);
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == "raw-disk-op-transitive"),
        "an allow on the direct site must sanction its callers, got {:?}",
        report.violations
    );
}

#[test]
fn analyze_annotated_seed_is_suppressed_and_recorded() {
    let seeded = r#"
fn forgetful_flush(&mut self, file: FileFullName, bytes: &[u8]) {
    // lint: allow(error-path-discard) — seeded exception for the self-test
    let _ = self.fs.write_file(file, bytes);
}
"#;
    let report = xtask::analyze_sources(&[("crates/fs/src/mutant.rs", seeded)]);
    assert!(report.is_clean(), "got {:?}", report.violations);
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].rule, "error-path-discard");
}

// --- ...and the real tree is clean under the interprocedural rules too. ---

#[test]
fn workspace_tree_passes_the_analyze_pass() {
    let report = xtask::analyze_workspace(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace sources must be readable");
    assert!(
        report.is_clean(),
        "`cargo xtask analyze` must pass on the tree:\n{}",
        report
            .violations
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_checked > 50, "the walk found the workspace");
}

// --- A realistic workload is violation-free under the auditor... ---

fn run_stream_workload(fs: &mut FileSystem<DiskDrive>) {
    let root = fs.root_dir();
    let f = dir::create_named_file(fs, root, "audit.dat").unwrap();
    let bytes: Vec<u8> = (0..8 * 512u32).map(|i| (i % 249) as u8).collect();
    let mut s = DiskByteStream::open(fs, f).unwrap();
    for &b in &bytes {
        s.put_byte(fs, b).unwrap();
    }
    s.close(fs).unwrap();
    let mut s = DiskByteStream::open(fs, f).unwrap();
    let mut back = vec![0u8; bytes.len()];
    s.read_bytes(fs, &mut back).unwrap();
    s.close(fs).unwrap();
    assert_eq!(back, bytes);
}

#[test]
fn audited_workload_is_violation_free() {
    let (drive, aud) = audited_drive();
    let mut fs = FileSystem::format(drive).unwrap();
    run_stream_workload(&mut fs);
    assert_eq!(
        aud.violation_count(),
        0,
        "write-behind + readahead workload must satisfy §3.3: {:?}",
        aud.violations()
    );
    assert_eq!(
        aud.parked_outstanding(),
        0,
        "every parked page must have drained by close"
    );
    assert!(aud.ops_observed() > 50, "the auditor actually mirrored I/O");
}

// --- ...and the auditor costs zero simulated time. ---

#[test]
fn auditor_adds_no_simulated_time() {
    let run = |audit: bool| {
        let mut drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        if audit {
            drive.enable_audit();
        } else {
            alto::disk::Disk::set_audit_enabled(&mut drive, false);
        }
        let mut fs = FileSystem::format(drive).unwrap();
        run_stream_workload(&mut fs);
        alto::disk::Disk::clock(fs.disk()).now()
    };
    let (with_audit, without_audit) = (run(true), run(false));
    assert_eq!(
        with_audit, without_audit,
        "the auditor must be invisible to the timing model (≤2% overhead \
         criterion, met exactly: the simulated clocks are bit-identical)"
    );
}
