//! End-to-end failover: a primary with a WAL-shipping standby, killed and
//! replaced, with sessions riding across the loss.
//!
//! These are the proof obligations from the replication design:
//!
//! * zero committed (semi-sync acknowledged) writes lost across failover;
//! * no DML applied twice — acknowledged work replays from the status
//!   table, unacknowledged work is resubmitted exactly once;
//! * a deposed primary is fenced stickily: it refuses logins and writes
//!   even across its own restart.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use phoenix_core::PhoenixConnection;
use phoenix_driver::{error::codes, DriverError, Environment};
use phoenix_engine::{CommitMode, EngineConfig};
use phoenix_repl::{Shipper, Standby, StandbyConfig};
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;
use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::{Request, Response};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-repl-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn semi_sync() -> EngineConfig {
    EngineConfig {
        commit_mode: CommitMode::SemiSync,
        ..EngineConfig::default()
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn count(conn: &mut phoenix_driver::Connection, sql: &str) -> i64 {
    match conn.execute(sql).unwrap().rows()[0][0] {
        Value::Int(n) => n,
        ref other => panic!("expected integer count, got {other:?}"),
    }
}

/// The tentpole proof: every write the primary acknowledged under
/// semi-sync is served by the standby after promotion, and the promoted
/// standby is a fully writable primary on the same address.
#[test]
fn promotion_preserves_every_acknowledged_write() {
    let pdir = temp_dir("promo-p");
    let sdir = temp_dir("promo-s");
    let mut h = ServerHarness::start(&pdir, semi_sync()).unwrap();
    let standby = Standby::start(&sdir, StandbyConfig::default()).unwrap();
    let shipper = Shipper::start(h.shared_engine().unwrap(), standby.addr());

    let env = Environment::new();
    let mut c = env.connect(&h.addr(), "app", "test").unwrap();
    c.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
    for i in 0..100 {
        c.execute(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))
            .unwrap();
    }
    // Semi-sync already guarantees the standby holds every acknowledged
    // commit; wait for full catch-up (trailing markers) to be strict.
    let target = h.with_engine(|e| e.last_gsn()).unwrap();
    wait_until("standby catch-up", || standby.applied_gsn() >= target);

    // Server loss, then promotion.
    h.crash().unwrap();
    shipper.stop();
    let epoch = standby.promote(0).unwrap();
    assert!(epoch >= 2, "promotion must outrank the seed epoch");
    assert!(standby.is_promoted());

    let mut c2 = env.connect(&standby.addr(), "app", "test").unwrap();
    assert_eq!(count(&mut c2, "SELECT COUNT(*) FROM t"), 100);
    for i in [0i64, 57, 99] {
        assert_eq!(
            count(&mut c2, &format!("SELECT COUNT(*) FROM t WHERE id = {i}")),
            1,
            "row {i} lost or duplicated across failover"
        );
    }
    // The promoted standby is a real primary: writes work.
    c2.execute("INSERT INTO t VALUES (1000, 'after-failover')")
        .unwrap();
    assert_eq!(count(&mut c2, "SELECT COUNT(*) FROM t"), 101);

    drop(c2);
    drop(standby);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
}

/// The commit-mode knob: under semi-sync, an acknowledged statement's
/// commit record is already on the standby when `execute` returns.
#[test]
fn semi_sync_ack_means_standby_holds_the_commit() {
    let pdir = temp_dir("ss-p");
    let sdir = temp_dir("ss-s");
    let h = ServerHarness::start(&pdir, semi_sync()).unwrap();
    let standby = Standby::start(&sdir, StandbyConfig::default()).unwrap();
    let _shipper = Shipper::start(h.shared_engine().unwrap(), standby.addr());

    let env = Environment::new();
    let mut c = env.connect(&h.addr(), "app", "test").unwrap();
    c.execute("CREATE TABLE s (v INT)").unwrap();
    // Semi-sync engages once a shipper is attached; the thread started
    // above attaches on its own schedule.
    wait_until("shipper attach + catch-up", || {
        h.with_engine(|e| e.repl_acked_gsn() >= e.last_gsn())
            .unwrap()
    });
    for i in 0..10 {
        c.execute(&format!("INSERT INTO s VALUES ({i})")).unwrap();
        // The INSERT's commit is this session's highest allocated GSN, and
        // semi-sync blocked until the standby acknowledged it.
        let (acked, last) = h
            .with_engine(|e| (e.repl_acked_gsn(), e.last_gsn()))
            .unwrap();
        assert!(
            acked >= last,
            "semi-sync returned before the standby acked: acked {acked} < last {last}"
        );
    }
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
}

/// Split-brain defense (the fencing satellite): after promotion the old
/// primary is fenced by the supervisor's `Promote` kill switch — it
/// refuses new logins and in-session writes, and the refusal is *sticky*
/// across its own crash and restart.
#[test]
fn deposed_primary_is_fenced_stickily_across_restart() {
    let pdir = temp_dir("fence-p");
    let sdir = temp_dir("fence-s");
    let mut h = ServerHarness::start(&pdir, semi_sync()).unwrap();
    let standby = Standby::start(&sdir, StandbyConfig::default()).unwrap();
    let shipper = Shipper::start(h.shared_engine().unwrap(), standby.addr());

    let env = Environment::new();
    let mut c = env.connect(&h.addr(), "app", "test").unwrap();
    c.execute("CREATE TABLE f (v INT)").unwrap();
    c.execute("INSERT INTO f VALUES (1)").unwrap();
    let target = h.with_engine(|e| e.last_gsn()).unwrap();
    wait_until("standby catch-up", || standby.applied_gsn() >= target);

    // Promote the standby while the old primary is still alive — the
    // split-brain window. The supervisor then fences the old incarnation.
    let new_epoch = standby.promote(0).unwrap();
    let mut ctrl = std::net::TcpStream::connect(h.addr()).unwrap();
    write_frame(&mut ctrl, &Request::Promote { epoch: new_epoch }.encode()).unwrap();
    match Response::decode(&read_frame(&mut ctrl).unwrap()).unwrap() {
        Response::Promoted { epoch } => assert_eq!(epoch, new_epoch),
        other => panic!("fence request refused: {other:?}"),
    }
    shipper.stop();

    // In-session writes on the deposed primary fail...
    assert!(
        c.execute("INSERT INTO f VALUES (2)").is_err(),
        "a fenced primary accepted a write"
    );
    // ...and new logins are refused with the retryable Fenced code.
    match env.connect(&h.addr(), "app", "test") {
        Err(DriverError::Sql { code, .. }) => assert_eq!(code, codes::FENCED),
        Err(other) => panic!("wrong refusal class: {other}"),
        Ok(_) => panic!("fenced primary accepted a login"),
    }

    // Sticky: the fence marker survives a crash + restart of the deposed
    // primary — it can never serve again, even if an operator bounces it.
    h.crash().unwrap();
    h.restart().unwrap();
    match env.connect(&h.addr(), "app", "test") {
        Err(DriverError::Sql { code, .. }) => assert_eq!(code, codes::FENCED),
        Err(other) => panic!("wrong refusal class: {other}"),
        Ok(_) => panic!("fence did not survive restart"),
    }

    // Meanwhile the promoted standby serves the data and the writes the
    // old primary refused never happened anywhere.
    let mut c2 = env.connect(&standby.addr(), "app", "test").unwrap();
    assert_eq!(count(&mut c2, "SELECT COUNT(*) FROM f"), 1);

    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
}

/// The driver-failover satellite, end to end at the session layer: a
/// Phoenix session opened against a server list survives primary loss.
/// Recovery rotates through refused (dead primary) and Fenced (standby
/// not yet promoted) answers until promotion lands, then re-installs the
/// session on the new primary.
#[test]
fn phoenix_session_rides_failover_to_promoted_standby() {
    let pdir = temp_dir("ride-p");
    let sdir = temp_dir("ride-s");
    let mut h = ServerHarness::start(&pdir, semi_sync()).unwrap();
    let standby = Standby::start(&sdir, StandbyConfig::default()).unwrap();
    let shipper = Shipper::start(h.shared_engine().unwrap(), standby.addr());

    let env = Environment::new();
    let mut config = phoenix_core::PhoenixConfig::default();
    config.recovery.ping_interval = Duration::from_millis(20);
    config.recovery.max_wait = Duration::from_secs(20);
    let mut pc = PhoenixConnection::connect_multi(
        &env,
        &[&h.addr(), &standby.addr()],
        "app",
        "test",
        config,
    )
    .unwrap();
    pc.execute("CREATE TABLE r (id INT)").unwrap();
    pc.execute("INSERT INTO r VALUES (1)").unwrap();
    let target = h.with_engine(|e| e.last_gsn()).unwrap();
    wait_until("standby catch-up", || standby.applied_gsn() >= target);

    // Kill the primary, then promote only after a delay — the session's
    // recovery loop must tolerate the standby answering Fenced meanwhile.
    h.crash().unwrap();
    shipper.stop();
    let promoter = {
        let addr = standby.addr();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            let mut ctrl = std::net::TcpStream::connect(addr).unwrap();
            write_frame(&mut ctrl, &Request::Promote { epoch: 0 }.encode()).unwrap();
            match Response::decode(&read_frame(&mut ctrl).unwrap()).unwrap() {
                Response::Promoted { .. } => {}
                other => panic!("operator promote failed: {other:?}"),
            }
        })
    };

    // This statement is submitted into the outage: it must be masked.
    pc.execute("INSERT INTO r VALUES (2)").unwrap();
    promoter.join().unwrap();

    let rows = pc.execute("SELECT COUNT(*) FROM r").unwrap();
    assert_eq!(rows.rows()[0][0], Value::Int(2));
    assert!(pc.stats().recoveries >= 1, "failover should be a recovery");
    assert_eq!(pc.current_server(), standby.addr());

    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
}

/// The exactly-once satellite: crash the primary with a pipelined window
/// half-acknowledged, promote the standby, and verify on the survivor
/// that every acknowledged tag's effect is present exactly once — replays
/// answered from the replicated status table, unacknowledged statements
/// resubmitted once — and nothing applied twice.
#[test]
fn exactly_once_across_failover_with_pipelined_window() {
    let pdir = temp_dir("once-p");
    let sdir = temp_dir("once-s");
    let mut h = ServerHarness::start(&pdir, semi_sync()).unwrap();
    let standby = Standby::start(&sdir, StandbyConfig::default()).unwrap();
    let shipper = Shipper::start(h.shared_engine().unwrap(), standby.addr());

    let env = Environment::new();
    let mut config = phoenix_core::PhoenixConfig::default();
    config.recovery.ping_interval = Duration::from_millis(20);
    config.recovery.max_wait = Duration::from_secs(20);
    let mut pc = PhoenixConnection::connect_multi(
        &env,
        &[&h.addr(), &standby.addr()],
        "app",
        "test",
        config,
    )
    .unwrap();
    pc.execute("CREATE TABLE ledger (id INT, v TEXT)").unwrap();

    // Writer: pipelined windows of 8 DML statements each. The main thread
    // kills the primary mid-run, so some window is caught half-acked.
    const WINDOW: usize = 8;
    const WINDOWS: usize = 25;
    let writer = std::thread::spawn(move || {
        let mut acked: Vec<usize> = Vec::new();
        for w in 0..WINDOWS {
            let stmts: Vec<String> = (0..WINDOW)
                .map(|j| {
                    let id = w * WINDOW + j;
                    format!("INSERT INTO ledger VALUES ({id}, 'x-{id}')")
                })
                .collect();
            match pc.execute_pipelined(&stmts) {
                Ok(_) => acked.extend(w * WINDOW..(w + 1) * WINDOW),
                Err(e) => panic!("pipelined window {w} not masked: {e}"),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        (pc, acked)
    });

    // Let the writer get going, then lose the server.
    std::thread::sleep(Duration::from_millis(60));
    h.crash().unwrap();
    shipper.stop();
    std::thread::sleep(Duration::from_millis(100));
    standby.promote(0).unwrap();

    let (mut pc, acked) = writer.join().unwrap();
    assert_eq!(acked.len(), WINDOW * WINDOWS, "every window must be masked");
    assert!(
        pc.stats().recoveries >= 1,
        "the crash landed mid-run; recovery must have fired"
    );

    // Verify on the survivor: every acknowledged id exactly once, and no
    // id — acknowledged or not — more than once.
    let mut c = env.connect(&standby.addr(), "audit", "test").unwrap();
    assert_eq!(
        count(&mut c, "SELECT COUNT(*) FROM ledger"),
        (WINDOW * WINDOWS) as i64,
        "ledger row count diverged: writes lost or applied twice"
    );
    for id in &acked {
        assert_eq!(
            count(
                &mut c,
                &format!("SELECT COUNT(*) FROM ledger WHERE id = {id}")
            ),
            1,
            "acknowledged id {id} must appear exactly once"
        );
    }

    // The session stays useful after the storm.
    pc.execute("INSERT INTO ledger VALUES (100000, 'post')")
        .unwrap();

    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
}

/// Re-attach after a standby outage: the shipper reconnects, the hello
/// reports the standby's high-water GSN, and only the missing suffix is
/// re-shipped (served from the tap's staged frames or the primary's logs).
#[test]
fn shipper_reattaches_and_reships_only_the_missing_suffix() {
    let pdir = temp_dir("reatt-p");
    let sdir = temp_dir("reatt-s");
    // Async mode here: the primary must not block while the standby is down.
    let h = ServerHarness::start(&pdir, EngineConfig::default()).unwrap();
    let standby = Standby::start(&sdir, StandbyConfig::default()).unwrap();
    let standby_addr = standby.addr();
    let shipper = Shipper::start(h.shared_engine().unwrap(), standby_addr.clone());

    let env = Environment::new();
    let mut c = env.connect(&h.addr(), "app", "test").unwrap();
    c.execute("CREATE TABLE g (v INT)").unwrap();
    c.execute("INSERT INTO g VALUES (1)").unwrap();
    let target = h.with_engine(|e| e.last_gsn()).unwrap();
    wait_until("initial catch-up", || standby.applied_gsn() >= target);

    // Standby goes away; primary keeps committing (async mode).
    let gsn_before = standby.applied_gsn();
    drop(standby);
    for i in 2..=20 {
        c.execute(&format!("INSERT INTO g VALUES ({i})")).unwrap();
    }

    // A new standby incarnation re-opens the same directory (reloading
    // its own logs) on a fresh port; repoint a fresh shipper at it.
    shipper.stop();
    let standby2 = Standby::start(&sdir, StandbyConfig::default()).unwrap();
    let held = standby2.applied_gsn();
    assert!(
        held >= gsn_before,
        "standby restart lost its own durable log"
    );
    let frames_applied = || phoenix_repl::repl_metrics().frames_applied.get();
    let applied_before = frames_applied();
    let _shipper2 = Shipper::start(h.shared_engine().unwrap(), standby2.addr());
    let target = h.with_engine(|e| e.last_gsn()).unwrap();
    wait_until("suffix catch-up", || standby2.applied_gsn() >= target);

    // `phoenix_repl_frames_applied_total` counts frames appended and fed,
    // not frames received: re-ship what the standby already holds, far more
    // of it than every test of this file applies (they share the process-
    // wide counter), and the counter must move by the suffix, not by that.
    const RESHIPPED: u64 = 20_000;
    let frames = (0..RESHIPPED)
        .map(|i| phoenix_wire::ReplFrame {
            partition: 0,
            gsn: 1 + i % target,
            record: Vec::new(),
        })
        .collect();
    let epoch = h.with_engine(|e| e.epoch()).unwrap();
    let mut ship = std::net::TcpStream::connect(standby2.addr()).unwrap();
    write_frame(&mut ship, &Request::ReplFrames { epoch, frames }.encode()).unwrap();
    match Response::decode(&read_frame(&mut ship).unwrap()).unwrap() {
        Response::ReplAck { last_gsn } => assert_eq!(last_gsn, target),
        other => panic!("re-shipped batch refused: {other:?}"),
    }
    let applied = frames_applied() - applied_before;
    assert!(
        (target - held..target - held + RESHIPPED).contains(&applied),
        "{applied} frames counted for a suffix of {}",
        target - held
    );

    // And the replayed standby actually holds all 20 rows.
    standby2.promote(0).unwrap();
    let mut c2 = env.connect(&standby2.addr(), "app", "test").unwrap();
    assert_eq!(count(&mut c2, "SELECT COUNT(*) FROM g"), 20);

    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
}
