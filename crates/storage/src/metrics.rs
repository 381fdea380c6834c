//! Storage-layer metric handles, registered once and cached in a static.
//!
//! Everything here follows the phoenix-obs pattern: the global registry is
//! consulted exactly once (first use), after which the hot paths — WAL
//! append, fsync, snapshot publish — touch only the atomics inside the
//! cached `Arc`s.

use std::sync::{Arc, OnceLock};

use phoenix_obs::{registry, Counter, Histogram};

/// Cached handles for every storage metric.
pub struct StorageMetrics {
    /// WAL records appended (`phoenix_wal_appends_total`).
    pub wal_appends: Arc<Counter>,
    /// Latency of one WAL append — frame build + `write_all`
    /// (`phoenix_wal_append_us`).
    pub wal_append_us: Arc<Histogram>,
    /// `sync_data` calls issued by the WAL (`phoenix_wal_fsyncs_total`).
    pub wal_fsyncs: Arc<Counter>,
    /// Latency of one WAL fsync (`phoenix_wal_fsync_us`).
    pub wal_fsync_us: Arc<Histogram>,
    /// Commit records covered by group-commit flushes
    /// (`phoenix_group_commit_records_total`). Together with
    /// [`StorageMetrics::group_commit_syncs`] this yields the *exact* mean
    /// batch size, which the `rw_mix` bench reports.
    pub group_commit_records: Arc<Counter>,
    /// Group-commit leader flushes (`phoenix_group_commit_syncs_total`).
    pub group_commit_syncs: Arc<Counter>,
    /// Distribution of commit records per leader flush
    /// (`phoenix_group_commit_batch`).
    pub group_commit_batch: Arc<Histogram>,
    /// Checkpoints taken (`phoenix_checkpoints_total`).
    pub checkpoints: Arc<Counter>,
    /// Checkpoint duration — snapshot write + log truncate
    /// (`phoenix_checkpoint_us`).
    pub checkpoint_us: Arc<Histogram>,
    /// Checkpoint *pause* — how long the writer lock was held for the
    /// capture + log-rotation phase, the only part of a checkpoint that
    /// blocks mutations (`phoenix_checkpoint_pause_us`).
    pub checkpoint_pause_us: Arc<Histogram>,
    /// Recovery replay duration — WAL decode + commit scan + partitioned
    /// apply, per `Durable::open` (`phoenix_recovery_replay_us`).
    pub recovery_replay_us: Arc<Histogram>,
    /// Copy-on-write store snapshots published for readers
    /// (`phoenix_snapshot_publishes_total`).
    pub snapshot_publishes: Arc<Counter>,
    /// Whole-store captures *avoided* by per-partition epoch publishing:
    /// each mutation re-captures only its own shard, so with N partitions
    /// every publish saves N−1 captures the pre-partitioned design paid
    /// (`phoenix_snapshot_publishes_coalesced`).
    pub snapshot_publishes_coalesced: Arc<Counter>,
    /// Map entries cloned by path copying: each time a writer touches a
    /// tree node a published snapshot still shares, the node's entries are
    /// copied once (`phoenix_cow_entries_copied_total`). Proportional to
    /// the rows a statement touches, never to the table.
    pub cow_entries_copied: Arc<Counter>,
}

/// The storage metric set, registered on first use.
pub fn storage_metrics() -> &'static StorageMetrics {
    static M: OnceLock<StorageMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        StorageMetrics {
            wal_appends: r.counter("phoenix_wal_appends_total", "WAL records appended"),
            wal_append_us: r.histogram(
                "phoenix_wal_append_us",
                "WAL append latency (frame build + write) in microseconds",
            ),
            wal_fsyncs: r.counter("phoenix_wal_fsyncs_total", "WAL sync_data calls issued"),
            wal_fsync_us: r.histogram("phoenix_wal_fsync_us", "WAL fsync latency in microseconds"),
            group_commit_records: r.counter(
                "phoenix_group_commit_records_total",
                "commit records made durable by group-commit flushes",
            ),
            group_commit_syncs: r.counter(
                "phoenix_group_commit_syncs_total",
                "group-commit leader flushes",
            ),
            group_commit_batch: r.histogram(
                "phoenix_group_commit_batch",
                "commit records covered per group-commit flush",
            ),
            checkpoints: r.counter("phoenix_checkpoints_total", "checkpoints taken"),
            checkpoint_us: r.histogram(
                "phoenix_checkpoint_us",
                "checkpoint duration (snapshot write + log truncate) in microseconds",
            ),
            checkpoint_pause_us: r.histogram(
                "phoenix_checkpoint_pause_us",
                "writer-lock hold time of the checkpoint capture phase in microseconds",
            ),
            recovery_replay_us: r.histogram(
                "phoenix_recovery_replay_us",
                "WAL replay duration during recovery in microseconds",
            ),
            snapshot_publishes: r.counter(
                "phoenix_snapshot_publishes_total",
                "copy-on-write store snapshots published",
            ),
            snapshot_publishes_coalesced: r.counter(
                "phoenix_snapshot_publishes_coalesced",
                "whole-store captures avoided by per-partition epoch publishing",
            ),
            cow_entries_copied: r.counter(
                "phoenix_cow_entries_copied_total",
                "table-image map entries cloned by path copying",
            ),
        }
    })
}

/// Per-partition group-commit batch histogram
/// (`phoenix_group_commit_batch{partition="p<k>"}`), registered on first use
/// per partition and cached by the caller.
pub fn partition_batch_histogram(partition: usize) -> Arc<Histogram> {
    let label = format!("p{partition}");
    registry().histogram_with(
        "phoenix_group_commit_batch",
        "commit records covered per group-commit flush",
        &[("partition", &label)],
    )
}
