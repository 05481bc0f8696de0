// Per-WLAN shard worker of acornd.
//
// Each registered WLAN gets one shard: a single-writer task wrapped
// around the WLAN's core::WlanRuntime (core/runtime.hpp), which owns the
// model, the association, the channels and the epoch. The shard owns
// what the runtime must not: the mailbox, the journal, the replies, the
// epoch timer, the counters and the snapshots. It runs as a
// util::PooledExecutor task: one of M pooled workers drains its mailbox
// per scheduling pass, and the executor's central timer wheel drives its
// epoch deadline. Protocol events (join/leave/SNR/load) are applied
// immediately, each as one runtime call, while the expensive work
// (Algorithm 2 plus the width fallback) runs in periodic
// *reconfiguration epochs*, so a burst of events costs one epoch, not
// one full recompute per event.
//
// Durability: when a state directory is configured, the shard writes a
// versioned snapshot (write-temp + fsync + atomic rename) at the end of
// every epoch and once more on clean shutdown; see snapshot.hpp. The
// events *between* epochs are covered by the daemon's shared write-ahead
// log (eventlog.hpp, sync_coordinator.hpp): every applied mutating
// message becomes a record, and its reply is withheld until the record
// is durable. The shard never touches the disk for that — when its
// mailbox drains, or after `wal_flush_us` under sustained backlog, it
// hands its pending records and withheld replies to the SyncCoordinator
// as one commit batch, so a pipelined burst pays one fdatasync, not one
// per event, and one fdatasync covers every shard's batch. A successful
// epoch snapshot supersedes the logged records and is reported to the
// coordinator as a checkpoint, which lets it retire covered segments.
// Recovery = snapshot + replay of the log suffix (records whose ordinal
// exceeds the snapshot's events_applied) through apply_locked, the same
// runtime calls live traffic makes; the deterministic pipeline makes the
// result byte-identical to the pre-crash state.
//
// Followers: a connection subscribed via FollowLog is attached to every
// shard. On attach the shard emits its full state as a SnapshotFrame;
// afterwards every durable record is forwarded as a LogRecordFrame (in
// fsync batches, so a follower only ever sees acknowledged events).
// Epochs the timer starts internally are logged and forwarded as
// synthesized ForceReconfigure records, keeping replay and followers
// deterministic.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/runtime.hpp"
#include "service/eventlog.hpp"
#include "service/metrics.hpp"
#include "service/snapshot.hpp"
#include "service/sync_coordinator.hpp"
#include "service/wire.hpp"
#include "util/worker_pool.hpp"

namespace acorn::service {

struct ShardOptions {
  /// Reconfiguration period; <= 0 disables the timer (epochs then run
  /// only on ForceReconfigure and shutdown).
  double epoch_s = 1.0;
  /// Required advantage factor before the width fallback switches a
  /// bonded AP's operating width.
  double width_hysteresis = 1.05;
  /// Snapshot directory; empty disables persistence. Requires
  /// `coordinator`, which journals the events between snapshots.
  std::string state_dir;
  /// Group-commit bound in microseconds: replies to logged events are
  /// withheld until the WAL fsyncs. The shard commits as soon as its
  /// mailbox drains (an idle sync costs no batching opportunity);
  /// under a sustained backlog this bounds how long records may sit
  /// unflushed before a mid-backlog commit (0 = commit per event).
  std::uint32_t wal_flush_us = 200;
  /// Emit a one-line epoch summary to stderr.
  bool log_epochs = false;
  /// Required: the shard runs as a task of this executor (one of its M
  /// workers drains the mailbox per pass). It must outlive the shard's
  /// stop().
  util::PooledExecutor* executor = nullptr;
  /// When set, every reconfiguration epoch's wall time is recorded here
  /// (daemon-wide percentiles for --log and stats consumers).
  LatencyHistogram* epoch_latency = nullptr;
  /// The WAL: the shard packages records + withheld replies into
  /// commit batches for this coordinator's fleet-wide group commit, and
  /// reports snapshot checkpoints for segment retirement. Set exactly
  /// when `state_dir` is; the coordinator must outlive the shard's
  /// stop(). Null means no durability.
  SyncCoordinator* coordinator = nullptr;
};

/// Shard-local counters, aggregated into the daemon's StatsReply.
struct ShardCounters {
  std::uint64_t epochs = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_flushes = 0;
  std::uint64_t channel_switches = 0;
  std::uint64_t width_switches = 0;
  std::uint64_t assoc_changes = 0;
  /// Oracle evaluations spent in Algorithm 2 (clamped non-negative when
  /// folded in from EpochRecord).
  std::uint64_t alloc_evaluations = 0;
  std::uint64_t oracle_cell_evals = 0;
  std::uint64_t oracle_cell_hits = 0;
  std::uint64_t oracle_share_evals = 0;
  std::uint64_t oracle_share_hits = 0;
  double last_epoch_ms = 0.0;
};

class WlanShard : public util::PooledExecutor::Task {
 public:
  struct Job {
    enum class Kind {
      kMessage,
      kAttachFollower,  // conn_id subscribes: snapshot now, records after
      kDetachFollower,  // conn_id went away
    };
    Kind kind = Kind::kMessage;
    std::uint64_t conn_id = 0;
    std::uint32_t seq = 0;
    std::chrono::steady_clock::time_point t0;
    Message msg;
  };
  /// Build from registration or recovery state (`state.association`
  /// empty means a fresh WLAN: everyone unassociated, channels seeded
  /// deterministically from the deployment's RNG seed), then replay the
  /// WAL suffix (`replay` records whose seq exceeds the snapshot's
  /// events_applied, applied through apply_locked). Throws
  /// std::invalid_argument on a malformed deployment or a snapshot the
  /// runtime rejects, or without an executor.
  /// `post` receives the shard's encoded replies (and follower frames).
  WlanShard(ShardOptions options, WlanSnapshot state, ReplyFn post,
            std::vector<WalRecord> replay = {});
  ~WlanShard();

  WlanShard(const WlanShard&) = delete;
  WlanShard& operator=(const WlanShard&) = delete;

  /// Checkpoints the current state (so a fresh registration or a
  /// finished recovery is durable immediately, and a merged legacy
  /// per-WLAN log can be deleted), then attaches to the executor.
  void start();
  /// Detaches from the executor, drains pending jobs, flushes withheld
  /// replies and writes a final snapshot.
  void stop();

  void submit(Job job);

  std::uint32_t id() const { return wlan_id_; }
  ShardCounters counters() const;
  /// Current durable state (what the next snapshot would contain).
  WlanSnapshot state_snapshot() const;

 private:
  /// PooledExecutor::Task: one scheduling pass, bounded for fairness,
  /// returning the epoch deadline for the executor's timer wheel.
  std::chrono::steady_clock::time_point run_pass() override;
  /// Drain the remaining mailbox on the caller's thread (stop(), after
  /// the executor detach).
  void drain_inline();
  /// The next queued job, or null when the mailbox is empty. Refills the
  /// pass's run from the mailbox under queue_mutex_; the job stays valid
  /// until the following call. Running pass (or stop()) only.
  Job* peek_job();
  /// No job left in the pass's run nor in the mailbox.
  bool mailbox_empty();
  void process(Job& job);
  /// One runtime call per message, its result mapped to a reply: the
  /// handler of a shard-scoped message, or a refusal of any other.
  Message apply_locked(const Message& msg);
  Message apply_locked(const ClientJoin& m);
  Message apply_locked(const ClientLeave& m);
  Message apply_locked(const SnrUpdate& m);
  Message apply_locked(const LoadUpdate& m);
  Message apply_locked(const ForceReconfigure& m);
  Message apply_locked(const QueryConfig& m);
  void publish_counters_locked();
  /// A timer-started epoch.
  void run_epoch();
  /// The runtime's epoch plus its counters, checkpoint and log line.
  core::EpochRecord run_epoch_locked();
  void write_state_snapshot();
  /// Write a snapshot and report it to the coordinator as a checkpoint.
  /// False when persistence is off, during replay, or on I/O failure.
  bool checkpoint_locked();
  WlanSnapshot build_snapshot_locked() const;
  /// Queue the record of `msg`, applied as ordinal `seq`, for the WAL
  /// and for followers. True when it is logged, i.e. its reply must
  /// wait for a sync.
  bool journal_locked(std::uint64_t seq, const Message& msg);
  /// Release withheld replies + forward durable records to followers by
  /// handing them to the coordinator as one commit batch (released on
  /// its commit thread, in submission order, after the sync). `need_sync`
  /// false when a snapshot already made everything durable: with
  /// nothing in flight that short-circuits to a direct release,
  /// otherwise even a no-sync release rides the queue so replies cannot
  /// overtake an in-flight batch. `final` (shutdown) waits for every
  /// in-flight batch.
  void flush(bool need_sync, bool final = false);
  /// Post pending records to followers + pending replies, in order, on
  /// the calling thread (flush's short-circuit).
  void release_pending();
  /// Blocks until the coordinator has released every batch this shard
  /// submitted (shutdown: the shard must outlive its in-flight hooks).
  void wait_commits_drained();
  bool commits_inflight() const {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    return commits_inflight_ > 0;
  }
  std::chrono::steady_clock::time_point flush_deadline() const;

  const ShardOptions options_;
  const std::uint32_t wlan_id_;
  const std::string deployment_text_;

  // Controller state; guarded by state_mutex_ (the running pass writes,
  // stats/state queries from other threads read).
  mutable std::mutex state_mutex_;
  core::WlanRuntime runtime_;
  std::uint64_t events_applied_ = 0;
  ShardCounters counters_;

  // Copy of counters_ (+ the runtime's oracle stats) republished after
  // every event/epoch so counters() never waits on an in-progress epoch.
  mutable std::mutex counters_mutex_;
  ShardCounters published_counters_;

  ReplyFn post_;

  // Write-ahead log + group-commit state. Everything below is touched
  // only by the running pass (construction/start/stop excepted, when no
  // worker is running), so it needs no lock of its own.
  /// events_applied_ value the newest on-disk snapshot covers; records
  /// with seq <= this are redundant and are not appended.
  std::uint64_t wal_base_seq_ = 0;
  /// Replies sent straight back (nothing withheld ahead of them).
  ReplyBuffer direct_;
  /// Replies withheld until the records they acknowledge are durable
  /// (WAL sync or snapshot). FIFO, so per-connection order holds even
  /// for interleaved non-logged requests.
  ReplyBuffer pending_replies_;
  /// Records in waiting for the WAL and for follower forwarding.
  RecordBuffer pending_records_;
  std::uint64_t pending_max_seq_ = 0;
  bool wal_dirty_ = false;
  std::chrono::steady_clock::time_point first_unflushed_;
  /// Batches handed to the coordinator whose on_durable hook has not
  /// fired yet. Guarded by inflight_mutex_ (the hook runs on the
  /// coordinator's commit thread).
  std::uint32_t commits_inflight_ = 0;
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  /// Follower connections attached via Job::Kind::kAttachFollower.
  std::vector<std::uint64_t> followers_;
  /// Suppresses disk writes while the constructor replays the WAL.
  bool replaying_ = false;

  // Mailbox: submit() appends to jobs_; the running pass swaps the whole
  // run into draining_ and works through it without the lock, so a job
  // needs no node of its own.
  std::mutex queue_mutex_;
  std::vector<Job> jobs_;
  std::vector<Job> draining_;  // running pass only
  std::size_t next_job_ = 0;   // index into draining_
  /// Attached to options_.executor: start() ran and stop() has not.
  bool running_ = false;
  std::chrono::steady_clock::time_point next_epoch_;
};

}  // namespace acorn::service
