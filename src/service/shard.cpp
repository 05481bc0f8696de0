#include "service/shard.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "service/sync_coordinator.hpp"
#include "sim/deployment_file.hpp"

namespace acorn::service {

namespace {

/// Jobs one scheduling pass may drain before the shard is requeued
/// behind the other ready shards. Bounds how long one backlogged WLAN
/// can monopolize a worker; the WAL flush window caps reply latency well
/// before this does.
constexpr int kDrainBatchPerPass = 512;

core::WlanRuntime make_runtime(const WlanSnapshot& snap,
                               double width_hysteresis) {
  const sim::DeploymentSpec spec = sim::parse_deployment(snap.deployment);
  // A fresh WLAN's channels: the deterministic equivalent of "whatever
  // the APs booted with", a random assignment seeded per WLAN.
  return core::WlanRuntime(spec.build(), net::ChannelPlan(spec.num_channels),
                           snap.state,
                           spec.seed ^ (0x5eedull * (snap.wlan_id + 1)),
                           width_hysteresis);
}

}  // namespace

WlanShard::WlanShard(ShardOptions options, WlanSnapshot state, ReplyFn post,
                     std::vector<WalRecord> replay)
    : options_(std::move(options)),
      wlan_id_(state.wlan_id),
      deployment_text_(state.deployment),
      runtime_(make_runtime(state, options_.width_hysteresis)),
      events_applied_(state.events_applied),
      post_(std::move(post)) {
  if (options_.executor == nullptr) {
    throw std::invalid_argument("a shard needs a PooledExecutor");
  }
  if (!options_.state_dir.empty() && options_.coordinator == nullptr) {
    throw std::invalid_argument("a state dir needs a SyncCoordinator");
  }

  // Replay the WAL suffix: records the snapshot does not cover, applied
  // through the same code path that produced them. Determinism makes
  // the result byte-identical to the pre-crash state. Any gap, decode
  // failure, or rejected record ends the replay (the remainder of the
  // log cannot be trusted).
  if (!replay.empty()) {
    replaying_ = true;
    std::uint64_t replayed = 0;
    for (const WalRecord& rec : replay) {
      if (rec.seq <= events_applied_) continue;  // superseded by snapshot
      if (rec.seq != events_applied_ + 1) break;
      try {
        const Frame f = decode_payload(rec.payload);
        apply_locked(f.msg);
      } catch (const WireError&) {
        break;
      }
      if (events_applied_ != rec.seq) break;  // record did not apply
      ++replayed;
    }
    replaying_ = false;
    if (replayed > 0 && options_.log_epochs) {
      std::fprintf(stderr, "acornd: wlan %u: replayed %llu WAL record(s)\n",
                   wlan_id_, static_cast<unsigned long long>(replayed));
    }
  }
}

WlanShard::~WlanShard() { stop(); }

void WlanShard::start() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (running_) return;
    running_ = true;
  }
  // Checkpoint before accepting events: a fresh registration is durable
  // immediately (not only after its first epoch), and a recovery's
  // replayed WAL prefix is compacted into the snapshot it rebuilt.
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (checkpoint_locked()) {
      // Upgrade path: the snapshot just compacted any legacy per-WLAN
      // log that recovery merged in; drop the file so a later boot
      // cannot re-merge its stale records.
      remove_wal(options_.state_dir, wlan_id_);
    }
    publish_counters_locked();
  }
  next_epoch_ = options_.epoch_s > 0.0
                    ? std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(options_.epoch_s))
                    : std::chrono::steady_clock::time_point::max();
  options_.executor->attach(*this);
}

void WlanShard::stop() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!running_) return;
    running_ = false;
  }
  // After detach no pooled worker can touch this shard again: drain
  // whatever is still queued on the caller's thread, then make the
  // state durable and release any replies still withheld behind the
  // group-commit window.
  options_.executor->detach(*this);
  drain_inline();
  write_state_snapshot();
}

void WlanShard::submit(Job job) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    jobs_.push_back(std::move(job));
  }
  options_.executor->notify(*this);
}

std::chrono::steady_clock::time_point WlanShard::flush_deadline() const {
  return first_unflushed_ + std::chrono::microseconds(options_.wal_flush_us);
}

WlanShard::Job* WlanShard::peek_job() {
  if (next_job_ == draining_.size()) {
    draining_.clear();
    next_job_ = 0;
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_.swap(jobs_);
  }
  return next_job_ < draining_.size() ? &draining_[next_job_] : nullptr;
}

bool WlanShard::mailbox_empty() {
  if (next_job_ < draining_.size()) return false;
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return jobs_.empty();
}

std::chrono::steady_clock::time_point WlanShard::run_pass() {
  int budget = kDrainBatchPerPass;
  while (true) {
    if (Job* job = peek_job()) {
      if (budget == 0) {
        // Fairness bound hit with backlog left: yield the worker and
        // requeue behind the other ready shards.
        return std::chrono::steady_clock::time_point::min();
      }
      // Under a sustained backlog the mailbox never drains, so bound
      // how long buffered records (and their withheld replies) can
      // wait: sync mid-backlog once the flush window expires.
      if (wal_dirty_ &&
          std::chrono::steady_clock::now() >= flush_deadline()) {
        flush(/*need_sync=*/true);
        continue;
      }
      ++next_job_;
      --budget;
      process(*job);
      continue;
    }
    {
      // stop() detaches and then drains/flushes inline.
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (!running_) return std::chrono::steady_clock::time_point::max();
    }
    if (wal_dirty_) {
      // Idle with pending records: nothing is queued behind them, so
      // waiting out the flush window buys no extra batching — commit
      // now and release the withheld replies.
      flush(/*need_sync=*/true);
      continue;
    }
    if (std::chrono::steady_clock::now() >= next_epoch_) {
      run_epoch();
      continue;
    }
    // Idle: hand the epoch deadline to the executor's timer wheel;
    // max() means "until notify()".
    return next_epoch_;
  }
}

void WlanShard::drain_inline() {
  while (Job* job = peek_job()) {
    ++next_job_;
    process(*job);
  }
}

void WlanShard::process(Job& job) {
  const auto now = std::chrono::steady_clock::now();
  if (job.kind == Job::Kind::kAttachFollower) {
    // Snapshot-then-stream: the frame carries everything applied so
    // far; every later durable record is forwarded by flush. (Any
    // records already pending re-cover a prefix of the snapshot — the
    // follower skips them by ordinal.)
    std::vector<std::uint8_t> bytes;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      bytes = encode_snapshot(build_snapshot_locked());
    }
    followers_.push_back(job.conn_id);
    direct_.add(job.conn_id, job.t0, 0, SnapshotFrame{std::move(bytes)});
    post_(direct_);
    direct_.clear();
    return;
  }
  if (job.kind == Job::Kind::kDetachFollower) {
    std::erase(followers_, job.conn_id);
    return;
  }

  Message reply;
  bool logged = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t before = events_applied_;
    reply = apply_locked(job.msg);
    // Exactly the state mutators advance the ordinal: those are the
    // records the WAL and the followers need.
    if (events_applied_ != before) {
      logged = journal_locked(events_applied_, job.msg);
    }
    publish_counters_locked();
  }
  if (logged && !wal_dirty_) {
    wal_dirty_ = true;
    first_unflushed_ = now;
  }
  if (logged || wal_dirty_ || !pending_replies_.empty() ||
      (options_.coordinator != nullptr && commits_inflight())) {
    // Withhold the reply until its record is durable; non-logged
    // replies queue behind it to preserve per-connection FIFO order —
    // including order against batches already queued at the
    // coordinator, hence the in-flight check.
    pending_replies_.add(job.conn_id, job.t0, job.seq, reply);
  } else {
    direct_.add(job.conn_id, job.t0, job.seq, reply);
    post_(direct_);
    direct_.clear();
  }
  if (!wal_dirty_ || wal_base_seq_ >= pending_max_seq_) {
    // Everything withheld is already durable (snapshot compaction, or
    // logging is off entirely): release without an fsync.
    if (!pending_replies_.empty() || !pending_records_.empty()) {
      flush(/*need_sync=*/false);
    }
    wal_dirty_ = false;
    return;
  }
  // Idle/serial fast path: when this event drained the mailbox there is
  // nothing queued behind its record, so the flush window buys no
  // batching — fdatasync on the spot instead of bouncing through a full
  // scheduler pass first. A serial (one-in-flight) client pays exactly
  // one sync per event either way; this trims the extra mailbox lock
  // round-trip and pass dispatch from every one of them.
  if (mailbox_empty()) flush(/*need_sync=*/true);
}

bool WlanShard::journal_locked(std::uint64_t seq, const Message& msg) {
  // seq <= wal_base_seq_ means an epoch snapshot already covers this
  // event; the log does not need it. A degraded coordinator means
  // non-durable operation: records then only go to followers.
  const bool logged = options_.coordinator != nullptr &&
                      options_.coordinator->durable() && seq > wal_base_seq_;
  if (logged) ++counters_.wal_records;
  if (logged || !followers_.empty()) pending_records_.add(seq, msg);
  if (seq > pending_max_seq_) pending_max_seq_ = seq;
  return logged;
}

Message WlanShard::apply_locked(const Message& msg) {
  try {
    return std::visit(
        [this](const auto& m) -> Message {
          if constexpr (std::decay_t<decltype(m)>::kScope == Scope::kShard) {
            return apply_locked(m);
          } else {
            // WAL replay and a leader's stream reach the shard without
            // passing the daemon's scope check.
            return ErrorReply{
                static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                "message not routable to a shard"};
          }
        },
        msg);
  } catch (const std::invalid_argument& e) {
    return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                      e.what()};
  }
}

Message WlanShard::apply_locked(const ClientJoin& m) {
  if (runtime_.join(m.client)) ++counters_.assoc_changes;
  ++events_applied_;
  return OkReply{runtime_.state().association[m.client]};
}

Message WlanShard::apply_locked(const ClientLeave& m) {
  if (runtime_.leave(m.client)) ++counters_.assoc_changes;
  ++events_applied_;
  return OkReply{net::kUnassociated};
}

Message WlanShard::apply_locked(const SnrUpdate& m) {
  runtime_.set_link_loss(m.ap, m.client, m.loss_db);
  ++events_applied_;
  return OkReply{};
}

Message WlanShard::apply_locked(const LoadUpdate& m) {
  runtime_.set_load(m.client, m.load);
  ++events_applied_;
  return OkReply{};
}

Message WlanShard::apply_locked(const ForceReconfigure&) {
  ++events_applied_;
  return OkReply{run_epoch_locked().channel_switches};
}

Message WlanShard::apply_locked(const QueryConfig&) {
  const core::WlanState& state = runtime_.state();
  return ConfigReply{wlan_id_,
                     state.epoch,
                     events_applied_,
                     runtime_.goodput_bps(),
                     state.association,
                     state.allocated,
                     state.operating};
}

void WlanShard::run_epoch() {
  const auto now = std::chrono::steady_clock::now();
  bool logged = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    // A timer-started epoch is an event in the replay stream: log and
    // forward it as a synthesized ForceReconfigure, so recovery and
    // followers re-run it at the same point in the sequence.
    ++events_applied_;
    const std::uint64_t seq = events_applied_;
    run_epoch_locked();
    // The epoch snapshot normally covers this event (seq ==
    // wal_base_seq_); the record is only logged if it failed.
    logged = journal_locked(seq, Message{ForceReconfigure{wlan_id_}});
    publish_counters_locked();
  }
  if (logged && !wal_dirty_) {
    wal_dirty_ = true;
    first_unflushed_ = now;
  }
  if (!wal_dirty_ || wal_base_seq_ >= pending_max_seq_) {
    if (!pending_replies_.empty() || !pending_records_.empty()) {
      flush(/*need_sync=*/false);
    }
    wal_dirty_ = false;
  }
}

core::EpochRecord WlanShard::run_epoch_locked() {
  const auto t0 = std::chrono::steady_clock::now();
  const core::EpochRecord rec = runtime_.run_epoch();
  counters_.channel_switches += static_cast<std::uint64_t>(rec.channel_switches);
  counters_.width_switches += static_cast<std::uint64_t>(rec.width_switches);
  counters_.assoc_changes += static_cast<std::uint64_t>(rec.assoc_changes);
  counters_.alloc_evaluations +=
      rec.evaluations > 0 ? static_cast<std::uint64_t>(rec.evaluations) : 0;
  ++counters_.epochs;
  checkpoint_locked();
  counters_.last_epoch_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (options_.epoch_latency != nullptr) {
    options_.epoch_latency->record(std::chrono::steady_clock::now() - t0);
  }
  if (options_.epoch_s > 0.0) {
    next_epoch_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(options_.epoch_s));
  }
  if (options_.log_epochs) {
    const core::OracleCacheStats os = runtime_.oracle_stats();
    std::fprintf(stderr,
                 "acornd: wlan %u epoch %llu: %d switches, %.2f ms, "
                 "oracle %llu evals / %llu hits\n",
                 wlan_id_,
                 static_cast<unsigned long long>(runtime_.state().epoch),
                 rec.channel_switches, counters_.last_epoch_ms,
                 static_cast<unsigned long long>(os.cell_evals),
                 static_cast<unsigned long long>(os.cell_hits));
  }
  return rec;
}

WlanSnapshot WlanShard::build_snapshot_locked() const {
  return WlanSnapshot{wlan_id_, events_applied_, deployment_text_,
                      runtime_.state()};
}

bool WlanShard::checkpoint_locked() {
  if (options_.state_dir.empty() || replaying_) return false;
  if (!write_snapshot(options_.state_dir, build_snapshot_locked())) {
    return false;
  }
  ++counters_.snapshots_written;
  // The snapshot supersedes every logged record: report the checkpoint
  // so the coordinator can retire fully-covered segments. Recovery
  // replays only what arrives after this point.
  wal_base_seq_ = events_applied_;
  options_.coordinator->note_checkpoint(wlan_id_, events_applied_);
  return true;
}

void WlanShard::write_state_snapshot() {
  bool need_sync = wal_dirty_;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (checkpoint_locked()) need_sync = false;
    publish_counters_locked();
  }
  // Also waits out batches still in flight at the coordinator: the
  // shard must outlive their on_durable hooks.
  flush(need_sync, /*final=*/true);
}

void WlanShard::flush(bool need_sync, bool final) {
  if (!need_sync && !commits_inflight()) {
    // Nothing is queued ahead at the coordinator and nothing needs a
    // sync (snapshot compaction, or durability is off): release on this
    // thread, no queue round-trip.
    release_pending();
    wal_dirty_ = false;
    return;
  }
  if (pending_replies_.empty() && pending_records_.empty()) {
    wal_dirty_ = false;
    if (final) wait_commits_drained();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    ++commits_inflight_;
  }
  if (need_sync) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.wal_flushes;
    publish_counters_locked();
  }
  auto on_durable = [this] {
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      --commits_inflight_;
    }
    inflight_cv_.notify_all();
  };
  // Records at or below wal_base_seq_ are already snapshot-covered: the
  // coordinator forwards them to followers but does not write them.
  options_.coordinator->submit(wlan_id_, pending_records_, wal_base_seq_,
                               pending_replies_, followers_,
                               std::move(on_durable));
  pending_records_.clear();
  pending_replies_.clear();
  wal_dirty_ = false;
  if (final) wait_commits_drained();
}

void WlanShard::wait_commits_drained() {
  std::unique_lock<std::mutex> lock(inflight_mutex_);
  inflight_cv_.wait(lock, [this] { return commits_inflight_ == 0; });
}

void WlanShard::release_pending() {
  if (!followers_.empty() && !pending_records_.empty()) {
    append_log_records(direct_, followers_, wlan_id_, pending_records_, 0,
                       pending_records_.entries.size(),
                       std::chrono::steady_clock::now());
  }
  pending_records_.clear();
  direct_.append(pending_replies_);
  pending_replies_.clear();
  if (!direct_.empty()) post_(direct_);
  direct_.clear();
}

void WlanShard::publish_counters_locked() {
  ShardCounters out = counters_;
  const core::OracleCacheStats s = runtime_.oracle_stats();
  out.oracle_cell_evals = s.cell_evals;
  out.oracle_cell_hits = s.cell_hits;
  out.oracle_share_evals = s.share_evals;
  out.oracle_share_hits = s.share_hits;
  const std::lock_guard<std::mutex> lock(counters_mutex_);
  published_counters_ = out;
}

ShardCounters WlanShard::counters() const {
  // Reads the last published copy: a stats query must never block on
  // state_mutex_, which the running pass holds across a whole epoch.
  const std::lock_guard<std::mutex> lock(counters_mutex_);
  return published_counters_;
}

WlanSnapshot WlanShard::state_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return build_snapshot_locked();
}

}  // namespace acorn::service
