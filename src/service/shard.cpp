#include "service/shard.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/width_switch.hpp"
#include "service/sync_coordinator.hpp"

namespace acorn::service {

namespace {

/// Pooled mode: jobs one scheduling pass may drain before the shard is
/// requeued behind the other ready shards. Bounds how long one
/// backlogged WLAN can monopolize a worker; the WAL flush window caps
/// reply latency well before this does.
constexpr int kDrainBatchPerPass = 512;

sim::DeploymentSpec parse_spec(const std::string& text) {
  return sim::parse_deployment(text);
}

core::AcornConfig controller_config(const sim::DeploymentSpec& spec) {
  core::AcornConfig cfg;
  cfg.plan = net::ChannelPlan(spec.num_channels);
  return cfg;
}

}  // namespace

WlanShard::WlanShard(ShardOptions options, WlanSnapshot state,
                     CompletionFn post, std::vector<WalRecord> replay)
    : options_(std::move(options)),
      wlan_id_(state.wlan_id),
      deployment_text_(state.deployment),
      spec_(parse_spec(state.deployment)),
      wlan_(spec_.build()),
      controller_(controller_config(spec_)),
      post_(std::move(post)) {
  const int n_aps = wlan_.topology().num_aps();
  const int n_clients = wlan_.topology().num_clients();
  if (n_aps == 0) throw std::invalid_argument("deployment has no APs");
  if (!options_.state_dir.empty() && options_.coordinator == nullptr) {
    throw std::invalid_argument("a state dir needs a SyncCoordinator");
  }

  if (state.association.empty()) {
    assoc_.assign(static_cast<std::size_t>(n_clients), net::kUnassociated);
  } else {
    if (static_cast<int>(state.association.size()) != n_clients) {
      throw std::invalid_argument("snapshot association size mismatch");
    }
    assoc_ = std::move(state.association);
  }
  if (state.allocated.empty()) {
    // Fresh WLAN: the deterministic equivalent of "whatever the APs
    // booted with" — a random assignment seeded from the deployment.
    util::Rng rng(spec_.seed ^ (0x5eedull * (wlan_id_ + 1)));
    allocated_ =
        controller_.allocation_module().random_assignment(n_aps, rng);
  } else {
    if (static_cast<int>(state.allocated.size()) != n_aps) {
      throw std::invalid_argument("snapshot assignment size mismatch");
    }
    allocated_ = std::move(state.allocated);
  }
  operating_ = state.operating.empty() ? allocated_
                                       : std::move(state.operating);
  if (operating_.size() != allocated_.size()) {
    throw std::invalid_argument("snapshot operating size mismatch");
  }
  for (const LossOverride& o : state.loss_overrides) {
    if (o.ap >= static_cast<std::uint32_t>(n_aps) ||
        o.client >= static_cast<std::uint32_t>(n_clients) ||
        !std::isfinite(o.loss_db) || o.loss_db < 0.0) {
      throw std::invalid_argument("snapshot loss override out of range");
    }
    wlan_.budget().set_ap_client_loss_db(static_cast<int>(o.ap),
                                         static_cast<int>(o.client),
                                         o.loss_db);
    loss_overrides_[{o.ap, o.client}] = o.loss_db;
  }
  for (const LoadHint& l : state.loads) {
    // Same bounds the wire path enforces: a corrupt snapshot must not
    // inject out-of-range client ids that re-persist forever.
    if (l.client >= static_cast<std::uint32_t>(n_clients) ||
        !std::isfinite(l.load) || l.load < 0.0) {
      throw std::invalid_argument("snapshot load hint out of range");
    }
    loads_[l.client] = l.load;
  }
  for (const std::uint32_t c : state.dirty_clients) {
    if (c >= static_cast<std::uint32_t>(n_clients)) {
      throw std::invalid_argument("snapshot dirty client out of range");
    }
    dirty_clients_.insert(static_cast<int>(c));
  }
  epoch_ = state.epoch;
  events_applied_ = state.events_applied;

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
  if (options_.executor != nullptr) {
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      pool_attached_ = true;
    }
    options_.executor->attach(*this);
  } else {
    thread_ = std::thread([this] { run(); });
  }
}

void WlanShard::stop() {
  bool detach = false;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!running_ && !thread_.joinable() && !pool_attached_) return;
    running_ = false;
    detach = pool_attached_;
    pool_attached_ = false;
  }
  if (options_.executor != nullptr) {
    // After detach no pooled worker can touch this shard again; drain
    // whatever is still queued on the caller's thread, exactly as the
    // dedicated thread does before exiting.
    if (detach) options_.executor->detach(*this);
    drain_inline();
  } else {
    queue_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // The mailbox is drained and the worker is gone: make the state
  // durable and release any replies still withheld behind the
  // group-commit window.
  write_state_snapshot();
}

void WlanShard::submit(Job job) {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    jobs_.push_back(std::move(job));
  }
  if (options_.executor != nullptr) {
    options_.executor->notify(*this);
  } else {
    queue_cv_.notify_one();
  }
}

std::chrono::steady_clock::time_point WlanShard::flush_deadline() const {
  return first_unflushed_ + std::chrono::microseconds(options_.wal_flush_us);
}

void WlanShard::run() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    if (!jobs_.empty()) {
      // Under a sustained backlog the mailbox never drains, so bound
      // how long buffered records (and their withheld replies) can
      // wait: sync mid-backlog once the flush window expires.
      if (wal_dirty_ &&
          std::chrono::steady_clock::now() >= flush_deadline()) {
        lock.unlock();
        flush(/*need_sync=*/true);
        lock.lock();
        continue;
      }
      Job job = std::move(jobs_.front());
      jobs_.pop_front();
      lock.unlock();
      process(job);
      lock.lock();
      continue;
    }
    if (!running_) break;  // stop() flushes after the join
    if (wal_dirty_) {
      // Idle with pending records: nothing is queued behind them, so
      // waiting out the flush window buys no extra batching — commit
      // now and release the withheld replies.
      lock.unlock();
      flush(/*need_sync=*/true);
      lock.lock();
      continue;
    }
    if (std::chrono::steady_clock::now() >= next_epoch_) {
      lock.unlock();
      run_epoch();
      lock.lock();
      continue;
    }
    queue_cv_.wait_until(lock, next_epoch_);
  }
}

std::chrono::steady_clock::time_point WlanShard::run_pass() {
  // One pooled scheduling pass: the body of run() minus the blocking
  // wait — same job order, same mid-backlog and idle flush points, same
  // epoch check — so pooled and dedicated execution apply an identical
  // sequence of operations to the shard state.
  int budget = kDrainBatchPerPass;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    if (!jobs_.empty()) {
      if (budget == 0) {
        // Fairness bound hit with backlog left: yield the worker and
        // requeue behind the other ready shards.
        return std::chrono::steady_clock::time_point::min();
      }
      if (wal_dirty_ &&
          std::chrono::steady_clock::now() >= flush_deadline()) {
        lock.unlock();
        flush(/*need_sync=*/true);
        lock.lock();
        continue;
      }
      Job job = std::move(jobs_.front());
      jobs_.pop_front();
      --budget;
      lock.unlock();
      process(job);
      lock.lock();
      continue;
    }
    // stop() detaches and then drains/flushes inline, mirroring the
    // dedicated thread's exit before its final snapshot.
    if (!running_) return std::chrono::steady_clock::time_point::max();
    if (wal_dirty_) {
      lock.unlock();
      flush(/*need_sync=*/true);
      lock.lock();
      continue;
    }
    if (std::chrono::steady_clock::now() >= next_epoch_) {
      lock.unlock();
      run_epoch();
      lock.lock();
      continue;
    }
    // Idle: hand the epoch deadline to the executor's timer wheel;
    // max() means "until notify()".
    return next_epoch_;
  }
}

void WlanShard::drain_inline() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (!jobs_.empty()) {
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    lock.unlock();
    process(job);
    lock.lock();
  }
}

bool WlanShard::loggable(const Message& msg) {
  return std::holds_alternative<ClientJoin>(msg) ||
         std::holds_alternative<ClientLeave>(msg) ||
         std::holds_alternative<SnrUpdate>(msg) ||
         std::holds_alternative<LoadUpdate>(msg) ||
         std::holds_alternative<ForceReconfigure>(msg);
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
    post_(job.conn_id, job.t0,
          encode_frame(0, SnapshotFrame{std::move(bytes)}));
    return;
  }
  if (job.kind == Job::Kind::kDetachFollower) {
    std::erase(followers_, job.conn_id);
    return;
  }

  std::vector<std::uint8_t> frame;
  bool logged = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    const bool mutating = loggable(job.msg);
    const std::uint64_t before = events_applied_;
    Message reply = apply_locked(job.msg);
    frame = encode_frame(job.seq, reply);
    if (mutating && events_applied_ != before) {
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
    pending_replies_.push_back(PendingReply{job.conn_id, job.t0,
                                           std::move(frame)});
  } else {
    post_(job.conn_id, job.t0, std::move(frame));
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
  bool drained;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    drained = jobs_.empty();
  }
  if (drained) flush(/*need_sync=*/true);
}

bool WlanShard::journal_locked(std::uint64_t seq, const Message& msg) {
  // seq <= wal_base_seq_ means an epoch snapshot already covers this
  // event; the log does not need it. A degraded coordinator means
  // non-durable operation: records then only go to followers.
  const bool logged = options_.coordinator != nullptr &&
                      options_.coordinator->durable() && seq > wal_base_seq_;
  if (logged) ++counters_.wal_records;
  if (logged || !followers_.empty()) {
    pending_records_.push_back(WalRecord{seq, encode_payload(0, msg)});
  }
  if (seq > pending_max_seq_) pending_max_seq_ = seq;
  return logged;
}

Message WlanShard::apply_locked(const Message& msg) {
  const int n_aps = wlan_.topology().num_aps();
  const int n_clients = wlan_.topology().num_clients();

  if (const auto* join = std::get_if<ClientJoin>(&msg)) {
    if (join->client >= static_cast<std::uint32_t>(n_clients)) {
      return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                        "client id out of range"};
    }
    const int c = static_cast<int>(join->client);
    const int before = assoc_[static_cast<std::size_t>(c)];
    // Re-running Algorithm 1 for an already-associated client is a
    // re-association probe: detach first so the utility terms see the
    // network without it (exactly the paper's trial association).
    assoc_[static_cast<std::size_t>(c)] = net::kUnassociated;
    const std::optional<int> ap =
        controller_.associate_client(wlan_, assoc_, operating_, c);
    if (!ap.has_value()) {
      // Failed probe: Algorithm 1 admits no AP right now. Keep the
      // previous association instead of silently dropping the client.
      assoc_[static_cast<std::size_t>(c)] = before;
    }
    ++events_applied_;
    ++counters_.events;
    if (assoc_[static_cast<std::size_t>(c)] != before) {
      ++counters_.assoc_changes;
      invalidate_oracle();
    }
    return OkReply{assoc_[static_cast<std::size_t>(c)]};
  }
  if (const auto* leave = std::get_if<ClientLeave>(&msg)) {
    if (leave->client >= static_cast<std::uint32_t>(n_clients)) {
      return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                        "client id out of range"};
    }
    const int c = static_cast<int>(leave->client);
    if (assoc_[static_cast<std::size_t>(c)] != net::kUnassociated) {
      assoc_[static_cast<std::size_t>(c)] = net::kUnassociated;
      ++counters_.assoc_changes;
      invalidate_oracle();
    }
    ++events_applied_;
    ++counters_.events;
    return OkReply{net::kUnassociated};
  }
  if (const auto* snr = std::get_if<SnrUpdate>(&msg)) {
    if (snr->ap >= static_cast<std::uint32_t>(n_aps) ||
        snr->client >= static_cast<std::uint32_t>(n_clients)) {
      return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                        "ap/client id out of range"};
    }
    // A NaN/Inf loss would poison every later SNR/rate computation and
    // survive restart through the snapshot; a negative loss is a gain.
    if (!std::isfinite(snr->loss_db) || snr->loss_db < 0.0) {
      return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                        "loss_db must be finite and non-negative"};
    }
    wlan_.budget().set_ap_client_loss_db(static_cast<int>(snr->ap),
                                         static_cast<int>(snr->client),
                                         snr->loss_db);
    loss_overrides_[{snr->ap, snr->client}] = snr->loss_db;
    dirty_clients_.insert(static_cast<int>(snr->client));
    invalidate_oracle();
    ++events_applied_;
    ++counters_.events;
    return OkReply{};
  }
  if (const auto* load = std::get_if<LoadUpdate>(&msg)) {
    if (load->client >= static_cast<std::uint32_t>(n_clients)) {
      return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                        "client id out of range"};
    }
    if (!std::isfinite(load->load) || load->load < 0.0) {
      return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                        "load must be finite and non-negative"};
    }
    const auto it = loads_.find(load->client);
    const bool changed = it == loads_.end() || it->second != load->load;
    loads_[load->client] = load->load;
    // The oracle's objective weights cells by offered load, so a load
    // change is a real invalidation, not just bookkeeping.
    if (changed) invalidate_oracle();
    ++events_applied_;
    ++counters_.events;
    return OkReply{};
  }
  if (std::get_if<ForceReconfigure>(&msg) != nullptr) {
    ++events_applied_;
    ++counters_.events;
    const std::uint64_t before = counters_.channel_switches;
    run_epoch_locked();
    return OkReply{
        static_cast<std::int32_t>(counters_.channel_switches - before)};
  }
  if (std::get_if<QueryConfig>(&msg) != nullptr) {
    ++counters_.events;
    ensure_oracle();
    ConfigReply reply;
    reply.wlan_id = wlan_id_;
    reply.epoch = epoch_;
    reply.events_applied = events_applied_;
    reply.total_goodput_bps =
        oracle_->snapshot().evaluate(operating_).total_goodput_bps;
    reply.association = assoc_;
    reply.allocated = allocated_;
    reply.operating = operating_;
    return reply;
  }
  return ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                    "message not routable to a shard"};
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

void WlanShard::run_epoch_locked() {
  const auto t0 = std::chrono::steady_clock::now();

  // Incremental re-association: re-probe (detach + Algorithm 1 trial
  // association) only the clients whose links changed since the last
  // epoch. A partial event stream costs a handful of probes here, never
  // a full re-association sweep.
  bool assoc_changed = false;
  for (const int c : dirty_clients_) {
    const std::size_t ci = static_cast<std::size_t>(c);
    const int before = assoc_[ci];
    if (before == net::kUnassociated) continue;  // joins probe themselves
    assoc_[ci] = net::kUnassociated;
    const std::optional<int> ap =
        controller_.associate_client(wlan_, assoc_, operating_, c);
    // A failed probe must not strand an associated client: restore the
    // AP it had (its link may have degraded, but it is still attached).
    if (!ap.has_value()) assoc_[ci] = before;
    if (assoc_[ci] != before) {
      ++counters_.assoc_changes;
      assoc_changed = true;
    }
  }
  dirty_clients_.clear();
  if (assoc_changed) invalidate_oracle();
  ensure_oracle();

  // Algorithm 2 with the incremental oracle; its epsilon (stop below 5%
  // aggregate improvement) is the channel-level hysteresis. Handing the
  // CachedOracle itself (not a per-call lambda) lets the allocator use
  // the batched multi-candidate scan — same result, fewer epochs spent
  // allocating.
  const core::AllocationResult result =
      controller_.allocation_module().allocate(wlan_, assoc_, allocated_,
                                               *oracle_);
  counters_.channel_switches += static_cast<std::uint64_t>(result.switches);
  counters_.alloc_evaluations +=
      result.evaluations > 0 ? static_cast<std::uint64_t>(result.evaluations)
                             : 0;
  allocated_ = result.assignment;

  // Opportunistic width fallback (core/width_switch) with hysteresis:
  // a bonded AP narrows to the better of its 20 MHz halves — or widens
  // back — only when the alternative wins by options_.width_hysteresis.
  // The context-aware decide_width sees the interference graph and the
  // full allocation, so secondary-channel hidden interference can send
  // an AP to the upper half instead of silently defaulting to primary.
  for (std::size_t ap = 0; ap < allocated_.size(); ++ap) {
    const net::Channel& base = allocated_[ap];
    net::Channel next = base;
    if (base.is_bonded()) {
      const core::WidthDecision d = core::decide_width(
          wlan_, static_cast<int>(ap), clients_of_locked(static_cast<int>(ap)),
          oracle_->graph(), allocated_);
      const bool was_narrow =
          !operating_[ap].is_bonded() && base.conflicts(operating_[ap]);
      const bool narrow =
          was_narrow ? !(d.cell_bps_40 > options_.width_hysteresis *
                                             d.cell_bps_20)
                     : d.cell_bps_20 > options_.width_hysteresis *
                                           d.cell_bps_40;
      if (narrow) {
        // The better half; primary on ties (strictly better secondary
        // wins). d.channel only names the half when the bond lost
        // outright, so recompute under hysteresis holds.
        next = d.cell_bps_20_secondary > d.cell_bps_20_primary
                   ? net::Channel::basic(base.primary() + 1)
                   : net::Channel::basic(base.primary());
      }
      if (narrow != was_narrow) ++counters_.width_switches;
    }
    operating_[ap] = next;
  }

  ++epoch_;
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
    const core::OracleCacheStats os = oracle_->stats();
    std::fprintf(stderr,
                 "acornd: wlan %u epoch %llu: %d switches, %.2f ms, "
                 "oracle %llu evals / %llu hits\n",
                 wlan_id_, static_cast<unsigned long long>(epoch_),
                 result.switches, counters_.last_epoch_ms,
                 static_cast<unsigned long long>(os.cell_evals),
                 static_cast<unsigned long long>(os.cell_hits));
  }
}

void WlanShard::ensure_oracle() {
  if (oracle_) return;
  // Reported offered loads weight the objective: a client with load w
  // contributes w times its goodput, so Algorithm 2 stops optimizing
  // for clients with nothing to send. No hints = unweighted (and the
  // oracle stays bit-identical to the plain evaluator).
  std::vector<double> weights;
  if (!loads_.empty()) {
    weights.assign(assoc_.size(), 1.0);
    for (const auto& [client, load] : loads_) {
      weights[static_cast<std::size_t>(client)] = load;
    }
  }
  oracle_ = std::make_shared<core::CachedOracle>(
      wlan_, assoc_, mac::TrafficType::kUdp, std::move(weights));
}

void WlanShard::invalidate_oracle() {
  if (oracle_) {
    // Bank the retired oracle's counters so stats survive the rebuild.
    const core::OracleCacheStats s = oracle_->stats();
    counters_.oracle_cell_evals += s.cell_evals;
    counters_.oracle_cell_hits += s.cell_hits;
    counters_.oracle_share_evals += s.share_evals;
    counters_.oracle_share_hits += s.share_hits;
    oracle_.reset();
  }
}

WlanSnapshot WlanShard::build_snapshot_locked() const {
  WlanSnapshot snap;
  snap.wlan_id = wlan_id_;
  snap.epoch = epoch_;
  snap.events_applied = events_applied_;
  snap.deployment = deployment_text_;
  snap.association = assoc_;
  snap.allocated = allocated_;
  snap.operating = operating_;
  snap.loss_overrides.reserve(loss_overrides_.size());
  for (const auto& [key, loss] : loss_overrides_) {
    snap.loss_overrides.push_back(LossOverride{key.first, key.second, loss});
  }
  snap.loads.reserve(loads_.size());
  for (const auto& [client, load] : loads_) {
    snap.loads.push_back(LoadHint{client, load});
  }
  snap.dirty_clients.reserve(dirty_clients_.size());
  for (const int c : dirty_clients_) {
    snap.dirty_clients.push_back(static_cast<std::uint32_t>(c));
  }
  return snap;
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
  CommitBatch batch;
  batch.wlan_id = wlan_id_;
  batch.records = std::move(pending_records_);
  pending_records_.clear();
  // Records at or below this are already snapshot-covered: the
  // coordinator forwards them to followers but does not write them.
  batch.write_from_seq = wal_base_seq_;
  batch.replies.reserve(pending_replies_.size());
  for (PendingReply& p : pending_replies_) {
    batch.replies.push_back(
        CommitBatch::Reply{p.conn_id, p.t0, std::move(p.frame)});
  }
  pending_replies_.clear();
  batch.followers = followers_;
  batch.post = post_;
  batch.on_durable = [this] {
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      --commits_inflight_;
    }
    inflight_cv_.notify_all();
  };
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    ++commits_inflight_;
  }
  if (need_sync) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.wal_flushes;
    publish_counters_locked();
  }
  options_.coordinator->submit(std::move(batch));
  wal_dirty_ = false;
  if (final) wait_commits_drained();
}

void WlanShard::wait_commits_drained() {
  std::unique_lock<std::mutex> lock(inflight_mutex_);
  inflight_cv_.wait(lock, [this] { return commits_inflight_ == 0; });
}

void WlanShard::release_pending() {
  if (!followers_.empty() && !pending_records_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    for (const std::uint64_t conn : followers_) {
      for (const WalRecord& rec : pending_records_) {
        post_(conn, now,
              encode_frame(0, LogRecordFrame{wlan_id_, rec.seq, rec.payload}));
      }
    }
  }
  pending_records_.clear();
  for (PendingReply& p : pending_replies_) {
    post_(p.conn_id, p.t0, std::move(p.frame));
  }
  pending_replies_.clear();
}

void WlanShard::publish_counters_locked() {
  ShardCounters out = counters_;
  if (oracle_) {
    const core::OracleCacheStats s = oracle_->stats();
    out.oracle_cell_evals += s.cell_evals;
    out.oracle_cell_hits += s.cell_hits;
    out.oracle_share_evals += s.share_evals;
    out.oracle_share_hits += s.share_hits;
  }
  const std::lock_guard<std::mutex> lock(counters_mutex_);
  published_counters_ = out;
}

std::vector<int> WlanShard::clients_of_locked(int ap) const {
  std::vector<int> out;
  for (std::size_t c = 0; c < assoc_.size(); ++c) {
    if (assoc_[c] == ap) out.push_back(static_cast<int>(c));
  }
  return out;
}

ShardCounters WlanShard::counters() const {
  // Reads the last published copy: a stats query must never block on
  // state_mutex_, which the shard thread holds across a whole epoch.
  const std::lock_guard<std::mutex> lock(counters_mutex_);
  return published_counters_;
}

WlanSnapshot WlanShard::state_snapshot() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return build_snapshot_locked();
}

}  // namespace acorn::service
