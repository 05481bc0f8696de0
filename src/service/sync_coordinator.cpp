#include "service/sync_coordinator.hpp"

#include <unistd.h>

#include <cstdio>
#include <iterator>
#include <memory>

#include "service/wire.hpp"

namespace acorn::service {

namespace {

/// A sick disk gets a few retries behind a backoff, then the fleet
/// degrades to non-durable operation instead of withholding every
/// shard's replies forever.
constexpr std::uint32_t kMaxSyncFailures = 3;
constexpr auto kSyncRetryBackoff = std::chrono::milliseconds(10);

}  // namespace

SyncCoordinator::SyncCoordinator(Options options)
    : options_(std::move(options)) {}

SyncCoordinator::~SyncCoordinator() { stop(); }

void SyncCoordinator::seed(const SegmentLoadResult& scan) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const SegmentCoverage& seg : scan.segments) {
    closed_[seg.index] = seg.max_seq;
  }
  if (scan.next_index > next_index_) next_index_ = scan.next_index;
  // Recovered segments become retirable as soon as the shards'
  // start()-time checkpoints cover them.
  retire_pending_ = !closed_.empty();
}

void SyncCoordinator::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
  }
  thread_ = std::thread([this] { run(); });
}

void SyncCoordinator::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_ && !thread_.joinable()) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  writer_.close();
}

void SyncCoordinator::submit(CommitBatch batch) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(batch));
  }
  cv_.notify_all();
}

void SyncCoordinator::note_checkpoint(std::uint32_t wlan_id,
                                      std::uint64_t seq) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t& cp = checkpoints_[wlan_id];
    if (seq > cp) cp = seq;
    retire_pending_ = true;
  }
  cv_.notify_all();
}

void SyncCoordinator::remove_wlan(std::uint32_t wlan_id) {
  struct Signal {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
  };
  auto sig = std::make_shared<Signal>();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_ || !durable_.load(std::memory_order_relaxed)) {
      // No commit thread (or no disk) to write the tombstone through:
      // drop the bookkeeping inline. Without durability this leaves the
      // dead incarnation's records on disk — recovery then relies on
      // the missing snapshot (an unknown WLAN's records are fenced at
      // startup), the best available once the disk was given up on.
      open_cover_.erase(wlan_id);
      for (auto& [index, cover] : closed_) cover.erase(wlan_id);
      checkpoints_.erase(wlan_id);
      retire_pending_ = true;
      cv_.notify_all();
      return;
    }
    CommitBatch batch;
    batch.wlan_id = wlan_id;
    batch.tombstone = true;
    batch.on_durable = [sig] {
      {
        const std::lock_guard<std::mutex> lock(sig->m);
        sig->done = true;
      }
      sig->cv.notify_all();
    };
    queue_.push_back(std::move(batch));
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(sig->m);
  sig->cv.wait(lock, [&] { return sig->done; });
}

bool SyncCoordinator::has_records(std::uint32_t wlan_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (open_cover_.count(wlan_id) != 0) return true;
  for (const auto& [index, cover] : closed_) {
    if (cover.count(wlan_id) != 0) return true;
  }
  return false;
}

bool SyncCoordinator::durable() const {
  return durable_.load(std::memory_order_relaxed);
}

std::size_t SyncCoordinator::segment_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_.size() + (open_segment_ ? 1 : 0);
}

void SyncCoordinator::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (!queue_.empty()) {
      std::vector<CommitBatch> batches(
          std::make_move_iterator(queue_.begin()),
          std::make_move_iterator(queue_.end()));
      queue_.clear();
      lock.unlock();
      commit(batches);
      lock.lock();
      continue;
    }
    if (retire_pending_) {
      retire_pending_ = false;
      lock.unlock();
      retire_covered();
      lock.lock();
      continue;
    }
    if (!running_) break;  // queue drained, nothing left to retire
    cv_.wait(lock);
  }
}

void SyncCoordinator::commit(std::vector<CommitBatch>& batches) {
  // Append every batch's fresh records to the shared segment in
  // submission order. The bookkeeping must move in the same order — a
  // tombstone erases exactly the coverage that precedes it, never a
  // later re-registration's — so the whole pass runs under mutex_
  // (memcpy-cheap; the expensive fdatasync below runs outside it).
  std::uint64_t appended = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (CommitBatch& batch : batches) {
      if (batch.tombstone) {
        if (durable_.load(std::memory_order_relaxed) &&
            ensure_writer_locked()) {
          writer_.append(batch.wlan_id, 0,
                         std::span<const std::uint8_t>{});
          ++appended;
        }
        open_cover_.erase(batch.wlan_id);
        for (auto& [index, cover] : closed_) cover.erase(batch.wlan_id);
        checkpoints_.erase(batch.wlan_id);
        retire_pending_ = true;
        continue;
      }
      for (const WalRecord& rec : batch.records) {
        if (rec.seq <= batch.write_from_seq) continue;
        if (!durable_.load(std::memory_order_relaxed) ||
            !ensure_writer_locked()) {
          break;
        }
        writer_.append(batch.wlan_id, rec.seq, rec.payload);
        std::uint64_t& top = open_cover_[batch.wlan_id];
        if (rec.seq > top) top = rec.seq;
        ++appended;
      }
    }
  }

  // One write + one fdatasync acknowledges every shard's batch.
  if (appended > 0 && durable_.load(std::memory_order_relaxed)) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t failures = 0;
    for (;;) {
      if (writer_.sync()) {
        if (options_.metrics != nullptr) {
          options_.metrics->wal_syncs.fetch_add(1,
                                                std::memory_order_relaxed);
          options_.metrics->wal_coalesced_events.fetch_add(
              appended, std::memory_order_relaxed);
          options_.metrics->wal_batch_events.record_us(appended);
          options_.metrics->wal_sync_latency.record(
              std::chrono::steady_clock::now() - t0);
        }
        break;
      }
      ++failures;
      std::fprintf(stderr, "acornd: shared WAL fdatasync failed\n");
      if (!writer_.is_open() || failures >= kMaxSyncFailures) {
        degrade("repeated fdatasync failures");
        break;
      }
      std::this_thread::sleep_for(kSyncRetryBackoff);
    }
  }

  maybe_rotate();

  // Release in submission order: durable records to each batch's
  // followers first (a follower must observe an event no later than the
  // client that caused it sees its reply), then the withheld replies,
  // then the shard's in-flight hook.
  for (CommitBatch& batch : batches) {
    if (batch.post && !batch.followers.empty() && !batch.records.empty()) {
      const auto now = std::chrono::steady_clock::now();
      for (const std::uint64_t conn : batch.followers) {
        for (const WalRecord& rec : batch.records) {
          batch.post(conn, now,
                     encode_frame(0, LogRecordFrame{batch.wlan_id, rec.seq,
                                                    rec.payload}));
        }
      }
    }
    for (CommitBatch::Reply& reply : batch.replies) {
      batch.post(reply.conn_id, reply.t0, std::move(reply.frame));
    }
    if (batch.on_durable) batch.on_durable();
  }
}

void SyncCoordinator::degrade(const char* why) {
  durable_.store(false, std::memory_order_relaxed);
  writer_.close();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_segment_ = false;
  }
  std::fprintf(stderr,
               "acornd: disabling shared WAL (%s); continuing without "
               "durability\n",
               why);
}

bool SyncCoordinator::ensure_writer_locked() {
  if (writer_.is_open()) return true;
  if (writer_.open(options_.dir, next_index_)) {
    ++next_index_;
    open_segment_ = true;
    return true;
  }
  // Cannot create the segment file: no durability is possible. Note the
  // direct store — degrade() would retake mutex_.
  durable_.store(false, std::memory_order_relaxed);
  open_segment_ = false;
  std::fprintf(stderr,
               "acornd: disabling shared WAL (cannot create segment in "
               "%s); continuing without durability\n",
               options_.dir.c_str());
  return false;
}

void SyncCoordinator::maybe_rotate() {
  if (!writer_.is_open() ||
      writer_.file_size() < options_.segment_bytes) {
    return;
  }
  const std::uint64_t index = writer_.index();
  writer_.close();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_[index] = std::move(open_cover_);
    open_cover_.clear();
    open_segment_ = false;
    retire_pending_ = true;
  }
  if (options_.log) {
    std::fprintf(stderr, "acornd: WAL segment %llu closed\n",
                 static_cast<unsigned long long>(index));
  }
}

void SyncCoordinator::retire_covered() {
  std::vector<std::uint64_t> retire;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Oldest first, stopping at the first still-needed segment: the
    // on-disk log stays a contiguous index suffix, so a tombstone can
    // never be deleted while records it fences survive in an older
    // segment.
    for (auto it = closed_.begin(); it != closed_.end();) {
      bool covered = true;
      for (const auto& [wlan_id, top] : it->second) {
        const auto cp = checkpoints_.find(wlan_id);
        if (cp == checkpoints_.end() || cp->second < top) {
          covered = false;
          break;
        }
      }
      if (!covered) break;
      retire.push_back(it->first);
      it = closed_.erase(it);
    }
  }
  if (retire.empty()) return;
  for (const std::uint64_t index : retire) {
    ::unlink(wal_segment_path(options_.dir, index).c_str());
  }
  fsync_dir(options_.dir);
  if (options_.log) {
    std::fprintf(stderr, "acornd: retired %zu WAL segment(s) through %llu\n",
                 retire.size(),
                 static_cast<unsigned long long>(retire.back()));
  }
}

}  // namespace acorn::service
