#include "service/sync_coordinator.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
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

void ReplyBuffer::add(std::uint64_t conn_id,
                      std::chrono::steady_clock::time_point t0,
                      std::uint32_t seq, const Message& msg) {
  const std::size_t offset = bytes.size();
  encode_frame_into(bytes, seq, msg);
  entries.push_back(Entry{conn_id, t0, offset,
                          static_cast<std::uint32_t>(bytes.size() - offset)});
}

void ReplyBuffer::append(const ReplyBuffer& other, std::size_t first,
                         std::size_t last) {
  if (first == last) return;
  // Frames [first, last) are contiguous in other.bytes.
  const std::size_t from = other.entries[first].offset;
  const Entry& tail = other.entries[last - 1];
  const std::size_t shift = bytes.size() - from;
  bytes.insert(bytes.end(),
               other.bytes.begin() + static_cast<std::ptrdiff_t>(from),
               other.bytes.begin() +
                   static_cast<std::ptrdiff_t>(tail.offset + tail.len));
  for (std::size_t i = first; i < last; ++i) {
    Entry e = other.entries[i];
    e.offset += shift;
    entries.push_back(e);
  }
}

void RecordBuffer::add(std::uint64_t seq, const Message& msg) {
  const std::size_t offset = bytes.size();
  encode_payload_into(bytes, 0, msg);
  entries.push_back(
      Entry{seq, offset, static_cast<std::uint32_t>(bytes.size() - offset)});
}

void RecordBuffer::append(const RecordBuffer& other) {
  const std::size_t shift = bytes.size();
  bytes.insert(bytes.end(), other.bytes.begin(), other.bytes.end());
  for (Entry e : other.entries) {
    e.offset += shift;
    entries.push_back(e);
  }
}

void append_log_records(ReplyBuffer& out,
                        const std::vector<std::uint64_t>& followers,
                        std::uint32_t wlan_id, const RecordBuffer& records,
                        std::size_t first, std::size_t last,
                        std::chrono::steady_clock::time_point t0) {
  for (const std::uint64_t conn : followers) {
    for (std::size_t i = first; i < last; ++i) {
      const RecordBuffer::Entry& rec = records.entries[i];
      const std::span<const std::uint8_t> payload = records.payload(rec);
      out.add(conn, t0, 0,
              LogRecordFrame{wlan_id, rec.seq,
                             std::vector<std::uint8_t>(payload.begin(),
                                                       payload.end())});
    }
  }
}

SyncCoordinator::SyncCoordinator(Options options, ReplyFn post)
    : options_(std::move(options)), post_(std::move(post)) {}

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

void SyncCoordinator::submit(std::uint32_t wlan_id,
                             const RecordBuffer& records,
                             std::uint64_t write_from_seq,
                             const ReplyBuffer& replies,
                             const std::vector<std::uint64_t>& followers,
                             std::function<void()> on_durable) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.records.append(records);
    queue_.replies.append(replies);
    queue_.batches.push_back(Batch{wlan_id, write_from_seq,
                                   queue_.records.entries.size(),
                                   queue_.replies.entries.size(), followers,
                                   std::move(on_durable), false});
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
    auto on_durable = [sig] {
      {
        const std::lock_guard<std::mutex> lock(sig->m);
        sig->done = true;
      }
      sig->cv.notify_all();
    };
    queue_.batches.push_back(Batch{wlan_id, 0, queue_.records.entries.size(),
                                   queue_.replies.entries.size(), {},
                                   std::move(on_durable), true});
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
    if (!queue_.batches.empty()) {
      std::swap(queue_, draining_);
      lock.unlock();
      commit(draining_);
      draining_.clear();
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

void SyncCoordinator::commit(const Run& run) {
  // Append every batch's fresh records to the shared segment in
  // submission order. The bookkeeping must move in the same order — a
  // tombstone erases exactly the coverage that precedes it, never a
  // later re-registration's — so the whole pass runs under mutex_
  // (memcpy-cheap; the expensive fdatasync below runs outside it).
  std::uint64_t appended = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t rec = 0;
    for (const Batch& batch : run.batches) {
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
      for (; rec < batch.records_end; ++rec) {
        const RecordBuffer::Entry& e = run.records.entries[rec];
        if (e.seq <= batch.write_from_seq) continue;
        if (!durable_.load(std::memory_order_relaxed) ||
            !ensure_writer_locked()) {
          continue;
        }
        writer_.append(batch.wlan_id, e.seq, run.records.payload(e));
        std::uint64_t& top = open_cover_[batch.wlan_id];
        if (e.seq > top) top = e.seq;
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

  // Release in submission order: each batch's durable records to its
  // followers first (a follower must observe an event no later than the
  // client that caused it sees its reply), then its withheld replies —
  // the whole commit in one hand-off — and only then the shards'
  // in-flight hooks, so no reply a shard sends directly afterwards can
  // overtake these. Without followers the run's replies already are in
  // release order.
  const ReplyBuffer* frames = &run.replies;
  const bool forward = std::any_of(
      run.batches.begin(), run.batches.end(),
      [](const Batch& b) { return !b.followers.empty(); });
  if (forward) {
    release_.clear();
    const auto now = std::chrono::steady_clock::now();
    std::size_t records_begin = 0;
    std::size_t replies_begin = 0;
    for (const Batch& batch : run.batches) {
      append_log_records(release_, batch.followers, batch.wlan_id,
                         run.records, records_begin, batch.records_end, now);
      release_.append(run.replies, replies_begin, batch.replies_end);
      records_begin = batch.records_end;
      replies_begin = batch.replies_end;
    }
    frames = &release_;
  }
  if (!frames->empty()) post_(*frames);
  for (const Batch& batch : run.batches) {
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
