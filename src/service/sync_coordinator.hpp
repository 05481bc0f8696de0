// Fleet-wide group commit: the writer of acornd's write-ahead log.
//
// A log file per shard would cap durable throughput at the device sync
// ceiling *per shard*: every WlanShard would issue its own fdatasync
// (~60-220 us on the disks measured so far), so a fleet of hundreds of
// WLANs would contend for a few thousand syncs/s of physical budget.
// The SyncCoordinator does group commit for the whole fleet instead:
// shards never touch the disk — they package their pending records,
// withheld replies, and follower subscriptions into a CommitBatch and
// hand it over; a single commit thread drains every queued batch,
// appends the records of *all* shards to one shared segment
// (eventlog.hpp's `seg_<index>.walseg`), and issues ONE write + ONE
// fdatasync for the lot. After the sync it releases each batch in
// submission order: forwards the now-durable records to the batch's
// `--follow` subscribers (followers only ever see durable events),
// posts the withheld replies, and fires the shard's completion hook.
// While one sync is in flight new batches pile up behind it, so
// coalescing scales with load by construction — an idle fleet pays one
// sync per event, a busy one pays one sync per *fleet-wide burst*.
//
// Ordering contract: batches from one shard are released strictly in
// submission order (the queue is FIFO and the commit thread never
// reorders), which preserves the per-connection reply FIFO the shards
// rely on. A batch with no records to write ("barrier" batch) still
// rides the queue for exactly that reason.
//
// Retirement replaces truncation: shards report checkpoint progress
// (note_checkpoint after every successful snapshot), and a closed
// segment is unlinked once every WLAN with records in it has
// checkpointed past its newest ordinal — oldest segment first, so the
// on-disk log is always a contiguous suffix and a removal tombstone
// (seq 0, appended durably by remove_wlan before RemoveWlan replies or
// an id is re-registered) can never outlive the records it fences.
//
// Failure policy: a failed fdatasync is retried after a short backoff;
// after kMaxSyncFailures consecutive failures the coordinator degrades
// — loudly — to non-durable operation, releasing batches immediately so
// clients and followers are not withheld forever on a dead disk.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/eventlog.hpp"
#include "service/metrics.hpp"

namespace acorn::service {

/// Release callback — same shape as WlanShard::CompletionFn, invoked
/// from the commit thread.
using CommitPostFn =
    std::function<void(std::uint64_t conn_id,
                       std::chrono::steady_clock::time_point t0,
                       std::vector<std::uint8_t> frame)>;

/// One shard's pending group-commit unit.
struct CommitBatch {
  std::uint32_t wlan_id = 0;
  /// Records in seq order. All of them are forwarded to `followers`
  /// once durable; only those with seq > write_from_seq are appended to
  /// the shared segment (the rest are already covered by the shard's
  /// newest snapshot).
  std::vector<WalRecord> records;
  std::uint64_t write_from_seq = 0;
  struct Reply {
    std::uint64_t conn_id = 0;
    std::chrono::steady_clock::time_point t0;
    std::vector<std::uint8_t> frame;
  };
  /// Withheld replies, released in order after the sync.
  std::vector<Reply> replies;
  /// Follower connection ids subscribed to this shard.
  std::vector<std::uint64_t> followers;
  CommitPostFn post;
  /// Fired last (commit thread), durable or degraded — the shard's
  /// in-flight accounting hook. The shard must not be destroyed while
  /// any of its batches are in flight (WlanShard::stop waits for this).
  std::function<void()> on_durable;
  /// Internal (remove_wlan): append a seq-0 removal tombstone for
  /// wlan_id instead of records.
  bool tombstone = false;
};

class SyncCoordinator {
 public:
  struct Options {
    /// State directory holding the `seg_<index>.walseg` files.
    std::string dir;
    /// Rotate to a fresh segment once the current one exceeds this many
    /// durable bytes (tests shrink it to force rotation/retirement).
    std::uint64_t segment_bytes = 64ull << 20;
    ServiceMetrics* metrics = nullptr;
    /// Chatty mode (--log): announce rotation/retirement/degradation.
    bool log = false;
  };

  explicit SyncCoordinator(Options options);
  ~SyncCoordinator();
  SyncCoordinator(const SyncCoordinator&) = delete;
  SyncCoordinator& operator=(const SyncCoordinator&) = delete;

  /// Adopt a recovery scan (before start()): existing segments' per-WLAN
  /// coverage for retirement, and the next free segment index.
  void seed(const SegmentLoadResult& scan);

  void start();
  /// Drains every queued batch (releasing replies), then joins.
  void stop();

  void submit(CommitBatch batch);

  /// Shard `wlan_id`'s newest durable snapshot covers ordinals <= seq;
  /// wakes the commit thread to retire fully-covered segments.
  void note_checkpoint(std::uint32_t wlan_id, std::uint64_t seq);

  /// Durably append a removal tombstone for `wlan_id` and drop its
  /// retirement bookkeeping. Blocks until the tombstone is on disk (or
  /// the coordinator is degraded/stopped): RemoveWlan must not be
  /// acknowledged — and the id must not be re-registered — while a dead
  /// incarnation's records could still replay.
  void remove_wlan(std::uint32_t wlan_id);

  /// True when any live segment (or the open one) still holds records
  /// for `wlan_id` — a re-registration must fence them with remove_wlan.
  bool has_records(std::uint32_t wlan_id) const;

  /// False once the coordinator gave up on the disk; shards then stop
  /// withholding replies (non-durable operation, already logged loudly).
  bool durable() const;

  /// Live (closed, not yet retired) segment count + the open segment.
  std::size_t segment_count() const;

 private:
  void run();
  /// Append + sync + release one drained run of batches.
  void commit(std::vector<CommitBatch>& batches);
  /// Give up on the disk: close the writer, go non-durable, loudly.
  void degrade(const char* why);
  /// Open the next segment if none is open (mutex_ held).
  bool ensure_writer_locked();
  void maybe_rotate();
  void retire_covered();

  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<CommitBatch> queue_;
  bool running_ = false;
  bool retire_pending_ = false;
  std::atomic<bool> durable_{true};

  // The segment writer itself is commit-thread-only; the retirement
  // bookkeeping below it is guarded by mutex_ (note_checkpoint /
  // has_records / segment_count race the commit thread).
  WalSegmentWriter writer_;
  std::uint64_t next_index_ = 1;
  bool open_segment_ = false;
  /// Per-WLAN newest ordinal in the *open* segment.
  std::map<std::uint32_t, std::uint64_t> open_cover_;
  /// Closed segments' coverage, ascending index.
  std::map<std::uint64_t, std::map<std::uint32_t, std::uint64_t>> closed_;
  /// Per-WLAN newest snapshot-covered ordinal.
  std::map<std::uint32_t, std::uint64_t> checkpoints_;

  std::thread thread_;
};

}  // namespace acorn::service
