// acornd: the long-running multi-WLAN controller daemon.
//
// One nonblocking poll(2) event loop accepts TCP (127.0.0.1) and Unix
// domain connections, reassembles length-prefixed wire frames
// (service/wire.hpp) and dispatches them:
//
//   * daemon-scoped requests (register/remove WLAN, follow-log, stats,
//     shutdown) are handled inline on the loop thread;
//   * shard-scoped requests (join/leave/SNR/load/reconfigure/config) are
//     forwarded to that WLAN's shard worker (service/shard.hpp), whose
//     replies come back through a completion queue + wake pipe and are
//     written out by the loop: one wake byte per burst (only when the
//     queue goes from empty to non-empty), and per drain one write per
//     connection carrying every reply queued for it;
//   * a response or replication frame sent as a request gets an
//     ErrorReply (kBadArgument), and the connection stays open.
//
// The scope of each message is declared with it in service/wire.hpp.
//
// A framing error on a connection (garbage length prefix, unknown type,
// truncated body) closes that connection: once the stream is
// desynchronized no later frame boundary can be trusted.
//
// With a state directory, one SyncCoordinator journals every shard's
// events into shared WAL segments (service/sync_coordinator.hpp). On
// startup every `wlan_*.snap` snapshot is recovered into a live shard —
// followed by a replay of that WLAN's write-ahead log suffix
// (service/eventlog.hpp), so events acknowledged after the last epoch
// snapshot survive a crash too — before the listeners open, so clients
// see the pre-crash state from the first accepted connection.
//
// Replication: a connection that sends FollowLog becomes a *follower* —
// it receives every shard's state as a SnapshotFrame and from then on
// every durable (fsynced) event as a LogRecordFrame, in order.
// Conversely a daemon started with `follow` set connects to that
// endpoint as a warm standby: it applies the streamed snapshot + log
// records through the same deterministic shard pipeline, so its state
// is byte-identical to the leader's durable state.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics.hpp"
#include "service/shard.hpp"
#include "service/sync_coordinator.hpp"
#include "service/wire.hpp"

namespace acorn::service {

/// Durability layout. The shared `seg_<n>.walseg` segments are the only
/// one, so nothing reads this; it remains while benchmark code still
/// assigns DaemonConfig::wal_mode.
enum class WalMode {
  kShared,
};

struct DaemonConfig {
  /// Snapshot + WAL directory (created if missing); empty = no
  /// persistence.
  std::string state_dir;
  /// Bind a TCP listener on 127.0.0.1:`tcp_port` (0 = ephemeral port,
  /// readable via Daemon::tcp_port()). Disabled when `tcp` is false.
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  /// Bind a Unix-domain listener at this path; empty disables it.
  std::string unix_path;
  /// Shard reconfiguration period (seconds); <= 0 = only on demand.
  double epoch_s = 1.0;
  double width_hysteresis = 1.05;
  /// WAL group-commit window (microseconds); see ShardOptions.
  std::uint32_t wal_flush_us = 200;
  /// Unused: the daemon always journals to shared segments. Kept only
  /// because benchmark code still assigns it; see WalMode.
  WalMode wal_mode = WalMode::kShared;
  /// Rotate to a fresh WAL segment past this many bytes (tests shrink it
  /// to exercise rotation + retirement).
  std::uint64_t wal_segment_bytes = 64ull << 20;
  /// Pooled shard workers: N > 0 workers, or a negative value for one
  /// per hardware thread (the default). Every registered WLAN is
  /// multiplexed over this fixed worker set, so one daemon can host
  /// thousands of small WLANs. start() rejects 0.
  int workers = -1;
  /// Leader endpoint (`unix:/path` or `host:port`) to follow as a warm
  /// standby; empty = normal (leader) operation. A following daemon
  /// mirrors the leader's WLANs with epoch timers disabled — epochs
  /// arrive as replicated ForceReconfigure records.
  std::string follow;
  /// Emit per-epoch and periodic stats log lines to stderr.
  bool log = false;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Recover snapshots, bind listeners, spawn the event loop. Throws
  /// std::system_error when a listener cannot be bound, and
  /// std::invalid_argument when `workers` is 0.
  void start();
  /// Graceful shutdown: stop the loop, drain shards (each writes a
  /// final snapshot), close sockets. Idempotent.
  void stop();
  /// Async-signal-safe: flag the event loop to exit (atomic store plus
  /// one wake-pipe write). Call stop() afterwards — or let the
  /// destructor — to drain shards and release resources.
  void request_stop();
  /// Block until a Shutdown request (or stop()) terminates the loop.
  void wait();

  bool running() const;
  /// Actual TCP port (after an ephemeral bind), 0 when TCP is off.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  /// Aggregated daemon + shard statistics (same data as a StatsReply).
  StatsReply stats() const;

  /// Registered WLAN ids, ascending.
  std::vector<std::uint32_t> wlan_ids() const;
  /// Current durable state of one WLAN (what its next snapshot would
  /// contain), or nullopt when the id is not registered.
  std::optional<WlanSnapshot> wlan_state(std::uint32_t wlan_id) const;

 private:
  struct Conn {
    int fd = -1;
    FrameBuffer in;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    /// Replies were appended during the current drain; written at its
    /// end.
    bool touched = false;
    /// The peer closed (or reset) its end: the requests it sent before
    /// are still dispatched, but no reply is written.
    bool peer_gone = false;
  };

  void loop();
  void accept_all(int listen_fd);
  void handle_readable(std::uint64_t conn_id);
  /// Route a request by its message's scope: a daemon handler, its
  /// WLAN's shard, or an ErrorReply for a response or replication frame.
  void dispatch(std::uint64_t conn_id, Frame frame,
                std::chrono::steady_clock::time_point t0);
  // The daemon-scoped handlers, on the loop thread.
  void handle(std::uint64_t conn_id, std::uint32_t seq, const RegisterWlan& m,
              std::chrono::steady_clock::time_point t0);
  void handle(std::uint64_t conn_id, std::uint32_t seq, const RemoveWlan& m,
              std::chrono::steady_clock::time_point t0);
  void handle(std::uint64_t conn_id, std::uint32_t seq, const FollowLog& m,
              std::chrono::steady_clock::time_point t0);
  void handle(std::uint64_t conn_id, std::uint32_t seq, const QueryStats& m,
              std::chrono::steady_clock::time_point t0);
  void handle(std::uint64_t conn_id, std::uint32_t seq, const Shutdown& m,
              std::chrono::steady_clock::time_point t0);
  void reply_now(std::uint64_t conn_id, std::uint32_t seq, Message msg,
                 std::chrono::steady_clock::time_point t0);
  /// Write what `conn` has buffered; false on a hard write error.
  bool flush(Conn& conn);
  /// flush(), then close the connection on a write error or when more
  /// than kMaxConnOutBytes stay unread.
  void write_out(std::uint64_t conn_id, Conn& conn);
  void close_conn(std::uint64_t conn_id);
  void drain_completions();
  /// Queue frames for the loop (any thread); wakes it only when the
  /// queue was empty.
  void post_completion(const ReplyBuffer& frames);
  void recover_shards();
  /// Delete a removed WLAN's snapshot and legacy log and fence its
  /// segment records (no-op without a state dir).
  void remove_durable_state(std::uint32_t wlan_id);
  WlanShard* find_shard(std::uint32_t wlan_id);
  ShardOptions shard_options(double epoch_s);
  std::unique_ptr<WlanShard> make_shard(ShardOptions opts, WlanSnapshot state,
                                        std::vector<WalRecord> replay = {});
  void follow_loop();
  /// One leader session: connect, subscribe, apply frames until error
  /// or shutdown. Returns normally on clean EOF/desync (caller retries).
  void follow_session();

  DaemonConfig config_;
  ServiceMetrics metrics_;
  /// Pooled shard executor. Created before any shard starts, destroyed
  /// after every shard has stopped (shards detach through it).
  std::unique_ptr<util::PooledExecutor> executor_;
  /// WAL group-commit thread (null without a state dir). Started before
  /// any shard, stopped after every shard has stopped (shards wait out
  /// their in-flight batches in stop()).
  std::unique_ptr<SyncCoordinator> coordinator_;

  int tcp_listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  int tcp_port_ = 0;
  int wake_fds_[2] = {-1, -1};

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  bool shutdown_requested_ = false;  // loop thread only

  std::map<std::uint64_t, Conn> conns_;  // loop thread only
  std::uint64_t next_conn_id_ = 1;       // loop thread only
  /// Connections subscribed via FollowLog; loop thread only.
  std::set<std::uint64_t> follower_conns_;
  /// Listeners are not polled before this instant (set after a hard
  /// accept() failure such as EMFILE); loop thread only.
  std::chrono::steady_clock::time_point listener_pause_until_{};

  mutable std::mutex shards_mutex_;
  std::map<std::uint32_t, std::unique_ptr<WlanShard>> shards_;

  std::mutex comp_mutex_;
  ReplyBuffer completions_;
  /// The drain's swap partner of completions_, and the connections it
  /// touched; loop thread only, reused across drains.
  ReplyBuffer draining_;
  std::vector<std::uint64_t> touched_;

  std::thread follow_thread_;  // runs follow_loop() when config_.follow set
};

}  // namespace acorn::service
