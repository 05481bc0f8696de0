#include "service/daemon.hpp"

#include "service/client.hpp"
#include "service/eventlog.hpp"
#include "service/snapshot.hpp"
#include "util/parallel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace acorn::service {

namespace {

/// A client that pipelines requests (QueryConfig replies can be large)
/// but never reads its responses would otherwise grow the per-connection
/// output buffer without bound; past this many unread bytes the
/// connection is dropped.
constexpr std::size_t kMaxConnOutBytes = 8u << 20;

/// How long to stop polling a listener after a hard accept() failure
/// (e.g. EMFILE) — the fd stays readable, so re-polling immediately
/// would busy-spin at 100% CPU.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(100);

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (running_.load()) return;
  if (config_.workers == 0) {
    throw std::invalid_argument(
        "workers must be a positive count, or negative for one per "
        "hardware thread");
  }

  if (!executor_) {
    executor_ = std::make_unique<util::PooledExecutor>(
        util::resolve_threads(config_.workers));
  }

  // Before any shard exists: the first reply posted must find a pipe to
  // wake the loop through.
  if (::pipe(wake_fds_) != 0) throw_errno("pipe");
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);

  if (!config_.state_dir.empty()) {
    ::mkdir(config_.state_dir.c_str(), 0755);  // EEXIST is fine
    SyncCoordinator::Options co;
    co.dir = config_.state_dir;
    co.segment_bytes = config_.wal_segment_bytes;
    co.metrics = &metrics_;
    co.log = config_.log;
    coordinator_ = std::make_unique<SyncCoordinator>(
        std::move(co),
        [this](const ReplyBuffer& frames) { post_completion(frames); });
    recover_shards();
  }

  if (config_.tcp) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) throw_errno("socket(tcp)");
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.tcp_port);
    if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(tcp_listen_fd_, 64) != 0) {
      throw_errno("bind/listen(tcp)");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    tcp_port_ = static_cast<int>(ntohs(addr.sin_port));
    set_nonblocking(tcp_listen_fd_);
  }

  if (!config_.unix_path.empty()) {
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) throw_errno("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("unix socket path too long");
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());  // stale socket from a crash
    if (::bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(unix_listen_fd_, 64) != 0) {
      throw_errno("bind/listen(unix)");
    }
    set_nonblocking(unix_listen_fd_);
  }

  running_.store(true);
  loop_thread_ = std::thread([this] { loop(); });
  if (!config_.follow.empty()) {
    follow_thread_ = std::thread([this] { follow_loop(); });
  }
}

void Daemon::request_stop() {
  if (running_.exchange(false)) {
    const ssize_t ignored [[maybe_unused]] = ::write(wake_fds_[1], "x", 1);
  }
}

void Daemon::stop() {
  request_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (follow_thread_.joinable()) follow_thread_.join();

  {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (auto& [id, shard] : shards_) shard->stop();
    shards_.clear();
  }
  // Every shard has stopped (each waited out its in-flight commit
  // batches), so the coordinator's queue is quiescent; drain and join
  // it before the worker set goes.
  if (coordinator_) {
    coordinator_->stop();
    coordinator_.reset();
  }
  executor_.reset();
  {
    // Replies to connections closed below. Nothing posts any more, and
    // a restarted loop must find the queue empty, or no post would wake
    // it.
    const std::lock_guard<std::mutex> lock(comp_mutex_);
    completions_.clear();
  }
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  if (tcp_listen_fd_ >= 0) ::close(std::exchange(tcp_listen_fd_, -1));
  if (unix_listen_fd_ >= 0) {
    ::close(std::exchange(unix_listen_fd_, -1));
    ::unlink(config_.unix_path.c_str());
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(std::exchange(fd, -1));
  }
}

void Daemon::wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

bool Daemon::running() const { return running_.load(); }

ShardOptions Daemon::shard_options(double epoch_s) {
  ShardOptions opts;
  opts.epoch_s = epoch_s;
  opts.width_hysteresis = config_.width_hysteresis;
  opts.state_dir = config_.state_dir;
  opts.wal_flush_us = config_.wal_flush_us;
  opts.log_epochs = config_.log;
  opts.executor = executor_.get();
  opts.epoch_latency = &metrics_.epoch_latency;
  opts.coordinator = coordinator_.get();
  return opts;
}

std::unique_ptr<WlanShard> Daemon::make_shard(ShardOptions opts,
                                              WlanSnapshot state,
                                              std::vector<WalRecord> replay) {
  return std::make_unique<WlanShard>(
      std::move(opts), std::move(state),
      [this](const ReplyBuffer& frames) { post_completion(frames); },
      std::move(replay));
}

void Daemon::recover_shards() {
  // Followers recover their local state too, but with epoch timers off:
  // once the leader stream attaches, epochs arrive as log records.
  const double epoch_s = config_.follow.empty() ? config_.epoch_s : 0.0;

  SegmentLoadResult segments = load_wal_segments(config_.state_dir);
  if (!segments.clean) {
    std::fprintf(stderr,
                 "acornd: shared WAL tail torn/corrupt, replaying the "
                 "intact prefix\n");
  }
  coordinator_->seed(segments);
  coordinator_->start();

  for (WlanSnapshot& snap : load_snapshots(config_.state_dir)) {
    const std::uint32_t id = snap.wlan_id;
    try {
      // A legacy per-WLAN log (written by older builds) is the upgrade
      // input: its records precede or overlap the segment records, and
      // the shard deletes the file once its start() checkpoint covers
      // them.
      WalLoadResult wal = load_wal(config_.state_dir, id);
      if (!wal.clean) {
        std::fprintf(stderr,
                     "acornd: wlan %u: legacy WAL tail torn/corrupt, "
                     "replaying %zu intact records\n",
                     id, wal.records.size());
      }
      std::vector<WalRecord> replay = std::move(wal.records);
      if (const auto seg = segments.records.find(id);
          seg != segments.records.end()) {
        // Merge the layouts by ordinal; the replay loop skips whichever
        // duplicates the snapshot already covers.
        replay.insert(replay.end(),
                      std::make_move_iterator(seg->second.begin()),
                      std::make_move_iterator(seg->second.end()));
        std::stable_sort(replay.begin(), replay.end(),
                         [](const WalRecord& a, const WalRecord& b) {
                           return a.seq < b.seq;
                         });
      }
      auto shard = make_shard(shard_options(epoch_s), std::move(snap),
                              std::move(replay));
      shard->start();
      const std::lock_guard<std::mutex> lock(shards_mutex_);
      shards_.emplace(id, std::move(shard));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "acornd: cannot recover wlan %u: %s\n", id,
                   e.what());
    }
  }

  // Records for WLANs with no snapshot belong to removed (or never
  // durably registered) ids — the tombstone that fenced them may have
  // died with the crash. Re-assert it so a later re-registration of the
  // id cannot merge a dead incarnation's records.
  for (const auto& [id, records] : segments.records) {
    bool live;
    {
      const std::lock_guard<std::mutex> lock(shards_mutex_);
      live = shards_.count(id) != 0;
    }
    if (!live) coordinator_->remove_wlan(id);
  }
}

void Daemon::remove_durable_state(std::uint32_t wlan_id) {
  if (!coordinator_) return;
  remove_snapshot(config_.state_dir, wlan_id);
  remove_wal(config_.state_dir, wlan_id);
  // Persist the unlinks: a power cut must not resurrect the WLAN.
  fsync_dir(config_.state_dir);
  // Fence the WLAN's segment records with a durable tombstone before
  // the removal is acknowledged (the reply promises it survives a crash
  // — including against id reuse).
  coordinator_->remove_wlan(wlan_id);
}

void Daemon::post_completion(const ReplyBuffer& frames) {
  bool was_empty;
  {
    const std::lock_guard<std::mutex> lock(comp_mutex_);
    was_empty = completions_.empty();
    completions_.append(frames);
  }
  // Later posts ride the drain the first one's wake byte starts: the
  // loop empties the pipe before it takes the queue, so a post that
  // finds the queue empty always leaves a byte behind for the next
  // poll. A full pipe means a wake byte is already pending; EAGAIN is
  // fine.
  if (was_empty) {
    const ssize_t ignored [[maybe_unused]] = ::write(wake_fds_[1], "x", 1);
  }
}

void Daemon::loop() {
  using clock = std::chrono::steady_clock;
  auto last_log = clock::now();
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = listener)

  while (running_.load()) {
    pfds.clear();
    pfd_conn.clear();
    const auto add = [&](int fd, short events, std::uint64_t conn_id) {
      pfds.push_back(pollfd{fd, events, 0});
      pfd_conn.push_back(conn_id);
    };
    add(wake_fds_[0], POLLIN, 0);
    const auto now = clock::now();
    const bool listeners_paused = now < listener_pause_until_;
    if (!listeners_paused) {
      if (tcp_listen_fd_ >= 0) add(tcp_listen_fd_, POLLIN, 0);
      if (unix_listen_fd_ >= 0) add(unix_listen_fd_, POLLIN, 0);
    }
    bool out_pending = false;
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn.out_pos < conn.out.size()) {
        events |= POLLOUT;
        out_pending = true;
      }
      add(conn.fd, events, id);
    }

    if (shutdown_requested_ && !out_pending) break;
    int timeout_ms = shutdown_requested_ ? 20 : (config_.log ? 1000 : -1);
    if (listeners_paused) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
          listener_pause_until_ - now);
      const int wait_ms = static_cast<int>(
          std::max<std::chrono::milliseconds::rep>(1, wait.count()));
      if (timeout_ms < 0 || wait_ms < timeout_ms) timeout_ms = wait_ms;
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      const int fd = pfds[i].fd;
      if (fd == wake_fds_[0]) {
        std::uint8_t drain[256];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        drain_completions();
      } else if (fd == tcp_listen_fd_ || fd == unix_listen_fd_) {
        accept_all(fd);
      } else {
        const std::uint64_t conn_id = pfd_conn[i];
        const auto it = conns_.find(conn_id);
        if (it == conns_.end()) continue;
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (revents & POLLIN) == 0) {
          close_conn(conn_id);
          continue;
        }
        if ((revents & POLLOUT) != 0 && !flush(it->second)) {
          close_conn(conn_id);
          continue;
        }
        if ((revents & POLLIN) != 0) handle_readable(conn_id);
      }
    }

    if (config_.log) {
      const auto now = clock::now();
      if (now - last_log >= std::chrono::seconds(10)) {
        last_log = now;
        const StatsReply s = stats();
        const std::vector<std::uint64_t> eh =
            metrics_.epoch_latency.snapshot();
        const double avg_batch =
            s.wal_syncs > 0 ? static_cast<double>(s.wal_coalesced_events) /
                                  static_cast<double>(s.wal_syncs)
                            : 0.0;
        std::fprintf(stderr,
                     "acornd: %u wlans / %d workers, %llu frames, "
                     "%llu events, %llu epochs (p50 %.1f ms, p99 %.1f ms), "
                     "%llu snapshots, %llu wal syncs "
                     "(avg batch %.1f, p99 sync %.0f us)\n",
                     s.num_wlans, executor_->workers(),
                     static_cast<unsigned long long>(s.frames_rx),
                     static_cast<unsigned long long>(s.events_total),
                     static_cast<unsigned long long>(s.epochs_total),
                     latency_percentile_us(eh, 0.5) / 1e3,
                     latency_percentile_us(eh, 0.99) / 1e3,
                     static_cast<unsigned long long>(s.snapshots_written),
                     static_cast<unsigned long long>(s.wal_syncs), avg_batch,
                     latency_percentile_us(s.wal_sync_us_log2, 0.99));
      }
    }
  }
  running_.store(false);
}

void Daemon::accept_all(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;  // that one connection is gone; keep draining
      }
      // Hard failure (EMFILE/ENFILE/ENOBUFS/...): the listener stays
      // readable, so pause polling it instead of busy-spinning.
      std::fprintf(stderr, "acornd: accept: %s\n", std::strerror(errno));
      listener_pause_until_ = std::chrono::steady_clock::now() +
                              kAcceptBackoff;
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.emplace(next_conn_id_, Conn{fd, {}, {}, 0});
    ++next_conn_id_;
  }
}

void Daemon::handle_readable(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  std::uint8_t buf[FrameBuffer::kReadChunk];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error. Requests that arrived with it still count:
    // they are dispatched below, and the connection closed after them.
    conn.peer_gone = true;
    break;
  }
  while (true) {
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<Frame> frame;
    try {
      frame = conn.in.next();
    } catch (const WireError& e) {
      // The stream is desynchronized: answer with an error (best
      // effort) and drop the connection.
      metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      reply_now(conn_id, 0,
                ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadArgument),
                           e.what()},
                t0);
      close_conn(conn_id);
      return;
    }
    if (!frame) break;
    metrics_.frames_rx.fetch_add(1, std::memory_order_relaxed);
    dispatch(conn_id, std::move(*frame), t0);
    if (conns_.find(conn_id) == conns_.end()) return;  // dispatch closed it
  }
  if (conn.peer_gone) close_conn(conn_id);
}

void Daemon::dispatch(std::uint64_t conn_id, Frame frame,
                      std::chrono::steady_clock::time_point t0) {
  metrics_.events_total.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t seq = frame.seq;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (T::kScope == Scope::kDaemon) {
          handle(conn_id, seq, m, t0);
        } else if constexpr (T::kScope == Scope::kShard) {
          WlanShard* shard = find_shard(m.wlan_id);
          if (shard == nullptr) {
            reply_now(conn_id, seq,
                      ErrorReply{static_cast<std::uint16_t>(
                                     ErrorCode::kUnknownWlan),
                                 "unknown wlan id"},
                      t0);
            return;
          }
          shard->submit(WlanShard::Job{WlanShard::Job::Kind::kMessage,
                                       conn_id, seq, t0, Message{m}});
        } else {
          reply_now(conn_id, seq,
                    ErrorReply{static_cast<std::uint16_t>(
                                   ErrorCode::kBadArgument),
                               "not a request"},
                    t0);
        }
      },
      frame.msg);
}

void Daemon::handle(std::uint64_t conn_id, std::uint32_t seq,
                    const RegisterWlan& reg,
                    std::chrono::steady_clock::time_point t0) {
  std::unique_ptr<WlanShard> shard;
  {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    if (shards_.count(reg.wlan_id) != 0) {
      reply_now(conn_id, seq,
                ErrorReply{static_cast<std::uint16_t>(
                               ErrorCode::kAlreadyRegistered),
                           "wlan id already registered"},
                t0);
      return;
    }
  }
  // Re-registration of an id whose records still sit in WAL segments:
  // append a durable tombstone first, so a crash can never merge the
  // dead incarnation's records (per-WLAN ordinals restart at zero) into
  // the new one's replay.
  if (coordinator_ && coordinator_->has_records(reg.wlan_id)) {
    coordinator_->remove_wlan(reg.wlan_id);
  }
  try {
    WlanSnapshot fresh;
    fresh.wlan_id = reg.wlan_id;
    fresh.deployment = reg.deployment;
    shard = make_shard(shard_options(config_.epoch_s), std::move(fresh));
  } catch (const std::exception& e) {
    reply_now(conn_id, seq,
              ErrorReply{static_cast<std::uint16_t>(ErrorCode::kBadDeployment),
                         e.what()},
              t0);
    return;
  }
  shard->start();
  WlanShard* raw = shard.get();
  {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    shards_.emplace(reg.wlan_id, std::move(shard));
  }
  // Followers that subscribed before this WLAN existed get its snapshot
  // now and its log records from here on.
  for (const std::uint64_t follower : follower_conns_) {
    raw->submit(WlanShard::Job{WlanShard::Job::Kind::kAttachFollower,
                               follower, 0, t0, Message{}});
  }
  reply_now(conn_id, seq, OkReply{static_cast<std::int32_t>(reg.wlan_id)}, t0);
}

void Daemon::handle(std::uint64_t conn_id, std::uint32_t seq,
                    const RemoveWlan& rem,
                    std::chrono::steady_clock::time_point t0) {
  std::unique_ptr<WlanShard> shard;
  {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    const auto it = shards_.find(rem.wlan_id);
    if (it != shards_.end()) {
      shard = std::move(it->second);
      shards_.erase(it);
    }
  }
  if (!shard) {
    reply_now(conn_id, seq,
              ErrorReply{static_cast<std::uint16_t>(ErrorCode::kUnknownWlan),
                         "unknown wlan id"},
              t0);
    return;
  }
  shard->stop();
  remove_durable_state(rem.wlan_id);
  // Tell followers to tear the WLAN down too. record_seq 0 marks a
  // control record (not part of any shard's event ordinals).
  if (!follower_conns_.empty()) {
    const std::vector<std::uint8_t> bytes = encode_frame(
        0, LogRecordFrame{rem.wlan_id, 0,
                          encode_payload(0, RemoveWlan{rem.wlan_id})});
    // A copy: write_out may close a follower, which leaves the set.
    const std::vector<std::uint64_t> followers(follower_conns_.begin(),
                                               follower_conns_.end());
    for (const std::uint64_t follower : followers) {
      const auto it = conns_.find(follower);
      if (it == conns_.end() || it->second.peer_gone) continue;
      it->second.out.insert(it->second.out.end(), bytes.begin(), bytes.end());
      write_out(follower, it->second);
    }
  }
  reply_now(conn_id, seq, OkReply{}, t0);
}

void Daemon::handle(std::uint64_t conn_id, std::uint32_t seq, const FollowLog&,
                    std::chrono::steady_clock::time_point t0) {
  reply_now(conn_id, seq, OkReply{}, t0);
  follower_conns_.insert(conn_id);
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  for (auto& [id, shard] : shards_) {
    shard->submit(WlanShard::Job{WlanShard::Job::Kind::kAttachFollower,
                                 conn_id, 0, t0, Message{}});
  }
}

void Daemon::handle(std::uint64_t conn_id, std::uint32_t seq,
                    const QueryStats&,
                    std::chrono::steady_clock::time_point t0) {
  reply_now(conn_id, seq, stats(), t0);
}

void Daemon::handle(std::uint64_t conn_id, std::uint32_t seq, const Shutdown&,
                    std::chrono::steady_clock::time_point t0) {
  reply_now(conn_id, seq, OkReply{}, t0);
  shutdown_requested_ = true;
}

WlanShard* Daemon::find_shard(std::uint32_t wlan_id) {
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  const auto it = shards_.find(wlan_id);
  return it == shards_.end() ? nullptr : it->second.get();
}

void Daemon::reply_now(std::uint64_t conn_id, std::uint32_t seq, Message msg,
                       std::chrono::steady_clock::time_point t0) {
  metrics_.request_latency.record(std::chrono::steady_clock::now() - t0);
  const auto it = conns_.find(conn_id);
  // Client went away (or is going): drop the reply.
  if (it == conns_.end() || it->second.peer_gone) return;
  encode_frame_into(it->second.out, seq, msg);
  write_out(conn_id, it->second);
}

void Daemon::write_out(std::uint64_t conn_id, Conn& conn) {
  if (!flush(conn)) {
    close_conn(conn_id);
    return;
  }
  if (conn.out.size() - conn.out_pos > kMaxConnOutBytes) {
    std::fprintf(stderr,
                 "acornd: dropping connection %llu: %zu unread reply "
                 "bytes buffered\n",
                 static_cast<unsigned long long>(conn_id),
                 conn.out.size() - conn.out_pos);
    close_conn(conn_id);
  }
}

bool Daemon::flush(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    // MSG_NOSIGNAL: a peer that went away is an EPIPE error that closes
    // the connection, not a SIGPIPE that ends the process.
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_pos,
               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    break;  // the socket is full: poll retries on POLLOUT
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
  return true;
}

void Daemon::close_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  if (follower_conns_.erase(conn_id) != 0) {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (auto& [id, shard] : shards_) {
      shard->submit(WlanShard::Job{WlanShard::Job::Kind::kDetachFollower,
                                   conn_id, 0,
                                   std::chrono::steady_clock::now(),
                                   Message{}});
    }
  }
}

void Daemon::drain_completions() {
  {
    const std::lock_guard<std::mutex> lock(comp_mutex_);
    std::swap(completions_, draining_);
  }
  // Append every frame to its connection's output first (conn id 0,
  // a follower's replayed event, never matches), then write each
  // touched connection once.
  const auto now = std::chrono::steady_clock::now();
  std::uint64_t last_id = 0;
  Conn* conn = nullptr;
  for (const ReplyBuffer::Entry& e : draining_.entries) {
    metrics_.request_latency.record(now - e.t0);
    if (e.conn_id != last_id) {
      last_id = e.conn_id;
      const auto it = conns_.find(e.conn_id);
      conn = it == conns_.end() ? nullptr : &it->second;
    }
    if (conn == nullptr) continue;  // client went away; drop the reply
    if (!conn->touched) {
      conn->touched = true;
      touched_.push_back(e.conn_id);
    }
    const std::span<const std::uint8_t> frame = draining_.frame(e);
    conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  }
  draining_.clear();
  for (const std::uint64_t conn_id : touched_) {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;
    it->second.touched = false;
    write_out(conn_id, it->second);
  }
  touched_.clear();
}

StatsReply Daemon::stats() const {
  StatsReply s;
  s.frames_rx = metrics_.frames_rx.load(std::memory_order_relaxed);
  s.events_total = metrics_.events_total.load(std::memory_order_relaxed);
  s.protocol_errors =
      metrics_.protocol_errors.load(std::memory_order_relaxed);
  s.latency_us_log2 = metrics_.request_latency.snapshot();
  s.wal_syncs = metrics_.wal_syncs.load(std::memory_order_relaxed);
  s.wal_coalesced_events =
      metrics_.wal_coalesced_events.load(std::memory_order_relaxed);
  s.wal_sync_us_log2 = metrics_.wal_sync_latency.snapshot();
  s.wal_batch_log2 = metrics_.wal_batch_events.snapshot();
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  s.num_wlans = static_cast<std::uint32_t>(shards_.size());
  for (const auto& [id, shard] : shards_) {
    const ShardCounters c = shard->counters();
    s.epochs_total += c.epochs;
    s.snapshots_written += c.snapshots_written;
    s.wal_records += c.wal_records;
    s.wal_flushes += c.wal_flushes;
    s.channel_switches += c.channel_switches;
    s.width_switches += c.width_switches;
    s.assoc_changes += c.assoc_changes;
    s.alloc_evaluations += c.alloc_evaluations;
    s.oracle_cell_evals += c.oracle_cell_evals;
    s.oracle_cell_hits += c.oracle_cell_hits;
    s.oracle_share_evals += c.oracle_share_evals;
    s.oracle_share_hits += c.oracle_share_hits;
    if (c.last_epoch_ms > 0.0) s.last_epoch_ms = c.last_epoch_ms;
  }
  return s;
}

std::vector<std::uint32_t> Daemon::wlan_ids() const {
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  std::vector<std::uint32_t> ids;
  ids.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) ids.push_back(id);
  return ids;
}

std::optional<WlanSnapshot> Daemon::wlan_state(std::uint32_t wlan_id) const {
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  const auto it = shards_.find(wlan_id);
  if (it == shards_.end()) return std::nullopt;
  return it->second->state_snapshot();
}

void Daemon::follow_session() {
  Client client = Client::connect(config_.follow);
  // Short read timeout so shutdown is noticed promptly; an expired wait
  // surfaces as EAGAIN and just re-checks running_.
  client.set_recv_timeout_ms(100);
  client.send(Message{FollowLog{}});
  // Per-WLAN high-water mark of applied record ordinals. Records at or
  // below it are duplicates from a re-subscription; a gap above it means
  // the stream desynchronized and the session restarts from a fresh
  // snapshot.
  std::map<std::uint32_t, std::uint64_t> applied;
  while (running_.load()) {
    Frame frame;
    try {
      frame = client.recv();
    } catch (const std::system_error& e) {
      if (e.code() == std::errc::resource_unavailable_try_again ||
          e.code() == std::errc::operation_would_block ||
          e.code() == std::errc::timed_out) {
        continue;
      }
      throw;
    }

    if (auto* sf = std::get_if<SnapshotFrame>(&frame.msg)) {
      WlanSnapshot snap = decode_snapshot(sf->snapshot);
      const std::uint32_t id = snap.wlan_id;
      const std::uint64_t base_seq = snap.events_applied;
      // Retire any previous incarnation *before* the replacement is
      // built: stop() writes a final snapshot, which must not clobber
      // the fresh checkpoint the new shard writes in start(). A standby
      // restarted after a resubscribe would otherwise recover the old
      // shard's stale state and discard every streamed record above it
      // as a sequence gap.
      std::unique_ptr<WlanShard> old;
      {
        const std::lock_guard<std::mutex> lock(shards_mutex_);
        const auto it = shards_.find(id);
        if (it != shards_.end()) {
          old = std::move(it->second);
          shards_.erase(it);
        }
      }
      if (old) old->stop();
      applied.erase(id);
      auto shard = make_shard(shard_options(0.0), std::move(snap));
      shard->start();
      {
        const std::lock_guard<std::mutex> lock(shards_mutex_);
        shards_[id] = std::move(shard);
      }
      applied[id] = base_seq;
      continue;
    }

    if (auto* rec = std::get_if<LogRecordFrame>(&frame.msg)) {
      const std::uint32_t id = rec->wlan_id;
      const Frame payload = decode_payload(rec->payload);
      if (rec->record_seq == 0) {
        // Control record, outside any shard's event ordinals.
        if (std::get_if<RemoveWlan>(&payload.msg) != nullptr) {
          std::unique_ptr<WlanShard> victim;
          {
            const std::lock_guard<std::mutex> lock(shards_mutex_);
            const auto it = shards_.find(id);
            if (it != shards_.end()) {
              victim = std::move(it->second);
              shards_.erase(it);
            }
          }
          if (victim) victim->stop();
          remove_durable_state(id);
          applied.erase(id);
        }
        continue;
      }
      const auto it = applied.find(id);
      if (it == applied.end()) continue;   // no snapshot seen for this WLAN
      if (rec->record_seq <= it->second) continue;  // duplicate
      if (rec->record_seq != it->second + 1) {
        throw std::runtime_error("replicated log gap (expected " +
                                 std::to_string(it->second + 1) + ", got " +
                                 std::to_string(rec->record_seq) + ")");
      }
      WlanShard* shard = find_shard(id);
      if (shard == nullptr) {
        // The ordinal map tracks this WLAN but no shard exists: the
        // session state diverged. Advancing the high-water mark here
        // would count the record as applied without applying it, so
        // tear the session down and resubscribe for a fresh snapshot.
        throw std::runtime_error("replicated log record for wlan " +
                                 std::to_string(id) +
                                 " with no live shard");
      }
      // conn id 0 never matches a live connection, so the shard's
      // reply completion is dropped on the floor — the leader already
      // answered the originating client.
      shard->submit(WlanShard::Job{WlanShard::Job::Kind::kMessage, 0, 0,
                                   std::chrono::steady_clock::now(),
                                   payload.msg});
      it->second = rec->record_seq;
      continue;
    }
    // OkReply acknowledging the subscription (or anything else): ignore.
  }
}

void Daemon::follow_loop() {
  while (running_.load()) {
    try {
      follow_session();
    } catch (const std::exception& e) {
      if (running_.load()) {
        std::fprintf(stderr, "acornd: follow %s: %s (reconnecting)\n",
                     config_.follow.c_str(), e.what());
      }
    }
    for (int i = 0; i < 5 && running_.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace acorn::service
