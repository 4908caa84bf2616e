// lifecycle_test.cpp — the serve layer's overload-and-lifecycle hardening
// (docs/SERVING.md "Overload & lifecycle"): bounded admission and S001
// shedding, idle/IO deadlines against slow and hostile clients, the
// per-line byte bound, the metrics listener's read/write deadlines,
// graceful drain, the health op, crash-safe disk
// cache publication, and the chaos sites consumed through the retrying
// client. These tests drive real sockets against a live serve_tcp, so
// they are POSIX-only, like the transport itself.
#include <gtest/gtest.h>

#if !defined(_WIN32)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "rt/fault.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace proteus::serve {
namespace {

constexpr const char* kSource = "fun sq(n: int): int = n * n\n";

Json request(std::initializer_list<std::pair<const std::string, Json>> kv) {
  return Json(Json::Object(kv));
}

/// A raw test client: one blocking TCP connection with a receive timeout,
/// free to misbehave in ways RetryingClient never would.
class RawConn {
 public:
  explicit RawConn(int port, int recv_timeout_ms = 5000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec =
        static_cast<decltype(tv.tv_usec)>((recv_timeout_ms % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~RawConn() { close(); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send_raw(const std::string& data) const {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one reply line (newline stripped); "" on EOF/timeout.
  std::string read_line() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t nl = buffer_.find('\n');
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

  /// True when the peer closed the connection (EOF within the timeout).
  bool read_eof() const {
    char c = 0;
    return ::read(fd_, &c, 1) == 0;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Parses a reply line and returns error.code ("" when none/ok).
std::string error_code_of(const std::string& line) {
  std::string parse_error;
  std::optional<Json> parsed = parse_json(line, &parse_error);
  if (!parsed.has_value()) return "unparseable: " + parse_error;
  return parsed->get("error").get("code").as_string();
}

/// A live serve_tcp on a free port, torn down with the fixture. Tests
/// read gauges through server().handle_request (thread-safe) to sequence
/// deterministically instead of sleeping.
class LifecycleTest : public ::testing::Test {
 protected:
  void start(ServerOptions options) {
    server_ = std::make_unique<Server>(std::move(options));
    thread_ = std::thread([this] {
      rc_ = server_->serve_tcp("127.0.0.1", 0, announce_);
    });
    while (server_->tcp_port() < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Joins the transport and returns its exit code.
  int finish() {
    if (thread_.joinable()) thread_.join();
    return rc_;
  }

  void TearDown() override {
    rt::disarm_faults();
    if (server_ != nullptr) server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  Server& server() { return *server_; }
  int port() { return server_->tcp_port(); }

  Json health() { return server_->handle_request(request({{"op", "health"}})); }

  /// Spins until the health gauges match (the accept/pop hand-off is
  /// asynchronous); fails the test on timeout.
  void wait_gauges(std::uint64_t queue_depth, std::uint64_t active_conns) {
    for (int i = 0; i < 2000; ++i) {
      Json h = health();
      if (h.get("queue_depth").as_int(-1) ==
              static_cast<std::int64_t>(queue_depth) &&
          h.get("active_conns").as_int(-1) ==
              static_cast<std::int64_t>(active_conns)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "gauges never reached queue_depth=" << queue_depth
           << " active_conns=" << active_conns << ": " << health().dump();
  }

  std::unique_ptr<Server> server_;
  std::thread thread_;
  std::ostringstream announce_;
  int rc_ = -1;
};

TEST(ServeHealth, ReportsStatusAndGauges) {
  Server server;
  Json h = server.handle_request(request({{"op", "health"}, {"id", 3}}));
  EXPECT_TRUE(h.get("ok").as_bool());
  EXPECT_EQ(h.get("id").as_int(), 3);
  EXPECT_EQ(h.get("status").as_string(), "ok");
  EXPECT_FALSE(h.get("draining").as_bool(true));
  EXPECT_EQ(h.get("queue_depth").as_int(-1), 0);
  EXPECT_EQ(h.get("cache_entries").as_int(-1), 0);

  server.begin_drain();
  h = server.handle_request(request({{"op", "health"}}));
  EXPECT_EQ(h.get("status").as_string(), "draining");
  EXPECT_TRUE(h.get("draining").as_bool(false));
  server.begin_drain();  // idempotent
  EXPECT_EQ(h.get("status").as_string(), "draining");

  server.request_stop();
  h = server.handle_request(request({{"op", "health"}}));
  EXPECT_EQ(h.get("status").as_string(), "stopping");
}

TEST_F(LifecycleTest, ShedsBeyondMaxQueueWithS001) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.retry_after_ms = 77;
  start(options);

  // Pin the single worker with an idle connection, then fill the queue.
  RawConn pin(port());
  ASSERT_TRUE(pin.connected());
  wait_gauges(/*queue_depth=*/0, /*active_conns=*/1);
  RawConn queued(port());
  ASSERT_TRUE(queued.connected());
  wait_gauges(/*queue_depth=*/1, /*active_conns=*/1);

  // The next connection is over capacity: shed with a structured S001
  // busy frame carrying the configured backoff hint, then closed.
  RawConn shed(port());
  ASSERT_TRUE(shed.connected());
  const std::string frame = shed.read_line();
  ASSERT_FALSE(frame.empty());
  std::optional<Json> parsed = parse_json(frame, nullptr);
  ASSERT_TRUE(parsed.has_value()) << frame;
  EXPECT_FALSE(parsed->get("ok").as_bool(true));
  EXPECT_EQ(parsed->get("error").get("code").as_string(), "S001");
  EXPECT_EQ(parsed->get("error").get("kind").as_string(), "overload");
  EXPECT_EQ(parsed->get("error").get("retry_after_ms").as_int(0), 77);
  EXPECT_TRUE(shed.read_eof());

  // The shed is counted; the admitted connections are untouched.
  Json metrics =
      server().handle_request(request({{"op", "metrics"}}));
  EXPECT_EQ(metrics.get("metrics").get("serve.shed_total").as_int(0), 1);

  // Capacity frees as soon as the pins close; the next connection is
  // admitted and served, not shed.
  pin.close();
  queued.close();
  wait_gauges(/*queue_depth=*/0, /*active_conns=*/0);
  RawConn ping(port());
  ASSERT_TRUE(ping.connected());
  ASSERT_TRUE(ping.send_raw("{\"op\":\"ping\"}\n"));
  const std::string reply = ping.read_line();
  EXPECT_NE(reply.find("\"pong\":true"), std::string::npos) << reply;
}

TEST_F(LifecycleTest, IdleTimeoutReclaimsWorkerS002) {
  ServerOptions options;
  options.workers = 1;
  options.idle_timeout_ms = 150;
  start(options);

  RawConn idle(port());
  ASSERT_TRUE(idle.connected());
  const std::string frame = idle.read_line();
  EXPECT_EQ(error_code_of(frame), "S002") << frame;
  EXPECT_TRUE(idle.read_eof());

  // The worker is reclaimed and serves the next connection.
  RawConn next(port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.send_raw("{\"op\":\"ping\"}\n"));
  EXPECT_NE(next.read_line().find("\"pong\""), std::string::npos);
}

TEST_F(LifecycleTest, MidRequestStallIsS003) {
  ServerOptions options;
  options.workers = 1;
  options.idle_timeout_ms = 10000;  // idle is patient...
  options.io_timeout_ms = 150;      // ...mid-request is not
  start(options);

  RawConn slow(port());
  ASSERT_TRUE(slow.connected());
  // Half a request, then silence: the I/O deadline must reclaim the
  // worker long before the idle timeout would.
  ASSERT_TRUE(slow.send_raw("{\"op\":\"pi"));
  const std::string frame = slow.read_line();
  EXPECT_EQ(error_code_of(frame), "S003") << frame;
  EXPECT_TRUE(slow.read_eof());
}

TEST_F(LifecycleTest, OversizedLinesAreS004) {
  ServerOptions options;
  options.workers = 1;
  options.max_line_bytes = 1024;
  start(options);

  // A newline-free flood must not grow the buffer without bound.
  {
    RawConn flood(port());
    ASSERT_TRUE(flood.connected());
    ASSERT_TRUE(flood.send_raw(std::string(4096, 'x')));
    const std::string frame = flood.read_line();
    EXPECT_EQ(error_code_of(frame), "S004") << frame;
    EXPECT_TRUE(flood.read_eof());
  }
  // A giant line that DOES arrive with its newline in one chunk is
  // rejected at extraction, not evaluated.
  {
    RawConn giant(port());
    ASSERT_TRUE(giant.connected());
    ASSERT_TRUE(giant.send_raw(std::string(2048, 'y') + "\n"));
    const std::string frame = giant.read_line();
    EXPECT_EQ(error_code_of(frame), "S004") << frame;
    EXPECT_TRUE(giant.read_eof());
  }
}

TEST_F(LifecycleTest, PartialFramesAndPipeliningServe) {
  ServerOptions options;
  options.workers = 1;
  start(options);

  RawConn conn(port());
  ASSERT_TRUE(conn.connected());
  // One request dribbled in three chunks...
  ASSERT_TRUE(conn.send_raw("{\"op\":"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(conn.send_raw("\"ping\","));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ...completed in the same chunk as a second, pipelined request.
  ASSERT_TRUE(conn.send_raw("\"id\":1}\n{\"op\":\"ping\",\"id\":2}\n"));
  const std::string first = conn.read_line();
  const std::string second = conn.read_line();
  EXPECT_NE(first.find("\"id\":1"), std::string::npos) << first;
  EXPECT_NE(second.find("\"id\":2"), std::string::npos) << second;
}

TEST_F(LifecycleTest, MidRequestDisconnectReclaimsWorker) {
  ServerOptions options;
  options.workers = 1;
  start(options);

  {
    RawConn rude(port());
    ASSERT_TRUE(rude.connected());
    ASSERT_TRUE(rude.send_raw("{\"op\":\"eval\",\"sour"));
  }  // destructor closes mid-request

  RawConn next(port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.send_raw("{\"op\":\"ping\"}\n"));
  EXPECT_NE(next.read_line().find("\"pong\""), std::string::npos);
}

TEST_F(LifecycleTest, DrainServesQueuedThenExitsZero) {
  ServerOptions options;
  options.workers = 1;
  options.drain_ms = 5000;
  start(options);

  // Pin the worker with an idle connection; a queued connection already
  // has a full request buffered in its socket.
  RawConn pin(port());
  ASSERT_TRUE(pin.connected());
  wait_gauges(/*queue_depth=*/0, /*active_conns=*/1);
  RawConn queued(port());
  ASSERT_TRUE(queued.connected());
  ASSERT_TRUE(queued.send_raw("{\"op\":\"ping\",\"id\":9}\n"));
  wait_gauges(/*queue_depth=*/1, /*active_conns=*/1);

  const auto drain_start = std::chrono::steady_clock::now();
  server().begin_drain();

  // The idle pin is retired with S005 after its short drain grace, which
  // frees the worker to serve the queued request before stopping.
  const std::string pin_frame = pin.read_line();
  EXPECT_EQ(error_code_of(pin_frame), "S005") << pin_frame;
  const std::string queued_reply = queued.read_line();
  EXPECT_NE(queued_reply.find("\"pong\":true"), std::string::npos)
      << queued_reply;
  EXPECT_NE(queued_reply.find("\"id\":9"), std::string::npos);

  EXPECT_EQ(finish(), 0);
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - drain_start);
  EXPECT_LT(took.count(), options.drain_ms) << "drain overran its grace";

  // Draining refuses new connections: the listener is gone.
  RawConn refused(port());
  if (refused.connected()) {
    // A connect that races the close still gets nothing served.
    EXPECT_TRUE(refused.read_eof());
  }
}

TEST_F(LifecycleTest, StopRetiresQueuedWithS005) {
  ServerOptions options;
  options.workers = 1;
  start(options);

  RawConn pin(port());
  ASSERT_TRUE(pin.connected());
  wait_gauges(/*queue_depth=*/0, /*active_conns=*/1);
  RawConn queued(port());
  ASSERT_TRUE(queued.connected());
  wait_gauges(/*queue_depth=*/1, /*active_conns=*/1);

  server().request_stop();
  EXPECT_EQ(finish(), 0);
  // Hard stop: both the in-service and the queued connection are retired
  // with a draining frame, never silence.
  EXPECT_EQ(error_code_of(pin.read_line()), "S005");
  EXPECT_EQ(error_code_of(queued.read_line()), "S005");
}

TEST_F(LifecycleTest, RetryingClientAbsorbsInjectedSocketFaults) {
  ServerOptions options;
  options.workers = 2;
  start(options);

  RetryPolicy policy;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  RetryingClient client("127.0.0.1", port(), policy);

  const Json eval = request({{"op", "eval"},
                             {"source", kSource},
                             {"entry", "sq(6)"}});

  // An injected read-reset (S006), then a write-drop (S007), then a
  // stall (S008): each kills exactly one attempt; the client's backoff
  // absorbs all of them with zero wrong answers.
  const char* specs[] = {"sock-read:1", "sock-write:1", "sock-stall:1"};
  for (const char* spec : specs) {
    rt::arm_faults(rt::parse_fault_plan(spec));
    std::string error;
    std::optional<Json> reply = client.call(eval, &error);
    ASSERT_TRUE(reply.has_value()) << spec << ": " << error;
    EXPECT_TRUE(reply->get("ok").as_bool(false)) << reply->dump();
    EXPECT_EQ(reply->get("result").as_string(), "36") << spec;
    EXPECT_FALSE(rt::faults_armed()) << spec << " never fired";
  }
  EXPECT_GE(client.stats().io_retries, 3u);

  // The injected faults were counted under their serve-trap codes.
  Json metrics = server().handle_request(request({{"op", "metrics"}}));
  const Json& m = metrics.get("metrics");
  EXPECT_EQ(m.get("serve.trap.S006").as_int(0), 1);
  EXPECT_EQ(m.get("serve.trap.S007").as_int(0), 1);
  EXPECT_EQ(m.get("serve.trap.S008").as_int(0), 1);
}

TEST_F(LifecycleTest, RetryingClientHonorsBusyFrames) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.retry_after_ms = 20;
  start(options);

  // Saturate: worker pinned + queue full, so the client's first attempts
  // are shed with S001.
  auto pin = std::make_unique<RawConn>(port());
  ASSERT_TRUE(pin->connected());
  wait_gauges(/*queue_depth=*/0, /*active_conns=*/1);
  auto queued = std::make_unique<RawConn>(port());
  ASSERT_TRUE(queued->connected());
  wait_gauges(/*queue_depth=*/1, /*active_conns=*/1);

  // Free the capacity while the client is mid-backoff.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pin->close();
    queued->close();
  });

  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_backoff_ms = 5;
  RetryingClient client("127.0.0.1", port(), policy);
  std::string error;
  std::optional<Json> reply =
      client.call(request({{"op", "ping"}}), &error);
  releaser.join();
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_TRUE(reply->get("pong").as_bool(false)) << reply->dump();
  EXPECT_GE(client.stats().busy_retries, 1u);
}

TEST(ServeMetricsHttp, SlowClientCannotHoldTheScrapeListener) {
  ServerOptions options;
  options.io_timeout_ms = 300;
  Server server(options);
  std::ostringstream announce;
  std::atomic<bool> returned{false};
  std::thread listener([&] {
    (void)server.serve_metrics_http("127.0.0.1", 0, announce);
    returned = true;
  });
  while (server.metrics_http_port() < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int port = server.metrics_http_port();

  // Clients that drip one byte every 100 ms and never finish their head:
  // each byte arrives well inside any per-read poll timeout.
  std::atomic<bool> stop_drip{false};
  const auto drip = [&](const RawConn& conn) {
    for (int i = 0; i < 40 && !stop_drip; ++i) {
      if (!conn.send_raw("G")) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  };
  RawConn slow(port);
  ASSERT_TRUE(slow.connected());
  std::thread dripper([&] { drip(slow); });
  // Let the single listener thread accept the slow client first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A real scrape still gets its 200 within a second: the slow client's
  // head read ends at its io_timeout_ms deadline.
  const auto start = std::chrono::steady_clock::now();
  RawConn scrape(port, /*recv_timeout_ms=*/1000);
  ASSERT_TRUE(scrape.connected());
  ASSERT_TRUE(scrape.send_raw("GET /metrics HTTP/1.0\r\n\r\n"));
  const std::string status = scrape.read_line();
  EXPECT_EQ(status.rfind("HTTP/1.0 200", 0), 0u) << "status: " << status;
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));

  // A stop request ends the listener even while a client is dripping.
  RawConn slow2(port);
  ASSERT_TRUE(slow2.connected());
  std::thread dripper2([&] { drip(slow2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_stop();
  for (int i = 0; i < 1000 && !returned; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(returned) << "serve_metrics_http ignored request_stop()";

  stop_drip = true;
  dripper.join();
  dripper2.join();
  listener.join();
}

TEST(ServeCache, DiskInsertIsAtomicAndLeavesNoTmp) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("proteus-lifecycle-cache-" +
        std::to_string(static_cast<std::uint64_t>(::getpid()))))
          .string();
  std::filesystem::remove_all(dir);
  {
    ServerOptions options;
    options.cache_dir = dir;
    Server server(options);
    Json reply = server.handle_request(
        request({{"op", "eval"}, {"source", kSource}, {"entry", "sq(5)"}}));
    ASSERT_TRUE(reply.get("ok").as_bool(false)) << reply.dump();
    EXPECT_EQ(reply.get("result").as_string(), "25");
  }
  // Exactly one published image; the .tmp sibling was renamed away, so a
  // crash mid-write could never have been observed as a torn .pvcm.
  std::size_t images = 0;
  std::size_t temporaries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      ++temporaries;
    } else if (entry.path().extension() == ".pvcm") {
      ++images;
    }
  }
  EXPECT_EQ(images, 1u);
  EXPECT_EQ(temporaries, 0u);

  // And a fresh process (a fresh Server) rehydrates it, reading the image
  // without publishing it again: the disk hit leaves the file (its inode)
  // as it found it.
  std::filesystem::path image;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".pvcm") image = entry.path();
  }
  struct stat before {};
  ASSERT_EQ(::stat(image.c_str(), &before), 0);
  ServerOptions options;
  options.cache_dir = dir;
  Server warm(options);
  Json reply = warm.handle_request(
      request({{"op", "eval"}, {"source", kSource}, {"entry", "sq(5)"}}));
  EXPECT_TRUE(reply.get("ok").as_bool(false)) << reply.dump();
  EXPECT_EQ(reply.get("result").as_string(), "25");
  EXPECT_TRUE(reply.get("cached").as_bool(false));
  struct stat after {};
  ASSERT_EQ(::stat(image.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace proteus::serve

#endif  // !defined(_WIN32)
