#include "serve_load.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <cerrno>
#include <cstring>
#include <algorithm>
#include <deque>

#include "core/rng.h"

namespace perfbench {

using wavemr::QueryOp;
using wavemr::QueryRequest;
using wavemr::Status;

ServerProcess::~ServerProcess() { Stop(); }

Status ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args) {
  int out[2];
  if (pipe(out) != 0) return Status::Internal("pipe failed");
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_ = fork();
  if (pid_ < 0) {
    close(out[0]);
    close(out[1]);
    return Status::Internal("fork failed");
  }
  if (pid_ == 0) {
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  // Read the child's stdout until it names its port (it prints one snapshot
  // line first). The build inside the child can take a while.
  std::string text;
  char buf[512];
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (port_ == 0 && Clock::now() < deadline) {
    pollfd p{out[0], POLLIN, 0};
    if (poll(&p, 1, 1000) <= 0) continue;
    const ssize_t got = read(out[0], buf, sizeof(buf));
    if (got <= 0) break;
    text.append(buf, static_cast<size_t>(got));
    const size_t at = text.find("listening on port ");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = std::atoi(text.c_str() + at + std::strlen("listening on port "));
    }
  }
  close(out[0]);
  if (port_ <= 0) {
    Stop();
    return Status::Internal("wavemr_serve did not report a port: " + text);
  }
  return Status::OK();
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return 0;
  kill(pid_, SIGTERM);
  int status = 0;
  rusage usage{};
  while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

namespace {

struct Pending {
  QueryRequest request;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  uint64_t id = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
};

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

QueryRequest NextQuery(wavemr::Rng& rng, uint64_t domain_size) {
  QueryRequest q;
  const uint64_t pick = rng.NextBounded(100);
  if (pick < 70) {
    q.op = QueryOp::kPoint;
    q.point_x = rng.NextBounded(domain_size);
  } else if (pick < 95) {
    q.op = QueryOp::kRange;
    q.range_lo = rng.NextBounded(domain_size);
    const uint64_t len = 1 + rng.NextBounded(std::max<uint64_t>(1, domain_size / 16));
    q.range_hi = std::min(domain_size, q.range_lo + len);
  } else {
    q.op = QueryOp::kTopK;
    q.topk_count = kTopKCount;
  }
  return q;
}

namespace {

void Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                           MSG_NOSIGNAL);
    if (n <= 0) break;  // EAGAIN: poll for POLLOUT; errors surface on read
    c.out_off += static_cast<size_t>(n);
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

}  // namespace

LoadResult RunOpenLoop(const LoadOptions& o, SpanRecorder& spans) {
  LoadResult r;
  ScopedSpan session(spans, "serve.load");
  prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us: the schedule is 100 us apart

  std::vector<Conn> conns(kQueryConnections + 1);  // the last one carries kRebuild
  for (Conn& c : conns) {
    c.fd = ConnectLoopback(o.port);
    if (c.fd < 0) ++r.connect_failures;
  }
  if (r.connect_failures > 0) {
    for (Conn& c : conns) {
      if (c.fd >= 0) close(c.fd);
    }
    r.first_error = "connect to port " + std::to_string(o.port) + " failed";
    return r;
  }
  Conn& rebuild_conn = conns.back();

  wavemr::Rng rng(wavemr::Mix64(o.seed ^ 0x5e7e5eedULL));
  const int64_t interval_ns = static_cast<int64_t>(1e9 / o.qps);
  constexpr int64_t kRebuildPeriodNs = 1000000000;
  const int64_t t0 = spans.NowNs() + 1000000;  // 1 ms lead
  const int64_t end = t0 + static_cast<int64_t>(o.seconds * 1e9);
  const int64_t drain_deadline = end + 60LL * 1000000000LL;
  uint64_t next_query = 0;
  uint64_t next_rebuild = 1;
  size_t outstanding = 0;

  auto fail = [&r](const std::string& why) {
    ++r.errors;
    if (r.first_error.empty()) r.first_error = why;
  };

  auto on_response = [&](Conn& c, const std::string& payload, int64_t now) {
    if (c.pending.empty()) {
      fail("response without a request");
      return;
    }
    Pending p = std::move(c.pending.front());
    c.pending.pop_front();
    --outstanding;
    if (p.request.op == QueryOp::kRebuild) {
      auto v = wavemr::DecodeRebuildResponse(payload);
      if (!v.ok()) return fail("rebuild: " + v.status().ToString());
      r.publish_ms.push_back(static_cast<double>(now - p.sent_ns) / 1e6);
      r.published_versions.push_back(*v);
      spans.Add("serve.rebuild", session.index(), p.sent_ns, now, p.id);
      return;
    }
    Answer a;
    a.request = p.request;
    if (p.request.op == QueryOp::kTopK) {
      auto t = wavemr::DecodeTopKResponse(payload);
      if (!t.ok()) return fail("topk: " + t.status().ToString());
      a.version = t->version;
      a.coefficients = std::move(t->coefficients);
    } else {
      auto e = wavemr::DecodeEstimateResponse(payload);
      if (!e.ok()) return fail("estimate: " + e.status().ToString());
      a.version = e->version;
      a.estimate = e->estimate;
    }
    r.answers.push_back(std::move(a));
    r.latency_ms.push_back(static_cast<double>(now - p.due_ns) / 1e6);
    spans.Add("serve.query", session.index(), p.due_ns, now, p.id);
  };

  auto enqueue = [&](Conn& c, const QueryRequest& q, int64_t due, int64_t now,
                     uint64_t id) {
    c.out += wavemr::WrapFrame(wavemr::EncodeRequest(q));
    c.pending.push_back(Pending{q, due, now, id});
    ++outstanding;
  };

  std::vector<pollfd> fds(conns.size());
  char buf[65536];
  for (;;) {
    int64_t now = spans.NowNs();
    while (t0 + static_cast<int64_t>(next_query) * interval_ns <= now) {
      const int64_t due = t0 + static_cast<int64_t>(next_query) * interval_ns;
      if (due >= end) break;
      enqueue(conns[next_query % kQueryConnections], NextQuery(rng, o.domain_size), due, now,
              next_query + 1);
      r.late_ms.push_back(static_cast<double>(now - due) / 1e6);
      ++r.queries_sent;
      ++next_query;
    }
    const int64_t rebuild_due = t0 + static_cast<int64_t>(next_rebuild) * kRebuildPeriodNs;
    if (rebuild_due <= now && rebuild_due < end) {
      QueryRequest q;
      q.op = QueryOp::kRebuild;
      enqueue(rebuild_conn, q, rebuild_due, now, next_rebuild);
      ++r.rebuilds_sent;
      ++next_rebuild;
    }
    for (Conn& c : conns) Flush(c);

    const int64_t next_due = t0 + static_cast<int64_t>(next_query) * interval_ns;
    const bool issuing = next_due < end;
    if (!issuing && outstanding == 0) break;
    if (now > drain_deadline) {
      fail(std::to_string(outstanding) + " requests unanswered at the deadline");
      break;
    }
    int64_t wait_ns = issuing ? next_due - now : 10000000;
    if (rebuild_due < end) wait_ns = std::min(wait_ns, rebuild_due - now);
    wait_ns = std::max<int64_t>(wait_ns, 0);

    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN | (conns[i].out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    now = spans.NowNs();
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        fail("connection " + std::to_string(i) + " closed by the server");
        outstanding -= c.pending.size();
        c.pending.clear();
        close(c.fd);
        c.fd = -1;
        continue;
      }
      if (!(fds[i].revents & POLLIN)) continue;
      for (;;) {
        const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
        if (got <= 0) break;
        c.in.append(buf, static_cast<size_t>(got));
      }
      size_t off = 0;
      while (c.in.size() - off >= 4) {
        uint32_t len = 0;
        std::memcpy(&len, c.in.data() + off, 4);  // little-endian hosts
        if (c.in.size() - off - 4 < len) break;
        on_response(c, c.in.substr(off + 4, len), now);
        off += 4 + len;
      }
      c.in.erase(0, off);
    }
    if (std::all_of(conns.begin(), conns.end(), [](const Conn& c) { return c.fd < 0; })) {
      break;
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) close(c.fd);
  }
  return r;
}

}  // namespace perfbench
