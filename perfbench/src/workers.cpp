#include "workers.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "engine/protocol.h"
#include "util/socket.h"

extern char** environ;

namespace perfbench {

namespace {

namespace serve = clear::serve;
using clear::util::Socket;

// Signal-safe registry of live children: a handler may only read plain
// lock-free atomics and fixed buffers.
constexpr std::size_t kMaxChildren = 8;
std::atomic<pid_t> g_pids[kMaxChildren];
char g_sockets[kMaxChildren][32];

constexpr int kHandshakeMs = 10'000;
constexpr int kProbeMs = 5'000;
constexpr int kStopGraceMs = 5'000;

// Reads frames until one of type `want` arrives; false on timeout, EOF or
// a malformed stream.
bool read_frame(Socket& sock, serve::FrameType want, int timeout_ms,
                serve::Frame* out) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string rx;
  while (std::chrono::steady_clock::now() < deadline) {
    for (;;) {
      serve::Frame frame;
      const serve::FrameStatus st = serve::decode_frame(&rx, &frame);
      if (st == serve::FrameStatus::kBad) return false;
      if (st == serve::FrameStatus::kNeedMore) break;
      if (frame.type == want) {
        *out = std::move(frame);
        return true;
      }
    }
    if (!sock.readable(50)) continue;
    char buf[65536];
    const long n = sock.recv_some(buf, sizeof(buf));
    if (n <= 0) return false;
    rx.append(buf, static_cast<std::size_t>(n));
  }
  return false;
}

// Connects to a worker and checks its hello; the socket stays open for
// the caller.
Socket handshake(const std::string& socket_path) {
  Socket sock = Socket::connect_unix(socket_path, kHandshakeMs);
  serve::Frame frame;
  serve::Hello hello;
  if (!read_frame(sock, serve::FrameType::kHello, kHandshakeMs, &frame) ||
      !serve::decode_hello(frame.payload, &hello) ||
      hello.proto_version != serve::kProtoVersion) {
    throw std::runtime_error("worker on " + socket_path +
                             " sent no valid hello");
  }
  return sock;
}

std::size_t claim_slot(pid_t pid, const std::string& socket) {
  for (std::size_t i = 0; i < kMaxChildren; ++i) {
    pid_t expected = 0;
    if (g_pids[i].compare_exchange_strong(expected, pid)) {
      std::snprintf(g_sockets[i], sizeof(g_sockets[i]), "%s", socket.c_str());
      return i;
    }
  }
  return kMaxChildren;
}

void release_slot(pid_t pid) {
  for (auto& slot : g_pids) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

}  // namespace

void kill_all_from_signal() noexcept {
  for (std::size_t i = 0; i < kMaxChildren; ++i) {
    const pid_t pid = g_pids[i].exchange(0);
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    ::unlink(g_sockets[i]);
  }
}

WorkerPool::WorkerPool(std::string clear_bin, unsigned threads)
    : clear_bin_(std::move(clear_bin)), threads_(threads) {}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::start(std::size_t n) {
  static_assert(std::atomic<pid_t>::is_always_lock_free);
  // Everything the child needs is built before fork(): between fork and
  // exec a multithreaded parent's child may only make async-signal-safe
  // calls.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLEAR_THREADS=", 14) == 0 ||
        std::strncmp(*e, "CLEAR_CACHE_DIR=", 16) == 0) {
      continue;
    }
    env_strings.emplace_back(*e);
  }
  env_strings.push_back("CLEAR_THREADS=" + std::to_string(threads_));
  env_strings.push_back("CLEAR_CACHE_DIR=");  // caching disabled
  std::vector<char*> envp;
  for (auto& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  if (devnull < 0) throw std::runtime_error("cannot open /dev/null");

  const std::size_t first = children_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string name = "w" + std::to_string(first + i);
    const std::string socket = name + ".sock";
    std::vector<std::string> args = {clear_bin_,   "serve",   "--socket",
                                     socket,       "--name",  name,
                                     "--quiet",    "--heartbeat-ms", "100"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::unlink(socket.c_str());
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(devnull);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      // A worker must never outlive the benchmark, even when the driver
      // is SIGKILLed and its own cleanup cannot run.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() == 1) ::_exit(127);
      ::dup2(devnull, STDOUT_FILENO);  // stdout carries the result line
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    children_.push_back({pid, socket});
    if (claim_slot(pid, socket) == kMaxChildren) {
      ::close(devnull);
      throw std::runtime_error("too many workers");
    }
  }
  ::close(devnull);
  for (std::size_t i = first; i < children_.size(); ++i) {
    handshake(children_[i].socket);
  }
}

std::vector<clear::fleet::Endpoint> WorkerPool::endpoints() const {
  std::vector<clear::fleet::Endpoint> out;
  for (const Child& c : children_) {
    clear::fleet::Endpoint ep;
    ep.socket_path = c.socket;
    out.push_back(ep);
  }
  return out;
}

clear::obs::Snapshot WorkerPool::probe_metrics() const {
  clear::obs::Snapshot total;
  for (const Child& c : children_) {
    Socket sock = handshake(c.socket);
    serve::Frame frame;
    std::uint32_t inflight = 0;
    std::string blob;
    clear::obs::Snapshot snap;
    if (!read_frame(sock, serve::FrameType::kHeartbeat, kProbeMs, &frame) ||
        !serve::decode_heartbeat(frame.payload, &inflight, &blob) ||
        blob.empty() || !clear::obs::decode_snapshot(blob, &snap)) {
      throw std::runtime_error("worker on " + c.socket +
                               " sent no metric heartbeat");
    }
    clear::obs::merge(&total, snap);
  }
  return total;
}

bool WorkerPool::all_alive() const {
  for (const Child& c : children_) {
    int status = 0;
    if (::waitpid(c.pid, &status, WNOHANG) != 0) return false;
  }
  return true;
}

bool WorkerPool::stop() {
  bool clean = true;
  for (const Child& c : children_) {
    int status = 0;
    if (::waitpid(c.pid, &status, WNOHANG) != 0) clean = false;
    ::kill(c.pid, SIGTERM);
  }
  for (const Child& c : children_) {
    int status = 0;
    struct rusage ru {};
    pid_t got = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kStopGraceMs);
    while ((got = ::wait4(c.pid, &status, WNOHANG, &ru)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (got == 0) {
      ::kill(c.pid, SIGKILL);
      got = ::wait4(c.pid, &status, 0, &ru);
      clean = false;
    }
    if (got == c.pid) {
      peak_mb_ = std::max(peak_mb_, static_cast<double>(ru.ru_maxrss) / 1024.0);
    }
    release_slot(c.pid);
    ::unlink(c.socket.c_str());
  }
  children_.clear();
  return clean;
}

}  // namespace perfbench
