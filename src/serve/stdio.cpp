#include "serve/stdio.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/flag_number.hpp"

namespace nck::serve {
namespace {

/// 0 → running; 1 → first SIGTERM seen (graceful drain). The handler
/// force-exits the process itself on the second signal, so the flag never
/// reaches 2 in normal code.
volatile std::sig_atomic_t g_sigterm = 0;

extern "C" void on_sigterm(int) {
  if (g_sigterm) std::_Exit(1);  // second signal: force exit
  g_sigterm = 1;
}

void install_sigterm() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigterm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: blocked read() must EINTR
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: nck_serve [--workers=N] [--queue-depth=N] [--seed=N]\n"
      "                 [--cache-bytes=N] [--default-deadline-ms=X]\n"
      "                 [--stuck-after-ms=X] [--reads=N] [--shots=N]\n"
      "                 [--test-stall-ms=X]\n"
      "\n"
      "Reads one JSON request per line from stdin, writes one JSON\n"
      "response per line to stdout. Ops: solve, lint, certify, simplify,\n"
      "stats, shutdown. SIGTERM drains gracefully; a second SIGTERM\n"
      "forces exit.\n");
  return 2;
}

/// Reads stdin into newline-delimited lines with a hard per-line cap:
/// once a line passes kMaxRequestBytes it flips into discard mode — the
/// excess is dropped as it streams in (never buffered) and the line is
/// rejected as oversized when its newline finally arrives.
class LineReader {
 public:
  enum class Read { kLine, kOversized, kEof, kInterrupted };

  /// Blocks until one outcome is available. kLine fills `line` (without
  /// the newline); kOversized reports the discarded byte count in
  /// `oversized_bytes`; kInterrupted means a signal arrived (check
  /// g_sigterm) with no complete line consumed.
  Read next(std::string& line, std::size_t& oversized_bytes) {
    for (;;) {
      // Drain complete lines already buffered before reading more.
      const std::size_t nl = buffer_.find('\n', scan_);
      if (nl != std::string::npos) {
        if (discarding_) {
          oversized_bytes = discarded_ + nl;
          buffer_.erase(0, nl + 1);
          scan_ = 0;
          discarding_ = false;
          discarded_ = 0;
          return Read::kOversized;
        }
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scan_ = 0;
        return Read::kLine;
      }
      scan_ = buffer_.size();
      if (!discarding_ && buffer_.size() > kMaxRequestBytes) {
        discarding_ = true;
        discarded_ = buffer_.size();
        buffer_.clear();
        scan_ = 0;
      }
      char chunk[65536];
      const ssize_t n = ::read(0, chunk, sizeof(chunk));
      if (n > 0) {
        if (discarding_) {
          // Only look for the terminating newline; drop the payload.
          const void* found = std::memchr(chunk, '\n', static_cast<std::size_t>(n));
          if (!found) {
            discarded_ += static_cast<std::size_t>(n);
            continue;
          }
          const std::size_t at = static_cast<std::size_t>(
              static_cast<const char*>(found) - chunk);
          discarded_ += at;
          buffer_.append(chunk + at, static_cast<std::size_t>(n) - at);
          continue;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        if (!buffer_.empty() && !discarding_) {
          // Final unterminated line.
          line = std::move(buffer_);
          buffer_.clear();
          scan_ = 0;
          return Read::kLine;
        }
        return Read::kEof;
      }
      if (errno == EINTR) return Read::kInterrupted;
      return Read::kEof;  // unrecoverable read error: treat as EOF
    }
  }

 private:
  std::string buffer_;
  std::size_t scan_ = 0;     // resume offset for the newline search
  bool discarding_ = false;
  std::size_t discarded_ = 0;
};

void write_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

int run_serve_cli(int argc, char** argv, int first_arg) {
  ServerOptions options;
  double test_stall_ms = 0.0;
  for (int i = first_arg; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::size_t prefix) {
      return std::string_view(arg).substr(prefix);
    };
    bool ok = true;
    if (arg.rfind("--workers=", 0) == 0) {
      ok = parse_count(value(10), &options.num_workers);
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      ok = parse_count(value(14), &options.queue_depth) &&
           options.queue_depth > 0;
    } else if (arg.rfind("--seed=", 0) == 0) {
      ok = parse_count(value(7), &options.seed);
    } else if (arg.rfind("--cache-bytes=", 0) == 0) {
      ok = parse_count(value(14), &options.cache_bytes);
    } else if (arg.rfind("--default-deadline-ms=", 0) == 0) {
      ok = parse_finite(value(22), &options.default_deadline_ms) &&
           options.default_deadline_ms > 0;
    } else if (arg.rfind("--stuck-after-ms=", 0) == 0) {
      ok = parse_finite(value(17), &options.stuck_after_ms) &&
           options.stuck_after_ms > 0;
    } else if (arg.rfind("--reads=", 0) == 0) {
      // The wire protocol's caps: a request cannot ask for more.
      ok = parse_count(value(8), &options.annealer.sampler.num_reads) &&
           options.annealer.sampler.num_reads <= kMaxReads;
    } else if (arg.rfind("--shots=", 0) == 0) {
      ok = parse_count(value(8), &options.circuit.shots) &&
           options.circuit.shots <= kMaxShots;
    } else if (arg.rfind("--test-stall-ms=", 0) == 0) {
      ok = parse_finite(value(16), &test_stall_ms) && test_stall_ms >= 0;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "nck_serve: bad flag '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (test_stall_ms > 0) {
    const double stall = test_stall_ms;
    options.test_stall = [stall](const Request&) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall));
    };
  }

  install_sigterm();
  // Workers must never receive SIGTERM (the EINTR wakeup only works if the
  // signal interrupts *this* thread's blocking read): block it around the
  // Server construction so every spawned thread inherits the blocked mask,
  // then unblock it here only.
  sigset_t term_set;
  sigemptyset(&term_set);
  sigaddset(&term_set, SIGTERM);
  sigaddset(&term_set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &term_set, nullptr);
  Server server(std::move(options), write_line);
  pthread_sigmask(SIG_UNBLOCK, &term_set, nullptr);
  std::fprintf(stderr, "nck_serve: ready (workers=%zu queue=%zu)\n",
               server.stats().workers, server.stats().queue_capacity);
  std::fflush(stderr);

  LineReader reader;
  std::string line;
  std::size_t oversized = 0;
  bool running = true;
  // A signal landing between the loop check and the read() blocks until
  // the next input byte — the second-SIGTERM force exit is the escape
  // hatch for that (tiny) window as well as for stuck drains.
  while (running && !g_sigterm) {
    switch (reader.next(line, oversized)) {
      case LineReader::Read::kLine:
        if (server.submit_line(line) == Server::Submit::kShutdown) {
          running = false;
        }
        break;
      case LineReader::Read::kOversized:
        server.reject_oversized(oversized);
        break;
      case LineReader::Read::kEof:
        running = false;
        break;
      case LineReader::Read::kInterrupted:
        break;  // loop condition re-checks g_sigterm
    }
  }

  server.drain();
  std::fprintf(stderr, "nck_serve: drained; final stats: %s\n",
               server.stats_json().c_str());
  std::fflush(stderr);
  return 0;
}

}  // namespace nck::serve
