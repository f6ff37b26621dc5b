// The shared socket helpers survive signals: a send or recv interrupted
// by a handler installed without SA_RESTART fails with EINTR, and the
// helpers must retry it rather than take it for the end of the stream.
#include "common/net.hpp"

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace appclass::common {
namespace {

std::atomic<int> g_signals{0};

void count_signal(int) { g_signals.fetch_add(1, std::memory_order_relaxed); }

/// Installs count_signal for SIGUSR1 without SA_RESTART; restores the
/// previous action on scope exit.
class InterruptingHandler {
 public:
  InterruptingHandler() {
    struct sigaction action {};
    action.sa_handler = count_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: a blocked send returns EINTR
    EXPECT_EQ(::sigaction(SIGUSR1, &action, &previous_), 0);
  }
  ~InterruptingHandler() { ::sigaction(SIGUSR1, &previous_, nullptr); }

  InterruptingHandler(const InterruptingHandler&) = delete;
  InterruptingHandler& operator=(const InterruptingHandler&) = delete;

 private:
  struct sigaction previous_ {};
};

/// Signals `target` every 200 µs until `done`.
std::thread start_signaller(pthread_t target, const std::atomic<bool>& done) {
  return std::thread([target, &done] {
    while (!done.load()) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
}

TEST(CommonNet, SendAllDeliversEveryByteUnderRepeatedSignals) {
  InterruptingHandler handler;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int sndbuf = 0;
  socklen_t len = sizeof sndbuf;
  ASSERT_EQ(::getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);

  // Many send buffers' worth, so the sender blocks on a full buffer
  // again and again while the slow reader drains it.
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(sndbuf) * 8);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);

  std::vector<std::uint8_t> received;
  std::thread reader([&] {
    std::uint8_t buffer[4096];
    ssize_t n = 0;
    while ((n = recv_some(fds[1], buffer, sizeof buffer)) > 0) {
      received.insert(received.end(), buffer, buffer + n);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::atomic<bool> done{false};
  const int signals_before = g_signals.load();
  std::thread signaller = start_signaller(::pthread_self(), done);
  const int error = send_all(fds[0], payload.data(), payload.size());
  done.store(true);
  signaller.join();
  ::shutdown(fds[0], SHUT_WR);
  reader.join();
  ::close(fds[0]);
  ::close(fds[1]);

  EXPECT_EQ(error, 0);
  EXPECT_GT(g_signals.load(), signals_before);
  EXPECT_EQ(received, payload);
}

TEST(CommonNet, RecvExactFillsTheBufferUnderRepeatedSignals) {
  InterruptingHandler handler;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<std::uint8_t> payload(64 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 3);

  // A slow writer: the receiver waits, empty-handed, between pieces.
  std::thread writer([&] {
    for (std::size_t at = 0; at < payload.size(); at += 1024) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      EXPECT_EQ(send_all(fds[1], payload.data() + at, 1024), 0);
    }
  });

  std::atomic<bool> done{false};
  const int signals_before = g_signals.load();
  std::thread signaller = start_signaller(::pthread_self(), done);
  std::vector<std::uint8_t> received(payload.size());
  const int error = recv_exact(fds[0], received.data(), received.size());
  done.store(true);
  signaller.join();
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);

  EXPECT_EQ(error, 0);
  EXPECT_GT(g_signals.load(), signals_before);
  EXPECT_EQ(received, payload);
}

TEST(CommonNet, RecvExactReportsAPeerThatClosesEarly) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(send_all(fds[1], "abc", 3), 0);
  ::close(fds[1]);
  char buffer[8];
  EXPECT_EQ(recv_exact(fds[0], buffer, sizeof buffer), ECONNRESET);
  ::close(fds[0]);
}

}  // namespace
}  // namespace appclass::common
