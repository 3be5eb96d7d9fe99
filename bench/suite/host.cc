#include "bench/suite/host.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

namespace bftlab {
namespace suite {

double Now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

ChildRun RunInChild(const std::function<void(std::string*)>& body) {
  ChildRun run;
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return run;
  }
  // Buffered output would otherwise be flushed twice, once per process.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return run;
  }
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    body(&out);
    size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(3);
      done += static_cast<size_t>(n);
    }
    close(fds[1]);
    std::fflush(stderr);
    _exit(0);
  }
  close(fds[1]);
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    run.output.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage = {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  run.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

}  // namespace suite
}  // namespace bftlab
