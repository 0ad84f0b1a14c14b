#include "api/claim.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "common/env.hpp"

namespace dfsim {

namespace fs = std::filesystem;

std::string unique_temp_path(const std::string& path) {
  // A shared temp name (`path + ".tmp"`) would let two writers of the
  // same path — e.g. two claimers finishing the same stolen point —
  // interleave into one temp file and rename a corrupt ledger entry.
  // The pid + counter suffix makes every writer's temp its own.
  static std::atomic<unsigned long> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

void write_file_atomic(const std::string& path, const std::string& body) {
  const std::string tmp = unique_temp_path(path);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os << body;
    if (!os) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw std::runtime_error("failed to write " + path);
    }
  }
  fs::rename(tmp, path);
}

void cleanup_stale_temps(const std::string& dir, double ttl_s) {
  std::error_code ec;
  const std::time_t now = std::time(nullptr);
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.find(".tmp.") == std::string::npos) continue;
    struct stat st;
    if (::stat(it->path().c_str(), &st) != 0) continue;
    if (std::difftime(now, st.st_mtime) <= ttl_s) continue;
    std::error_code rm_ec;
    fs::remove(it->path(), rm_ec);
  }
}

double env_claim_ttl() {
  const double ttl = env_number("DF_CLAIM_TTL", 60.0);
  if (!(ttl > 0.0)) {  // negated so NaN fails too
    std::fprintf(stderr,
                 "dfsim: ignoring DF_CLAIM_TTL=%g (lease TTL must be "
                 "positive; using 60)\n",
                 ttl);
    return 60.0;
  }
  return ttl;
}

PointClaimer::PointClaimer(std::string run_dir, double ttl_s)
    : run_dir_(std::move(run_dir)),
      ttl_s_(ttl_s > 0.0 ? ttl_s : env_claim_ttl()) {}

PointClaimer::~PointClaimer() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [index, fd] : held_) {
    ::unlink(lease_path(index).c_str());
    ::close(fd);  // drops the flock
  }
}

std::string PointClaimer::lease_path(std::size_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "claim_%04zu", index);
  return run_dir_ + "/" + buf;
}

std::string PointClaimer::lease_record() {
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  return std::string(host) + ":" + std::to_string(::getpid()) + ":" +
         std::to_string(static_cast<long long>(std::time(nullptr))) + "\n";
}

namespace {

// Overwrite the lease through an already-open descriptor. The write
// also refreshes the file's mtime — the staleness clock.
void stamp(int fd) {
  const std::string record = PointClaimer::lease_record();
  if (::ftruncate(fd, 0) != 0) return;
  std::size_t off = 0;
  while (off < record.size()) {
    const ssize_t w = ::pwrite(fd, record.data() + off,
                               record.size() - off,
                               static_cast<off_t>(off));
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

PointClaimer::Claim PointClaimer::try_claim(std::size_t index) {
  const std::string path = lease_path(index);

  // Fast path: O_CREAT|O_EXCL is the POSIX-atomic "exactly one winner"
  // primitive — a fresh lease is created by exactly one claimer.
  int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0644);
  if (fd >= 0) {
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0 && errno == EWOULDBLOCK) {
      // Pathological interleaving: someone opened and locked our file
      // between the create and the flock. Treat as contended.
      ::close(fd);
      return Claim::kBusy;
    }
    stamp(fd);
    std::lock_guard<std::mutex> lock(mu_);
    held_[index] = fd;
    return Claim::kClaimed;
  }
  if (errno != EEXIST) return Claim::kBusy;

  // The lease exists. It is stealable only when it is (a) older than
  // the TTL and (b) not flock-held by a live process. On filesystems
  // where flock is a no-op the TTL alone arbitrates (the documented
  // fallback); on everything else the held lock makes a live claimer
  // unstealable no matter how slow it is.
  fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return Claim::kBusy;  // holder just released it; rescan
  struct stat st;
  if (::fstat(fd, &st) != 0 ||
      std::difftime(std::time(nullptr), st.st_mtime) <= ttl_s_) {
    ::close(fd);
    return Claim::kBusy;
  }
  const int rc = ::flock(fd, LOCK_EX | LOCK_NB);
  if (rc != 0 && (errno == EWOULDBLOCK || errno == EINTR)) {
    ::close(fd);  // expired mtime but a live holder: a laggard, not a corpse
    return Claim::kBusy;
  }
  // Steal in place through the held descriptor: we own the flock now,
  // so no other stealer can pass the check above until we release.
  stamp(fd);
  std::lock_guard<std::mutex> lock(mu_);
  held_[index] = fd;
  return Claim::kStolen;
}

void PointClaimer::heartbeat(std::size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = held_.find(index);
  if (it != held_.end()) stamp(it->second);
}

void PointClaimer::release(std::size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = held_.find(index);
  if (it == held_.end()) return;
  ::unlink(lease_path(index).c_str());
  ::close(it->second);
  held_.erase(it);
}

}  // namespace dfsim
