// bnb.schedstore.v3 codec + the ScheduleCache persistence entry points
// (save/load/warm_start and the warm-store promotion).  See
// schedule_store.hpp for the format contract.
#include "core/schedule_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "common/crc32.hpp"
#include "common/expect.hpp"
#include "core/small_schedule.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define BNB_STORE_HAS_MMAP 1
#else
#define BNB_STORE_HAS_MMAP 0
#endif

namespace bnb {
namespace {

constexpr char kMagic[8] = {'B', 'N', 'B', 'S', 'C', 'H', 'D', '1'};
/// v3 stores a general record as its bare line map; v2 records also
/// carried switch controls and v1 keys came from the old serial digest.
/// Both are refused (stores are rebuildable caches).
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kEndianProbe = 0x01020304U;
/// Format-level promise: stored schedules replay bit-identically on every
/// kernel tier.  Bumped only if a future format ever stores tier-specific
/// artifacts — a reader refuses a tag it does not understand.
constexpr std::uint32_t kKernelInvariant = 1;

struct StoreHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint32_t kernel_invariance;
  std::uint32_t record_count;
  std::uint32_t reserved;
  std::uint32_t header_crc;  ///< crc32 of the 28 bytes before this field
};
static_assert(sizeof(StoreHeader) == 32, "header layout is part of the format");

struct RecordHeader {
  std::uint64_t digest_lo;
  std::uint64_t digest_hi;
  std::uint32_t kind;  ///< WarmStore::kGeneralRecord | kSmallRecord
  std::uint32_t m;
  std::uint32_t payload_bytes;  ///< multiple of 8
  std::uint32_t payload_crc;    ///< crc32 of the payload bytes
};
static_assert(sizeof(RecordHeader) == 32, "record layout is part of the format");

void append_bytes(std::vector<unsigned char>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  out.insert(out.end(), b, b + n);
}

bool digest_less(const WarmStore::Record& a, const PermutationDigest& d) noexcept {
  return a.digest.hi != d.hi ? a.digest.hi < d.hi : a.digest.lo < d.lo;
}

/// A clean schedule's input->line map IS its permutation (Thm. 2), so a
/// record is trusted only when its line map digests to its key: this
/// covers the record header's digest, which no CRC does.
bool keyed_by_its_lines(const WarmStore::Record& r,
                        std::span<const std::uint32_t> lines) {
  return digest_image(lines) == r.digest;
}

/// Copy general record `r`'s line map into `lines`.  Returns false when
/// the payload is not exactly 2^m in-range lines that digest to the
/// record's key (the caller treats that as corruption).
bool decode_general(const WarmStore::Record& r, std::vector<std::uint32_t>& lines) {
  if (r.m < 1 || r.m >= 26) return false;
  const std::size_t n = std::size_t{1} << r.m;
  if (r.payload_bytes != n * sizeof(std::uint32_t)) return false;
  lines.resize(n);
  std::memcpy(lines.data(), r.payload, r.payload_bytes);
  for (const std::uint32_t line : lines) {
    if (line >= n) return false;  // out-of-range line: corrupt
  }
  return keyed_by_its_lines(r, lines);
}

/// A small record's payload: the line map plus the Beneš steps
/// CompiledBnb::flatten_small builds from it (SmallReplay).  Fixed-size
/// plain data, written and CRC'd as raw bytes; explicit padding keeps every
/// byte defined.  The apply8 kernel binding is process-local and never
/// stored.
struct SmallWire {
  std::uint32_t m = 0;
  std::uint16_t depth = 0;
  std::uint16_t reserved = 0;
  std::uint64_t masks[SmallReplay::kMaxDepth] = {};
  std::uint8_t deltas[SmallReplay::kMaxDepth] = {};
  std::uint8_t line_of[SmallSchedule::kMaxLines] = {};
  std::uint8_t pad[5] = {};
};
static_assert(SmallReplay::kMaxDepth == 11 && sizeof(SmallWire) == 176,
              "SmallWire layout is part of bnb.schedstore.v3");

/// The one encoding of a small schedule: its line map and its flatten.
/// save() runs this on its cold path; serving never flattens.
SmallWire encode_small(const SmallSchedule& small) {
  const SmallReplay replay = SmallReplay::flatten(small, nullptr);
  SmallWire w;
  w.m = small.m();
  w.depth = static_cast<std::uint16_t>(replay.depth());
  for (std::size_t s = 0; s < SmallReplay::kMaxDepth; ++s) {
    w.masks[s] = replay.step_mask(s);
    w.deltas[s] = static_cast<std::uint8_t>(replay.step_delta(s));
  }
  for (std::size_t j = 0; j < small.lines(); ++j) {
    w.line_of[j] = static_cast<std::uint8_t>(small.line_of_input(j));
  }
  return w;
}

/// Parse a small record payload into its line map.  Returns an unsolved
/// schedule on corruption: the wrong size or m, a line map that does not
/// digest to the record's key, or any other byte that differs from the
/// encoding of that map — in particular steps that are not its flatten,
/// whether or not they would still replay it.
SmallSchedule decode_small(const WarmStore::Record& r) {
  if (r.payload_bytes != sizeof(SmallWire)) return SmallSchedule{};
  SmallWire wire;
  std::memcpy(&wire, r.payload, sizeof(wire));
  if (wire.m != r.m || wire.m < 1 || wire.m > SmallSchedule::kMaxM) return SmallSchedule{};
  const std::size_t n = std::size_t{1} << wire.m;
  std::uint32_t lines[SmallSchedule::kMaxLines];
  for (std::size_t j = 0; j < n; ++j) lines[j] = wire.line_of[j];
  const std::span<const std::uint32_t> map(lines, n);
  const SmallSchedule small = SmallSchedule::from_lines(map);
  if (!small.solved() || !keyed_by_its_lines(r, map)) return SmallSchedule{};
  const SmallWire canonical = encode_small(small);
  if (std::memcmp(&canonical, &wire, sizeof(wire)) != 0) return SmallSchedule{};
  return small;
}

#if BNB_STORE_HAS_MMAP
bool write_all(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (bytes > 0) {
    const ::ssize_t w = ::write(fd, p, bytes);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    bytes -= static_cast<std::size_t>(w);
  }
  return true;
}
#endif

/// Crash-safe publish: write the whole store to `<path>.tmp.<pid>` in the
/// same directory, flush it to disk, then rename it over `path`.  Until
/// the rename, `path` still holds the previous store, intact; a failure at
/// any step removes the temp file and throws.
void write_store_file(const std::string& path, const StoreHeader& h,
                      const std::vector<unsigned char>& body) {
#if BNB_STORE_HAS_MMAP
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw schedule_store_error("schedule store: cannot create '" + tmp + "' to save '" +
                               path + "'");
  }
  const bool ok = write_all(fd, &h, sizeof(h)) && write_all(fd, body.data(), body.size()) &&
                  ::fsync(fd) == 0;
  if (::close(fd) != 0 || !ok) {
    ::unlink(tmp.c_str());
    throw schedule_store_error("schedule store: write failed for '" + path + "'");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw schedule_store_error("schedule store: cannot replace '" + path + "'");
  }
  // Make the rename itself durable.  The new store is already complete on
  // disk, so a directory that cannot be synced is not an error.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
#else
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw schedule_store_error("schedule store: cannot create '" + tmp + "' to save '" +
                               path + "'");
  }
  const bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1 &&
                  (body.empty() || std::fwrite(body.data(), body.size(), 1, f) == 1) &&
                  std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    throw schedule_store_error("schedule store: write failed for '" + path + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw schedule_store_error("schedule store: cannot replace '" + path + "'");
  }
#endif
}

}  // namespace

// -- WarmStore ---------------------------------------------------------------

WarmStore::WarmStore(const std::string& path) {
#if BNB_STORE_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw schedule_store_error("schedule store: cannot open '" + path + "'");
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw schedule_store_error("schedule store: cannot stat '" + path + "'");
  }
  bytes_ = static_cast<std::size_t>(st.st_size);
  if (bytes_ > 0) {
    void* map = ::mmap(nullptr, bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      throw schedule_store_error("schedule store: mmap failed for '" + path + "'");
    }
    data_ = static_cast<const unsigned char*>(map);
    mapped_ = true;
  }
  ::close(fd);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw schedule_store_error("schedule store: cannot open '" + path + "'");
  }
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  fallback_.resize(sz > 0 ? static_cast<std::size_t>(sz) : 0);
  if (!fallback_.empty() && std::fread(fallback_.data(), 1, fallback_.size(), f) !=
                                fallback_.size()) {
    std::fclose(f);
    throw schedule_store_error("schedule store: short read on '" + path + "'");
  }
  std::fclose(f);
  data_ = fallback_.data();
  bytes_ = fallback_.size();
#endif

  // Header + record-bounds validation (the eager half; payload CRCs are
  // deferred to verify()).
  if (bytes_ < sizeof(StoreHeader)) {
    throw schedule_store_error("schedule store: '" + path + "' is truncated");
  }
  StoreHeader h;
  std::memcpy(&h, data_, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    throw schedule_store_error("schedule store: '" + path +
                               "' is not a bnb.schedstore file (bad magic)");
  }
  if (h.version != kVersion) {
    throw schedule_store_error(
        "schedule store: '" + path + "' has unsupported version " +
        std::to_string(h.version) + " (bnb.schedstore.v" + std::to_string(h.version) +
        "; this build reads only bnb.schedstore.v" + std::to_string(kVersion) +
        "; the store is a rebuildable cache: delete it and save again)");
  }
  if (h.endian != kEndianProbe) {
    throw schedule_store_error("schedule store: '" + path +
                               "' was written with a different byte order");
  }
  if (h.kernel_invariance != kKernelInvariant) {
    throw schedule_store_error("schedule store: '" + path +
                               "' carries an unknown kernel-invariance tag");
  }
  if (crc32(data_, sizeof(StoreHeader) - sizeof(std::uint32_t)) != h.header_crc) {
    throw schedule_store_error("schedule store: '" + path + "' header CRC mismatch");
  }
  std::size_t off = sizeof(StoreHeader);
  if (h.record_count > (bytes_ - off) / sizeof(RecordHeader)) {
    throw schedule_store_error("schedule store: '" + path +
                               "' claims more records than the file can hold");
  }
  index_.reserve(h.record_count);
  for (std::uint32_t i = 0; i < h.record_count; ++i) {
    if (off + sizeof(RecordHeader) > bytes_) {
      throw schedule_store_error("schedule store: '" + path +
                                 "' record table runs past end of file");
    }
    RecordHeader rh;
    std::memcpy(&rh, data_ + off, sizeof(rh));
    off += sizeof(RecordHeader);
    if (rh.payload_bytes % 8 != 0 || off + rh.payload_bytes > bytes_) {
      throw schedule_store_error("schedule store: '" + path +
                                 "' record payload runs past end of file");
    }
    Record r;
    r.digest = PermutationDigest{rh.digest_lo, rh.digest_hi};
    r.kind = rh.kind;
    r.m = rh.m;
    r.payload_bytes = rh.payload_bytes;
    r.payload_crc = rh.payload_crc;
    r.payload = data_ + off;
    index_.push_back(r);
    off += rh.payload_bytes;
  }
  if (off != bytes_) {
    throw schedule_store_error("schedule store: '" + path + "' has " +
                               std::to_string(bytes_ - off) +
                               " bytes after its last record");
  }
  std::sort(index_.begin(), index_.end(), [](const Record& a, const Record& b) {
    return a.digest.hi != b.digest.hi ? a.digest.hi < b.digest.hi
                                      : a.digest.lo < b.digest.lo;
  });
}

WarmStore::~WarmStore() {
#if BNB_STORE_HAS_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), bytes_);
  }
#endif
}

const WarmStore::Record* WarmStore::lookup(const PermutationDigest& digest) const noexcept {
  const auto it = std::lower_bound(index_.begin(), index_.end(), digest, digest_less);
  if (it == index_.end() || !(it->digest == digest)) return nullptr;
  return &*it;
}

bool WarmStore::verify(const Record& record) const noexcept {
  return crc32(record.payload, record.payload_bytes) == record.payload_crc;
}

// -- ScheduleCache persistence ----------------------------------------------

std::size_t ScheduleCache::save(const std::string& path) {
  std::vector<unsigned char> body;
  std::uint32_t count = 0;
  {
    // The writer lock freezes the frames (readers never mutate payloads);
    // relaxed loads below are exact.
    std::scoped_lock lock(mu_);
    for (std::size_t id = 0; id < capacity_; ++id) {
      const Frame& f = frames_[id];
      const std::uint32_t lane = f.lane.load(std::memory_order_relaxed);
      if (lane == kEmpty) continue;
      RecordHeader rh = {};
      rh.digest_lo = f.digest_lo.load(std::memory_order_relaxed);
      rh.digest_hi = f.digest_hi.load(std::memory_order_relaxed);
      std::vector<unsigned char> payload;
      if (lane == kLaneGeneral) {
        const std::uint32_t m = f.g_m.load(std::memory_order_relaxed);
        const std::atomic<std::uint64_t>* packed = f.gbuf.load(std::memory_order_relaxed) + 1;
        payload.reserve(std::size_t{4} << m);
        for (std::size_t w = 0; w < (std::size_t{1} << m) / 2; ++w) {
          const std::uint64_t word = packed[w].load(std::memory_order_relaxed);
          const std::uint32_t pair[2] = {static_cast<std::uint32_t>(word),
                                         static_cast<std::uint32_t>(word >> 32)};
          append_bytes(payload, pair, sizeof(pair));
        }
        rh.kind = WarmStore::kGeneralRecord;
        rh.m = m;
      } else {
        // Reassemble the staged line map, then flatten it into wire form.
        std::uint64_t words[kSmallWords];
        for (std::size_t w = 0; w < kSmallWords; ++w) {
          words[w] = f.small[w].load(std::memory_order_relaxed);
        }
        SmallSchedule small;
        std::memcpy(&small, words, sizeof(small));
        const SmallWire wire = encode_small(small);
        append_bytes(payload, &wire, sizeof(wire));
        rh.kind = WarmStore::kSmallRecord;
        rh.m = small.m();
      }
      while (payload.size() % 8 != 0) payload.push_back(0);
      rh.payload_bytes = static_cast<std::uint32_t>(payload.size());
      rh.payload_crc = crc32(payload.data(), payload.size());
      append_bytes(body, &rh, sizeof(rh));
      append_bytes(body, payload.data(), payload.size());
      ++count;
    }
  }

  StoreHeader h = {};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.endian = kEndianProbe;
  h.kernel_invariance = kKernelInvariant;
  h.record_count = count;
  h.header_crc = crc32(&h, sizeof(StoreHeader) - sizeof(std::uint32_t));

  write_store_file(path, h, body);
  store_saved_.inc(count);
  return count;
}

std::size_t ScheduleCache::load(const std::string& path) {
  // Validate EVERYTHING through the WarmStore attach (header, bounds) plus
  // an eager CRC + decode pass, before the first table mutation: a corrupt
  // store throws with the cache untouched.
  WarmStore store(path);
  struct Decoded {
    PermutationDigest digest;
    std::uint32_t m = 0;
    std::vector<std::uint32_t> lines;  ///< general records; empty for small ones
    SmallSchedule small;               ///< small records
  };
  std::vector<Decoded> records;
  records.reserve(store.records());
  for (std::size_t i = 0; i < store.records(); ++i) {
    const WarmStore::Record& r = store.record(i);
    if (!store.verify(r)) {
      throw schedule_store_error("schedule store: '" + path + "' record " +
                                 std::to_string(i) + " CRC mismatch");
    }
    Decoded d;
    d.digest = r.digest;
    d.m = r.m;
    if (r.kind == WarmStore::kGeneralRecord) {
      if (!decode_general(r, d.lines)) {
        throw schedule_store_error("schedule store: '" + path + "' record " +
                                   std::to_string(i) + " is malformed");
      }
    } else if (r.kind == WarmStore::kSmallRecord) {
      d.small = decode_small(r);
      if (!d.small.solved()) {
        throw schedule_store_error("schedule store: '" + path + "' record " +
                                   std::to_string(i) + " is malformed");
      }
    } else {
      throw schedule_store_error("schedule store: '" + path + "' record " +
                                 std::to_string(i) + " has unknown kind");
    }
    records.push_back(std::move(d));
  }
  for (const Decoded& d : records) {
    if (d.lines.empty()) {
      insert_small(d.digest, d.small);
    } else {
      insert_lines(d.digest, d.m, d.lines);
    }
  }
  store_loaded_.inc(records.size());
  return records.size();
}

std::size_t ScheduleCache::warm_start(const std::string& path) {
  auto store = std::make_unique<WarmStore>(path);  // throws on open/format
  const std::size_t n = store->records();
  std::scoped_lock lock(mu_);
  warm_view_.store(nullptr, std::memory_order_release);
  if (warm_ != nullptr) retired_warm_.push_back(std::move(warm_));
  warm_ = std::move(store);
  warm_view_.store(warm_.get(), std::memory_order_release);
  return n;
}

bool ScheduleCache::promote_warm(const PermutationDigest& digest, std::uint32_t lane) {
  const WarmStore* ws = warm_view_.load(std::memory_order_acquire);
  if (ws == nullptr) return false;
  const WarmStore::Record* r = ws->lookup(digest);
  const std::uint32_t kind =
      lane == kLaneGeneral ? WarmStore::kGeneralRecord : WarmStore::kSmallRecord;
  // Absent, the other lane's, or corrupt: a miss.
  if (r == nullptr || r->kind != kind || !ws->verify(*r)) return false;
  if (lane == kLaneGeneral) {
    std::vector<std::uint32_t> lines;
    if (!decode_general(*r, lines)) return false;
    insert_lines(digest, r->m, lines);
  } else {
    const SmallSchedule small = decode_small(*r);
    if (!small.solved()) return false;
    insert_small(digest, small);
  }
  store_loaded_.inc();
  return true;
}

}  // namespace bnb
