// bnb.schedstore.v3 — versioned binary persistence for the schedule cache.
//
// A solved schedule is expensive to produce (the full column-by-column
// control solve) but cheap to describe: the composed input->line map for
// the general lane (the network self-routes, Thm. 2, so a replay reads
// nothing else); the same map plus its Beneš steps for the small lane.
// ScheduleCache::save() serializes every live entry into
// this format; load() rebuilds a cache eagerly; warm_start() attaches the
// file as a read-only memory map so a fresh process serves its FIRST
// request at warm-cache speed, paying only a lazy per-record CRC check.
//
// File layout (all integers little-endian, the header pins endianness):
//
//   StoreHeader   32 B   magic "BNBSCHD1", version 3, endianness probe,
//                        kernel-invariance tag, record count, header CRC32
//   Record        32 B   digest (128-bit), kind (general | small), m,
//        header          payload byte count, payload CRC32
//   Record        8-aligned payload:
//        payload         general: the line map, u32[2^m] — exactly
//                                 4 * 2^m bytes, the count taken from m
//                        small:   176 B: m, the step count, 11 step
//                                 masks and deltas (the flatten_small of
//                                 the map, computed at save), 64 one-byte
//                                 lines.  load() keeps only the line map,
//                                 and refuses a record whose other bytes
//                                 are not the encoding of that map.
//
// The kernel-invariance tag records the format-level promise that a stored
// schedule replays bit-identically on EVERY kernel tier (the control solve
// is tier-invariant; only data movement differs), so a store saved on an
// AVX-512 host loads on a scalar host and vice versa — asserted per tier by
// tests/test_schedule_store.cpp and enforced in CI's cache-persistence job.
//
// Version 3 keys records by the lane-parallel digest_permutation (four
// multiply-fold chains) and stores a general record as its bare line map.
// A version 2 file also carried every column's switch controls behind a
// payload header, a version 1 file was keyed by the old serial digest;
// both are refused with a diagnostic naming both versions.  Stores are
// rebuildable caches: delete the file and save again.
//
// save() is crash-safe: it writes `<path>.tmp.<pid>` in the same
// directory, fsyncs it, renames it over `path` and syncs the directory,
// so a crash or a failed write at any step leaves the previous store
// intact (a failed save removes its temp file and throws).
//
// A record header carries no CRC of its own.  Its digest is checked
// against the payload instead: a clean schedule's input->line map IS its
// permutation (Thm. 2), so a record is used only when its line map
// digests to its key.  A file must end exactly after its last record.
//
// load() verifies everything up front and throws schedule_store_error on
// the first inconsistency — a corrupt store never half-loads silently.
// warm_start() validates the header and record BOUNDS up front but defers
// payload CRC and key checks to first use; a record that fails them
// degrades to an ordinary cache miss (the fabric re-solves), never an
// error.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/schedule_cache.hpp"

namespace bnb {

/// Thrown by ScheduleCache::save/load/warm_start on I/O failure or a
/// malformed/mismatched store (bad magic, version, endianness, CRC).  The
/// CLI maps this to exit code 2 with the message on stderr.
class schedule_store_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A read-only, memory-mapped bnb.schedstore.v3 file with a sorted digest
/// index.  Construction validates the header and walks the record bounds;
/// payload CRCs are checked by verify(), once, at first use of a record.
/// The map lives until destruction; ScheduleCache retires (never frees)
/// superseded stores so lock-free readers can race warm_start() safely.
class WarmStore {
 public:
  static constexpr std::uint32_t kGeneralRecord = 1;
  static constexpr std::uint32_t kSmallRecord = 2;

  /// One indexed record; `payload` points into the mapped file.
  struct Record {
    PermutationDigest digest;
    std::uint32_t kind = 0;
    std::uint32_t m = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t payload_crc = 0;
    const unsigned char* payload = nullptr;
  };

  /// Map `path` and index its records.  Throws schedule_store_error on
  /// open failure or a malformed header / out-of-bounds record table.
  explicit WarmStore(const std::string& path);
  ~WarmStore();

  WarmStore(const WarmStore&) = delete;
  WarmStore& operator=(const WarmStore&) = delete;

  [[nodiscard]] std::size_t records() const noexcept { return index_.size(); }

  /// Binary-search the sorted index; nullptr when the digest is absent.
  [[nodiscard]] const Record* lookup(const PermutationDigest& digest) const noexcept;

  /// Record `i` in digest-sorted order; requires i < records().
  [[nodiscard]] const Record& record(std::size_t i) const noexcept { return index_[i]; }

  /// CRC-check `record`'s payload (the lazy half of validation).
  [[nodiscard]] bool verify(const Record& record) const noexcept;

 private:
  const unsigned char* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;               ///< mmap'd (else heap fallback owns fallback_)
  std::vector<unsigned char> fallback_;
  std::vector<Record> index_;         ///< sorted by (digest.hi, digest.lo)
};

}  // namespace bnb
