// Frame-array schedule store with seqlock readers.
//
// The paper's fabric re-arbitrates every permutation from scratch; real
// traffic repeats.  A ScheduleCache keys solved schedules by a strong
// 128-bit permutation digest so a repeated permutation skips the entire
// control solve (arbiter trees, column passes) and pays only the O(N)
// schedule apply.  On the warm path a reader takes NO lock, follows NO
// list, and touches NO reference-counted pointer:
//
//   * FRAMES + ID TABLE: entries live in a fixed array of `capacity`
//     frames and never move.  An open-addressing table of the next power
//     of two >= 2 x capacity cells (load factor <= 1/2) maps a digest to
//     a frame id by double hashing (h1 = lo, step = hi|1 — odd, so the
//     probe sequence cycles the whole table).  The digest lanes are
//     already avalanche-mixed; no re-hashing needed.  A removed entry
//     leaves a tombstone cell so probe chains stay intact; when
//     tombstones pile up the writer rebuilds the id table from the frames
//     into a second table and publishes it with one pointer swap — no
//     payload, frame or buffer moves, and no reader sees a half-built
//     table.
//   * SEQLOCK READERS: every frame carries a sequence word (even =
//     stable, odd = writer inside).  One private read loop serves every
//     lookup: probe, snapshot the sequence, run the caller's copy step
//     with relaxed atomic loads, revalidate; a torn read retries and then
//     becomes an ordinary miss.  Readers never block writers and writers
//     never block readers.
//   * A GENERAL ENTRY IS ITS LINE MAP: the network self-routes (Thm. 2),
//     so a cached schedule replays from its composed input->line map
//     alone; a frame stores the map packed two u32 lines per word and no
//     switch controls.
//   * ZERO-ALLOC WARM HITS: the general lane replays STRAIGHT FROM THE
//     FRAME — replay() hands CompiledBnb::apply_packed_lines the frame's
//     packed input->line map; no schedule copy, no shared_ptr, no heap.
//     route() and ResilientRouter both hit through replay(); find()
//     copy-out stays for callers that hand the schedule to another thread
//     (StreamEngine): it copies the line map into a caller-owned
//     ControlSchedule, an ordinary solved schedule.  A small entry is its
//     line map too: the small lane copies a 68-byte SmallSchedule (m and
//     up to 64 one-byte lines) through the frame's nine staging words.
//     A frame's payload buffer is
//     TYPE-STABLE: it lives until the cache dies (a frame swaps it only
//     for a larger one), so a reader racing an eviction copies
//     stale-but-owned memory and the sequence check rejects the result,
//     and eviction churn at one size allocates nothing.
//   * CLOCK EVICTION OVER FRAMES: a hit adds 1 to its frame's reference
//     count, saturating at kMaxRef = 3.  Inserting into a full cache walks
//     a clock hand over the frames, subtracting 1 from each frame it
//     passes, and evicts the first frame at 0; the new entry takes the
//     victim's frame.  The order is a fixed cycle over frames, so an entry
//     that is never hit is evicted by the capacity-th eviction after its
//     insert, whatever the interleaving of concurrent inserts.
//   * FAULT/TRACE BYPASS and QUARANTINE: route() forwards trace/fault
//     calls to the fused engine (counted in `bypasses`), and
//     invalidate(digest) frees the frame from whichever lane holds it
//     (counted in `quarantined`) — see docs/RELIABILITY.md.
//   * PERSISTENCE (core/schedule_store.hpp): save()/load() serialize the
//     live entries as bnb.schedstore.v3 (versioned, CRC-per-record; save
//     writes a temp file, fsyncs it and renames it over the old store),
//     and warm_start() memory-maps a store read-only so the first request
//     after a process restart replays at warm speed — a table miss
//     consults the mmap index, CRC-checks the one record it needs,
//     promotes it into a frame, and reads it back as a hit.
//
// The digest is lane-parallel: four independent multiply-fold chains
// (multiply by a per-lane odd key, fold the high half into the low), each
// seeded with the size, consume the image as 64-bit chunks dealt
// round-robin, and splitmix64 finalizers fold the four lanes to 128 bits.
// Each step is a bijection of its lane, so images that differ in a single
// chunk can never collide.  The cache trusts the digest without a full
// image compare.  Counters are registry-backed obs::Counters
// under bnb_cache_* (stats() is the per-instance view); probe lengths go
// to the registry-owned bnb_cache_probe_len histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/compiled_bnb.hpp"
#include "obs/metrics.hpp"
#include "perm/permutation.hpp"

namespace bnb {

class WarmStore;  // core/schedule_store.hpp: mmap-backed read-only store

/// 128-bit permutation fingerprint (mixes the size and every image
/// element through four independent multiply-fold lanes); the
/// ScheduleCache key and the bnb.schedstore.v3 record key.
struct PermutationDigest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const PermutationDigest&, const PermutationDigest&) = default;
};

[[nodiscard]] PermutationDigest digest_permutation(const Permutation& pi) noexcept;

/// digest_permutation of the permutation whose image is `image`, for an
/// image not (yet) trusted to be a permutation — e.g. a stored schedule's
/// input->line map, which for a clean schedule IS the permutation.
[[nodiscard]] PermutationDigest digest_image(
    std::span<const std::uint32_t> image) noexcept;

/// Counter snapshot; `entries` is the live entry count.
struct ScheduleCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t store_saved = 0;   ///< records written by save()
  std::uint64_t store_loaded = 0;  ///< records loaded (load() + warm promotions)
  std::size_t entries = 0;
};

class ScheduleCache {
 public:
  /// Cache at most `capacity` schedules in `capacity` frames, indexed by a
  /// table of the next power of two >= 2 * capacity cells (load factor
  /// <= 1/2).  Requires capacity >= 1 and 1 <= shards <= 256; `shards` is
  /// accepted for source compatibility with the old sharded cache and
  /// ignored — there are no shards, readers are lock-free everywhere.
  /// The cache's counters are attached to `registry` (nullptr = the
  /// global registry) under the bnb_cache_* names for the life of the
  /// cache, and folded into the registry's own totals at destruction.
  explicit ScheduleCache(std::size_t capacity, std::size_t shards = 8,
                         obs::MetricsRegistry* registry = nullptr);
  ~ScheduleCache();

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// The cache-aware routing front door: a hit replays the cached schedule
  /// (no arbiter work), a miss solves, routes, and caches the result.  A
  /// non-null `trace` or non-empty `faults` bypasses the cache entirely and
  /// takes the fused CompiledBnb::route path.  Output is bit-identical to
  /// plan.route(pi, scratch, trace, faults) in every case.  Steady-state
  /// hits allocate nothing — in BOTH lanes; misses allocate the new entry.
  [[nodiscard]] CompiledBnb::Output route(const CompiledBnb& plan, const Permutation& pi,
                                          RouteScratch& scratch,
                                          ControlTrace* trace = nullptr,
                                          const EngineFaults* faults = nullptr);

  /// The zero-copy general-lane hit path: probe for `digest` and, on a
  /// live general entry of `plan`'s shape, replay it straight from the
  /// frame's packed line map (seqlock-validated, allocation-free, no lock).
  /// Fills `out` and counts a hit on success; counts a miss and returns
  /// false otherwise (absent digest, small-lane entry, shape mismatch, or
  /// a torn read that exhausted its retries).  A warm store attached with
  /// warm_start() is consulted before declaring the miss.
  [[nodiscard]] bool replay(const CompiledBnb& plan, const PermutationDigest& digest,
                            const Permutation& pi, RouteScratch& scratch,
                            CompiledBnb::Output& out);

  /// Copy-out general-lane lookup: copy the cached line map into `out`,
  /// which becomes an ordinary solved schedule (a ControlSchedule is its
  /// line map) that apply(), apply_words() and flatten_small() accept.
  /// Allocation-free once `out` has held a map of this size (e.g. a
  /// RouteScratch::schedule_slot() warmed on the same plan).  Counts a hit
  /// or a miss; a small-lane entry under this digest is a miss for this
  /// lane.
  [[nodiscard]] bool find(const PermutationDigest& digest, ControlSchedule& out);

  /// Insert (or refresh) a solved schedule — its line map, the whole
  /// entry, is copied into the frame's type-stable buffer; the caller
  /// keeps ownership of `schedule`.  Evicts one frame (clock over frames) when the cache is
  /// full.
  /// Does not touch the hit/miss counters.
  void insert(const PermutationDigest& digest, const ControlSchedule& schedule);

  /// Small-lane lookup: copy the cached SmallSchedule into `out` through
  /// the frame's staging words (seqlock-validated value copy — no
  /// allocation, no lock), bump the reference count, and count a hit.
  /// Counts a miss and returns false when the digest is absent or held by
  /// the general lane; a warm store is consulted first.
  [[nodiscard]] bool find_small(const PermutationDigest& digest, SmallSchedule& out);

  /// Insert (or refresh) a small-N schedule (its line map) by value; same
  /// eviction accounting as insert().  Does not touch hit/miss.
  void insert_small(const PermutationDigest& digest, const SmallSchedule& schedule);

  /// Count one fault/trace bypass (route() calls this automatically).
  void record_bypass() noexcept { bypasses_.inc(); }

  /// Quarantine `digest`: free its frame in whichever lane holds it
  /// and count it in bnb_cache_quarantined_total.  The resilience layer
  /// calls this on every fault diagnosis and failed replay audit, so a
  /// schedule that might have been solved against a damaged fabric can
  /// never be served again.  Returns true when an entry was actually
  /// dropped; a miss leaves every counter untouched.  Safe against
  /// concurrent readers: a reader mid-replay on the dying frame fails its
  /// sequence check and re-solves.
  bool invalidate(const PermutationDigest& digest);

  /// Per-instance counter snapshot (a thin adapter over the same
  /// registry-attached counters).
  [[nodiscard]] ScheduleCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drop every entry (counters are kept; an attached warm store stays).
  void clear();

  // -- persistence (bnb.schedstore.v3; core/schedule_store.cpp) -----------

  /// Serialize every live entry to `path` (header + one CRC'd record per
  /// entry).  Crash-safe: the bytes go to `<path>.tmp.<pid>` in the same
  /// directory, which is fsynced and renamed over `path`, so a crash or a
  /// failed write leaves the previous store intact.  Returns the number
  /// of records written and counts them in bnb_cache_store_saved_total.
  /// Throws schedule_store_error on I/O failure (the temp file is
  /// removed).  Takes the writer lock: concurrent readers keep hitting.
  std::size_t save(const std::string& path);

  /// Eagerly load every record of `path` into the table, fully verifying
  /// the header and every record CRC up front.  Returns the number of
  /// records inserted (counted in bnb_cache_store_loaded_total).  Throws
  /// schedule_store_error on open failure, bad magic/version/endianness
  /// (a v1 or v2 store included: see core/schedule_store.hpp), or any CRC
  /// mismatch — a corrupt store never half-loads silently.
  std::size_t load(const std::string& path);

  /// Attach `path` as a read-only memory-mapped warm store.  The header
  /// and record bounds are validated now; payload CRCs are checked lazily,
  /// per record, on first use.  After this, a lookup that misses the table
  /// consults the store, promotes a matching record into the table, and
  /// serves it as a HIT — warm-cache speed from the first request after a
  /// restart.  A corrupt record degrades to an ordinary miss.  Returns the
  /// number of records indexed.  Throws schedule_store_error on open or
  /// format/version mismatch.  Replaces any previously attached store.
  std::size_t warm_start(const std::string& path);

  /// True when a warm store is attached.
  [[nodiscard]] bool has_warm_store() const noexcept {
    return warm_view_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  static constexpr std::size_t kSmallWords = (sizeof(SmallSchedule) + 7) / 8;
  static constexpr std::uint32_t kEmpty = 0;  ///< Frame::lane of a free frame
  static constexpr std::uint32_t kLaneGeneral = 1;
  static constexpr std::uint32_t kLaneSmall = 2;
  /// Id-table cells: 0 = never used, 1 = tombstone, else frame id + 2.
  static constexpr std::uint32_t kFreeCell = 0;
  static constexpr std::uint32_t kTombstone = 1;
  static constexpr std::uint32_t kFirstId = 2;
  /// A hit adds 1 to its frame's reference count, up to this limit.
  static constexpr std::uint32_t kMaxRef = 3;
  /// Seqlock read attempts before a torn read degrades to a miss.
  static constexpr int kReadAttempts = 8;

  /// One entry frame.  Every field a reader touches is an atomic accessed
  /// with relaxed ordering inside the seqlock window; `seq` carries the
  /// acquire/release edges.  The general payload lives in a type-stable
  /// buffer: word 0 is the immutable payload capacity, then the
  /// input->line map packed two u32 lines per word.  The small payload is
  /// staged in place as raw SmallSchedule bytes.
  struct Frame {
    std::atomic<std::uint32_t> seq{0};    ///< even = stable, odd = writer inside
    std::atomic<std::uint32_t> lane{kEmpty};
    std::atomic<std::uint32_t> ref{0};    ///< clock reference count, <= kMaxRef
    std::atomic<std::uint32_t> g_m{0};
    std::atomic<std::uint64_t> digest_lo{0};
    std::atomic<std::uint64_t> digest_hi{0};
    std::atomic<std::atomic<std::uint64_t>*> gbuf{nullptr};
    std::atomic<std::uint64_t> small[kSmallWords] = {};
  };

  // The one read loop behind replay(), find() and find_small(): probe,
  // seqlock-validate `copy(frame)` (which returns false on a shape it
  // cannot use), retry torn reads, bump the reference count and count the
  // hit; on a table miss promote a warm-store record of `lane` and read
  // once more; else count a miss.
  template <class Copy>
  [[nodiscard]] bool read(const PermutationDigest& digest, std::uint32_t lane, Copy&& copy);

  // The frame holding `digest` in `table`, or nullptr after a free cell or
  // a full cycle; `cell` is set to its cell index.  Lock-free; `probes`
  // counts cells visited.
  [[nodiscard]] Frame* find_frame(const std::atomic<std::uint32_t>* table,
                                  const PermutationDigest& digest, std::size_t& cell,
                                  std::size_t& probes) const noexcept;

  // insert() of a bare line map of 2^m lines (also a store record's).
  void insert_lines(const PermutationDigest& digest, unsigned m,
                    std::span<const std::uint32_t> lines);

  // Writer-side helpers; all require mu_ held.
  [[nodiscard]] Frame& claim_locked(const PermutationDigest& digest);
  void publish_locked(const PermutationDigest& digest, const Frame& frame);
  void place_locked(std::atomic<std::uint32_t>* table, const PermutationDigest& digest,
                    std::uint32_t cell_value) noexcept;
  void unlink_locked(Frame& frame) noexcept;
  void release_locked(Frame& frame);
  void rebuild_table_locked() noexcept;
  void write_general_locked(Frame& frame, const PermutationDigest& digest, unsigned m,
                            std::span<const std::uint32_t> lines);
  void write_small_locked(Frame& frame, const PermutationDigest& digest,
                          const SmallSchedule& schedule);

  // Warm-store fallback (core/schedule_store.cpp): promote `digest`'s
  // record of `lane` into a frame and count a store load; false when the
  // store has no such record or it fails its CRC or shape check.
  [[nodiscard]] bool promote_warm(const PermutationDigest& digest, std::uint32_t lane);

  std::size_t capacity_;    ///< frame count = max live entries
  std::size_t table_size_;  ///< power of two >= 2 * capacity_
  std::size_t mask_;        ///< table_size_ - 1
  std::unique_ptr<Frame[]> frames_;
  /// Two id tables of table_size_ cells each; table_ names the live one.
  /// A rebuild fills the other and swaps the pointer.
  std::unique_ptr<std::atomic<std::uint32_t>[]> cells_;
  std::atomic<std::atomic<std::uint32_t>*> table_{nullptr};

  mutable std::mutex mu_;   ///< single writer lock; readers never take it
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t hand_ = 0;    ///< clock hand (frame index)
  std::vector<std::uint32_t> free_frames_;  ///< empty frame ids, taken from the back
  /// Owns every general payload buffer ever allocated (type-stable: a
  /// buffer is never freed while the cache lives, so lock-free readers can
  /// race evictions safely; the seqlock rejects their stale copies).
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> buffers_;

  std::unique_ptr<WarmStore> warm_;                       ///< owner
  std::atomic<const WarmStore*> warm_view_{nullptr};      ///< reader view
  /// Superseded warm stores, retired-not-freed so a lock-free reader that
  /// raced warm_start() can finish against the old map safely.
  std::vector<std::unique_ptr<WarmStore>> retired_warm_;

  obs::MetricsRegistry* registry_;  ///< counters attached here until ~ScheduleCache
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter bypasses_;
  obs::Counter quarantined_;
  obs::Counter store_saved_;
  obs::Counter store_loaded_;
  obs::Gauge entries_;        ///< live entry count
  obs::Histogram* probe_len_; ///< registry-owned bnb_cache_probe_len
};

}  // namespace bnb
