#include "core/schedule_cache.hpp"

#include <cstring>
#include <type_traits>

#include "common/expect.hpp"
#include "core/schedule_store.hpp"
#include "obs/span.hpp"

namespace bnb {
namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// One multiply-fold step: multiply by an odd key, then fold the high half
// of the product into the low half.  Both halves are bijections of the
// 64-bit state, so a lane whose input differs in exactly one chunk can
// never come back to the same state.
constexpr std::uint64_t mul_fold(std::uint64_t x, std::uint64_t key) noexcept {
  x *= key;
  return x ^ (x >> 32);
}

constexpr std::uint64_t rotl64(std::uint64_t x, unsigned r) noexcept {
  return (x << r) | (x >> (64 - r));
}

constexpr std::size_t next_pow2(std::size_t x) noexcept {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// A frame's general-lane line map as one seqlock read sees it.
struct GeneralView {
  std::uint32_t m = 0;
  const std::atomic<std::uint64_t>* lines = nullptr;  ///< 2^m / 2 packed line pairs
};

/// Read `frame`'s general shape; false when it is torn or would overrun
/// the payload buffer.  Mirrors ControlSchedule::reshape's contract
/// WITHOUT its BNB_EXPECTS — the lock-free reader must never turn a torn
/// read into a contract violation.
template <class Frame>
bool view_general(const Frame& frame, GeneralView& view) noexcept {
  view.m = frame.g_m.load(std::memory_order_relaxed);
  const std::atomic<std::uint64_t>* buf = frame.gbuf.load(std::memory_order_relaxed);
  if (buf == nullptr || view.m < 1 || view.m >= 26) return false;
  if ((std::size_t{1} << view.m) / 2 > buf[0].load(std::memory_order_relaxed)) return false;
  view.lines = buf + 1;
  return true;
}

}  // namespace

PermutationDigest digest_permutation(const Permutation& pi) noexcept {
  return digest_image(pi.image());
}

PermutationDigest digest_image(std::span<const std::uint32_t> whole) noexcept {
  const std::uint32_t* image = whole.data();
  const std::size_t n = whole.size();
  // Four independent multiply-fold chains, each with its own odd key and a
  // seed that mixes in the size.  The image is read as 64-bit chunks (two
  // adjacent elements in native byte order; a store's endianness probe
  // keeps digests from crossing byte orders) dealt round-robin to the
  // lanes, so the four multiplies of one stride overlap instead of
  // queueing behind one serial chain.
  constexpr std::uint64_t kKey[4] = {0xA0761D6478BD642FULL, 0xE7037ED1A0B428DBULL,
                                     0x8EBC6AF09C88C6E3ULL, 0x589965CC75374CC3ULL};
  std::uint64_t lane[4] = {
      mix64(0x243F6A8885A308D3ULL ^ n), mix64(0x452821E638D01377ULL ^ (n * kKey[0])),
      mix64(0x13198A2E03707344ULL + n), mix64(0xA4093822299F31D0ULL ^ rotl64(n, 32))};
  const auto chunk_at = [image](std::size_t j) noexcept {
    std::uint64_t chunk;
    std::memcpy(&chunk, image + j, sizeof(chunk));
    return chunk;
  };
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    lane[0] = mul_fold(lane[0] ^ chunk_at(j), kKey[0]);
    lane[1] = mul_fold(lane[1] ^ chunk_at(j + 2), kKey[1]);
    lane[2] = mul_fold(lane[2] ^ chunk_at(j + 4), kKey[2]);
    lane[3] = mul_fold(lane[3] ^ chunk_at(j + 6), kKey[3]);
  }
  // Tail shorter than one stride: the remaining whole chunks continue the
  // round-robin; a last lone element carries bit 63, which no whole chunk
  // can set in either byte order (image values are < 2^26).
  for (std::size_t k = 0; j < n; ++k, j += 2) {
    const std::uint64_t chunk =
        j + 2 <= n ? chunk_at(j) : (static_cast<std::uint64_t>(image[j]) | (1ULL << 63));
    lane[k] = mul_fold(lane[k] ^ chunk, kKey[k]);
  }
  // Fold 256 bits of lane state down to the 128-bit key with full mixes.
  const std::uint64_t a = mix64(lane[0] ^ rotl64(lane[1], 23));
  const std::uint64_t b = mix64(lane[2] ^ rotl64(lane[3], 41));
  return PermutationDigest{mix64(a ^ (b + n)), mix64(b ^ rotl64(a, 29) ^ kKey[3])};
}

ScheduleCache::ScheduleCache(std::size_t capacity, std::size_t shards,
                             obs::MetricsRegistry* registry)
    : capacity_(capacity),
      registry_(registry != nullptr ? registry : &obs::MetricsRegistry::global()) {
  BNB_EXPECTS(capacity >= 1 && capacity < (std::size_t{1} << 31));
  BNB_EXPECTS(shards >= 1 && shards <= 256);
  (void)shards;  // source compatibility with the old sharded cache; no shards here
  table_size_ = next_pow2(capacity_ < 4 ? 8 : 2 * capacity_);
  mask_ = table_size_ - 1;
  frames_ = std::make_unique<Frame[]>(capacity_);
  cells_ = std::make_unique<std::atomic<std::uint32_t>[]>(2 * table_size_);
  table_.store(cells_.get(), std::memory_order_relaxed);
  free_frames_.reserve(capacity_);
  for (std::size_t id = capacity_; id-- > 0;) {
    free_frames_.push_back(static_cast<std::uint32_t>(id));
  }
  registry_->attach_counter("bnb_cache_hits_total", &hits_,
                            "schedule cache hits (replays without a solve)");
  registry_->attach_counter("bnb_cache_misses_total", &misses_,
                            "schedule cache misses (cold solves)");
  registry_->attach_counter("bnb_cache_evictions_total", &evictions_,
                            "clock evictions (one per victim frame)");
  registry_->attach_counter("bnb_cache_bypasses_total", &bypasses_,
                            "fault/trace routes that bypassed the cache");
  registry_->attach_counter("bnb_cache_quarantined_total", &quarantined_,
                            "entries dropped by fault quarantine (invalidate)");
  registry_->attach_counter("bnb_cache_store_saved_total", &store_saved_,
                            "schedule records written by save()");
  registry_->attach_counter("bnb_cache_store_loaded_total", &store_loaded_,
                            "schedule records loaded (load() + warm-store promotions)");
  registry_->attach_gauge("bnb_cache_entries", &entries_,
                          "live cached schedules");
  probe_len_ = &registry_->histogram("bnb_cache_probe_len",
                                     "id-table cells probed per cache lookup");
}

ScheduleCache::~ScheduleCache() {
  registry_->detach_counter("bnb_cache_hits_total", &hits_);
  registry_->detach_counter("bnb_cache_misses_total", &misses_);
  registry_->detach_counter("bnb_cache_evictions_total", &evictions_);
  registry_->detach_counter("bnb_cache_bypasses_total", &bypasses_);
  registry_->detach_counter("bnb_cache_quarantined_total", &quarantined_);
  registry_->detach_counter("bnb_cache_store_saved_total", &store_saved_);
  registry_->detach_counter("bnb_cache_store_loaded_total", &store_loaded_);
  registry_->detach_gauge("bnb_cache_entries", &entries_);
  // Fold the final totals into the registry's owned counters: the
  // fabric-wide counters stay monotonic across cache lifetimes (the
  // entries gauge is a level, so a dead cache's entries just vanish).
  registry_->counter("bnb_cache_hits_total").inc(hits_.value());
  registry_->counter("bnb_cache_misses_total").inc(misses_.value());
  registry_->counter("bnb_cache_evictions_total").inc(evictions_.value());
  registry_->counter("bnb_cache_bypasses_total").inc(bypasses_.value());
  registry_->counter("bnb_cache_quarantined_total").inc(quarantined_.value());
  registry_->counter("bnb_cache_store_saved_total").inc(store_saved_.value());
  registry_->counter("bnb_cache_store_loaded_total").inc(store_loaded_.value());
}

CompiledBnb::Output ScheduleCache::route(const CompiledBnb& plan, const Permutation& pi,
                                         RouteScratch& scratch, ControlTrace* trace,
                                         const EngineFaults* faults) {
  if (trace != nullptr || (faults != nullptr && !faults->empty())) {
    record_bypass();
    return plan.route(pi, scratch, trace, faults);
  }
  const PermutationDigest digest = digest_permutation(pi);
  if (plan.small_capable()) {
    // Small lane: value-type hit copied out through the frame's staging
    // words and replayed in registers — the warm path allocates nothing.
    SmallSchedule small;
    if (find_small(digest, small)) {
      return plan.apply_small(small, pi, scratch);
    }
    small = plan.compile_small(pi, scratch);
    CompiledBnb::Output out = plan.apply_small(small, pi, scratch);
    insert_small(digest, small);
    return out;
  }
  // General lane: a hit replays STRAIGHT FROM THE FRAME (no schedule copy);
  // a miss routes the clean path — which already captures the solved
  // schedule into the scratch slot — and publishes that capture.
  CompiledBnb::Output out;
  if (replay(plan, digest, pi, scratch, out)) {
    return out;
  }
  out = plan.route(pi, scratch);
  insert(digest, scratch.schedule_slot());
  return out;
}

ScheduleCache::Frame* ScheduleCache::find_frame(const std::atomic<std::uint32_t>* table,
                                                const PermutationDigest& digest,
                                                std::size_t& cell,
                                                std::size_t& probes) const noexcept {
  // Double hashing: both digest lanes are avalanche-mixed, so lo IS the
  // bucket hash and hi|1 an odd (hence full-cycle) step.
  std::size_t idx = static_cast<std::size_t>(digest.lo) & mask_;
  const std::size_t step = (static_cast<std::size_t>(digest.hi) | 1) & mask_;
  for (std::size_t k = 0; k < table_size_; ++k) {
    ++probes;
    const std::uint32_t c = table[idx].load(std::memory_order_acquire);
    if (c == kFreeCell) return nullptr;  // probe chains never skip a free cell
    if (c >= kFirstId) {
      Frame& f = frames_[c - kFirstId];
      // A torn digest read can only FAIL this test (→ clean miss); a false
      // positive still has to survive the reader's seqlock validation.
      if (f.digest_lo.load(std::memory_order_relaxed) == digest.lo &&
          f.digest_hi.load(std::memory_order_relaxed) == digest.hi &&
          f.lane.load(std::memory_order_relaxed) != kEmpty) {
        cell = idx;
        return &f;
      }
    }
    idx = (idx + step) & mask_;
  }
  return nullptr;
}

template <class Copy>
bool ScheduleCache::read(const PermutationDigest& digest, std::uint32_t lane, Copy&& copy) {
  for (bool promoted = false;; promoted = true) {
    std::size_t cell = 0;
    std::size_t probes = 0;
    Frame* f = find_frame(table_.load(std::memory_order_acquire), digest, cell, probes);
    probe_len_->record(probes);
    for (int attempt = 0; f != nullptr && attempt < kReadAttempts; ++attempt) {
      const std::uint32_t s1 = f->seq.load(std::memory_order_acquire);
      if ((s1 & 1U) != 0) continue;  // writer inside; retry
      if (f->lane.load(std::memory_order_relaxed) != lane ||
          f->digest_lo.load(std::memory_order_relaxed) != digest.lo ||
          f->digest_hi.load(std::memory_order_relaxed) != digest.hi || !copy(*f)) {
        break;  // evicted, the other lane's entry, or a shape this call cannot use
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (f->seq.load(std::memory_order_relaxed) != s1) continue;  // torn: retry
      const std::uint32_t ref = f->ref.load(std::memory_order_relaxed);
      if (ref < kMaxRef) f->ref.store(ref + 1, std::memory_order_relaxed);
      hits_.inc();
      return true;
    }
    if (promoted || warm_view_.load(std::memory_order_acquire) == nullptr ||
        !promote_warm(digest, lane)) {
      break;
    }
  }
  misses_.inc();
  return false;
}

bool ScheduleCache::replay(const CompiledBnb& plan, const PermutationDigest& digest,
                           const Permutation& pi, RouteScratch& scratch,
                           CompiledBnb::Output& out) {
  return read(digest, kLaneGeneral, [&](const Frame& f) {
    GeneralView view;
    if (!view_general(f, view) || view.m != plan.m()) return false;
    // Replay the input->line map straight off the frame (relaxed loads,
    // line values masked in-range) — zero copies, zero allocations.
    out = plan.apply_packed_lines(view.lines, pi, scratch);
    return true;
  });
}

bool ScheduleCache::find(const PermutationDigest& digest, ControlSchedule& out) {
#if BNB_OBS_COMPILED
  // SINK-GATED lookup span: the warm hit is a sub-microsecond path and the
  // contended-cache bench compares it across builds, so the probe is timed
  // only while a structured trace sink is installed (someone is actively
  // chasing a causal trace).  Steady-state metrics keep it untimed — same
  // reasoning as apply_packed_lines staying span-free.
  struct LookupTimer {
    std::uint64_t t0 = 0;
    bool armed = false;
    LookupTimer() noexcept {
      if (obs::trace() != nullptr && obs::runtime_enabled()) {
        t0 = obs::now_ns();
        armed = true;
      }
    }
    ~LookupTimer() {
      if (armed) {
        obs::record_phase(obs::Phase::kCacheLookup, t0, obs::now_ns() - t0);
      }
    }
  } lookup_timer;
#endif
  const bool hit = read(digest, kLaneGeneral, [&](const Frame& f) {
    GeneralView view;
    if (!view_general(f, view)) return false;
    // Copy-out of the line map, the whole entry: allocation-free once
    // `out` has held a map of this size.
    out.reshape(view.m);
    std::uint32_t* lines = out.lines_data();
    for (std::size_t w = 0; w < (std::size_t{1} << view.m) / 2; ++w) {
      const std::uint64_t word = view.lines[w].load(std::memory_order_relaxed);
      lines[2 * w] = static_cast<std::uint32_t>(word);
      lines[2 * w + 1] = static_cast<std::uint32_t>(word >> 32);
    }
    return true;
  });
  if (hit) out.set_solved(true);
  return hit;
}

bool ScheduleCache::find_small(const PermutationDigest& digest, SmallSchedule& out) {
  static_assert(std::is_trivially_copyable_v<SmallSchedule>,
                "the small lane stages SmallSchedule as raw words");
  std::uint64_t words[kSmallWords];
  const bool hit = read(digest, kLaneSmall, [&](const Frame& f) {
    for (std::size_t i = 0; i < kSmallWords; ++i) {
      words[i] = f.small[i].load(std::memory_order_relaxed);
    }
    return true;
  });
  if (hit) std::memcpy(&out, words, sizeof(SmallSchedule));
  return hit;
}

void ScheduleCache::insert(const PermutationDigest& digest, const ControlSchedule& schedule) {
  BNB_EXPECTS(schedule.solved());
  insert_lines(digest, schedule.m(), schedule.line_of_input());
}

void ScheduleCache::insert_lines(const PermutationDigest& digest, unsigned m,
                                 std::span<const std::uint32_t> lines) {
  std::scoped_lock lock(mu_);
  Frame& frame = claim_locked(digest);
  write_general_locked(frame, digest, m, lines);
  publish_locked(digest, frame);
}

void ScheduleCache::insert_small(const PermutationDigest& digest,
                                 const SmallSchedule& schedule) {
  BNB_EXPECTS(schedule.solved());
  std::scoped_lock lock(mu_);
  Frame& frame = claim_locked(digest);
  write_small_locked(frame, digest, schedule);
  publish_locked(digest, frame);
}

bool ScheduleCache::invalidate(const PermutationDigest& digest) {
  std::scoped_lock lock(mu_);
  std::size_t cell = 0;
  std::size_t probes = 0;
  Frame* frame = find_frame(table_.load(std::memory_order_relaxed), digest, cell, probes);
  if (frame == nullptr) return false;
  unlink_locked(*frame);
  release_locked(*frame);
  --live_;
  quarantined_.inc();
  entries_.add(-1);
  return true;
}

ScheduleCacheStats ScheduleCache::stats() const {
  ScheduleCacheStats out;
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.evictions = evictions_.value();
  out.bypasses = bypasses_.value();
  out.quarantined = quarantined_.value();
  out.store_saved = store_saved_.value();
  out.store_loaded = store_loaded_.value();
  out.entries = size();
  return out;
}

std::size_t ScheduleCache::size() const {
  std::scoped_lock lock(mu_);
  return live_;
}

void ScheduleCache::clear() {
  std::scoped_lock lock(mu_);
  std::atomic<std::uint32_t>* table = table_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < table_size_; ++i) {
    table[i].store(kFreeCell, std::memory_order_relaxed);
  }
  free_frames_.clear();
  for (std::size_t id = capacity_; id-- > 0;) release_locked(frames_[id]);
  entries_.add(-static_cast<std::int64_t>(live_));
  live_ = 0;
  tombstones_ = 0;
  hand_ = 0;
}

// -- writer-side helpers (mu_ held) -----------------------------------------

ScheduleCache::Frame& ScheduleCache::claim_locked(const PermutationDigest& digest) {
  if (tombstones_ * 4 >= table_size_) rebuild_table_locked();
  std::size_t cell = 0;
  std::size_t probes = 0;
  std::atomic<std::uint32_t>* table = table_.load(std::memory_order_relaxed);
  if (Frame* held = find_frame(table, digest, cell, probes)) {
    return *held;  // racing miss / lane switch: overwrite in place
  }
  if (!free_frames_.empty()) {
    Frame& frame = frames_[free_frames_.back()];
    free_frames_.pop_back();
    ++live_;
    entries_.add(1);
    return frame;
  }
  // Clock over frames: the hand takes 1 from each frame it passes and
  // evicts the first one already at 0.  Every count is <= kMaxRef, so
  // kMaxRef sweeps reach a 0 unless concurrent hits keep topping counts
  // up; the bound then evicts where the hand stands.
  for (std::size_t passed = 0;; ++passed) {
    Frame& frame = frames_[hand_];
    hand_ = hand_ + 1 == capacity_ ? 0 : hand_ + 1;
    const std::uint32_t ref = frame.ref.load(std::memory_order_relaxed);
    if (ref == 0 || passed >= kMaxRef * capacity_) {
      unlink_locked(frame);
      evictions_.inc();
      return frame;
    }
    frame.ref.store(ref - 1, std::memory_order_relaxed);
  }
}

void ScheduleCache::publish_locked(const PermutationDigest& digest, const Frame& frame) {
  std::atomic<std::uint32_t>* table = table_.load(std::memory_order_relaxed);
  std::size_t cell = 0;
  std::size_t probes = 0;
  if (find_frame(table, digest, cell, probes) == &frame) return;  // refreshed in place
  const auto id = static_cast<std::uint32_t>(&frame - frames_.get());
  place_locked(table, digest, id + kFirstId);
}

void ScheduleCache::place_locked(std::atomic<std::uint32_t>* table,
                                 const PermutationDigest& digest,
                                 std::uint32_t cell_value) noexcept {
  // First free-or-tombstone cell in probe order; live <= capacity <=
  // table_size/2 guarantees one on the cycle.
  std::size_t idx = static_cast<std::size_t>(digest.lo) & mask_;
  const std::size_t step = (static_cast<std::size_t>(digest.hi) | 1) & mask_;
  while (table[idx].load(std::memory_order_relaxed) >= kFirstId) {
    idx = (idx + step) & mask_;
  }
  if (table[idx].load(std::memory_order_relaxed) == kTombstone) --tombstones_;
  table[idx].store(cell_value, std::memory_order_release);
}

void ScheduleCache::unlink_locked(Frame& frame) noexcept {
  // Tombstone the frame's cell so probe chains through it stay intact.
  const PermutationDigest digest{frame.digest_lo.load(std::memory_order_relaxed),
                                 frame.digest_hi.load(std::memory_order_relaxed)};
  std::atomic<std::uint32_t>* table = table_.load(std::memory_order_relaxed);
  std::size_t cell = 0;
  std::size_t probes = 0;
  if (find_frame(table, digest, cell, probes) == &frame) {
    table[cell].store(kTombstone, std::memory_order_release);
    ++tombstones_;
  }
}

void ScheduleCache::release_locked(Frame& frame) {
  // Seqlock writer dance so a reader mid-copy rejects its snapshot; the
  // payload buffer stays with the frame.
  const std::uint32_t q = frame.seq.load(std::memory_order_relaxed);
  frame.seq.store(q + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  frame.lane.store(kEmpty, std::memory_order_relaxed);
  frame.ref.store(0, std::memory_order_relaxed);
  frame.seq.store(q + 2, std::memory_order_release);
  free_frames_.push_back(static_cast<std::uint32_t>(&frame - frames_.get()));
}

void ScheduleCache::rebuild_table_locked() noexcept {
  // Re-index every live frame into the spare table, then swap it in.  No
  // frame or payload moves; a reader still probing the old table at worst
  // misses (every cell it follows is checked against the frame's digest).
  std::atomic<std::uint32_t>* spare = cells_.get();
  if (table_.load(std::memory_order_relaxed) == spare) spare += table_size_;
  for (std::size_t i = 0; i < table_size_; ++i) {
    spare[i].store(kFreeCell, std::memory_order_relaxed);
  }
  for (std::size_t id = 0; id < capacity_; ++id) {
    const Frame& f = frames_[id];
    if (f.lane.load(std::memory_order_relaxed) == kEmpty) continue;
    place_locked(spare,
                 PermutationDigest{f.digest_lo.load(std::memory_order_relaxed),
                                   f.digest_hi.load(std::memory_order_relaxed)},
                 static_cast<std::uint32_t>(id) + kFirstId);
  }
  table_.store(spare, std::memory_order_release);
  tombstones_ = 0;
}

void ScheduleCache::write_general_locked(Frame& frame, const PermutationDigest& digest,
                                         unsigned m, std::span<const std::uint32_t> lines) {
  const std::size_t payload_words = (std::size_t{1} << m) / 2;
  std::atomic<std::uint64_t>* buf = frame.gbuf.load(std::memory_order_relaxed);
  if (buf == nullptr || buf[0].load(std::memory_order_relaxed) < payload_words) {
    // First general entry in this frame, or one larger than any before:
    // the outgrown buffer stays owned by buffers_, since a reader may
    // still be copying from it and type-stability is what makes that
    // race benign.
    auto owned = std::make_unique<std::atomic<std::uint64_t>[]>(1 + payload_words);
    owned[0].store(payload_words, std::memory_order_relaxed);
    buf = owned.get();
    buffers_.push_back(std::move(owned));
  }

  const std::uint32_t q = frame.seq.load(std::memory_order_relaxed);
  frame.seq.store(q + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  frame.digest_lo.store(digest.lo, std::memory_order_relaxed);
  frame.digest_hi.store(digest.hi, std::memory_order_relaxed);
  frame.g_m.store(m, std::memory_order_relaxed);
  frame.gbuf.store(buf, std::memory_order_relaxed);
  for (std::size_t w = 0; w < payload_words; ++w) {
    buf[1 + w].store(lines[2 * w] | (std::uint64_t{lines[2 * w + 1]} << 32),
                     std::memory_order_relaxed);
  }
  frame.lane.store(kLaneGeneral, std::memory_order_relaxed);
  frame.ref.store(0, std::memory_order_relaxed);  // hits earn it clock passes
  frame.seq.store(q + 2, std::memory_order_release);
}

void ScheduleCache::write_small_locked(Frame& frame, const PermutationDigest& digest,
                                       const SmallSchedule& schedule) {
  std::uint64_t words[kSmallWords] = {};
  std::memcpy(words, &schedule, sizeof(SmallSchedule));

  const std::uint32_t q = frame.seq.load(std::memory_order_relaxed);
  frame.seq.store(q + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  frame.digest_lo.store(digest.lo, std::memory_order_relaxed);
  frame.digest_hi.store(digest.hi, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kSmallWords; ++i) {
    frame.small[i].store(words[i], std::memory_order_relaxed);
  }
  frame.lane.store(kLaneSmall, std::memory_order_relaxed);
  frame.ref.store(0, std::memory_order_relaxed);
  frame.seq.store(q + 2, std::memory_order_release);
}

}  // namespace bnb
