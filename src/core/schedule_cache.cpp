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

// Valid ControlSchedule shape per the engine's own invariants; anything
// else is a torn shape read and the lookup degrades to a miss.  Mirrors
// ControlSchedule::reshape's contract WITHOUT its BNB_EXPECTS — the
// lock-free reader must never turn a torn read into a contract violation.
constexpr bool plausible_shape(std::uint32_t m, std::uint64_t columns,
                               std::uint64_t control_words) noexcept {
  return m >= 1 && m < 26 &&
         columns == static_cast<std::uint64_t>(m) * (m + 1) / 2 && control_words >= 1;
}

}  // namespace

PermutationDigest digest_permutation(const Permutation& pi) noexcept {
  const std::uint32_t* image = pi.image().data();
  const std::size_t n = pi.size();
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
  BNB_EXPECTS(capacity >= 1);
  BNB_EXPECTS(shards >= 1 && shards <= 256);
  (void)shards;  // PR 4 API compatibility; the flat table has no shards
  table_size_ = next_pow2(capacity_ < 4 ? 8 : 2 * capacity_);
  mask_ = table_size_ - 1;
  slots_ = std::make_unique<Slot[]>(table_size_);
  registry_->attach_counter("bnb_cache_hits_total", &hits_,
                            "schedule cache hits (replays without a solve)");
  registry_->attach_counter("bnb_cache_misses_total", &misses_,
                            "schedule cache misses (cold solves)");
  registry_->attach_counter("bnb_cache_evictions_total", &evictions_,
                            "clock/second-chance evictions");
  registry_->attach_counter("bnb_cache_bypasses_total", &bypasses_,
                            "fault/trace routes that bypassed the cache");
  registry_->attach_counter("bnb_cache_quarantined_total", &quarantined_,
                            "entries dropped by fault quarantine (invalidate)");
  registry_->attach_counter("bnb_cache_store_saved_total", &store_saved_,
                            "schedule records written by save()");
  registry_->attach_counter("bnb_cache_store_loaded_total", &store_loaded_,
                            "schedule records loaded (load() + warm-store promotions)");
  registry_->attach_gauge("bnb_cache_entries", &entries_,
                          "live cached schedules in the flat table");
  probe_len_ = &registry_->histogram("bnb_cache_probe_len",
                                     "open-addressing slots probed per cache lookup");
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
    // Small lane: value-type hit copied out through the slot's staging
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
  // General lane: a hit replays STRAIGHT FROM THE SLOT (no schedule copy);
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

ScheduleCache::Slot* ScheduleCache::probe_reader(const PermutationDigest& digest,
                                                 std::size_t& probes) noexcept {
  // Double hashing: both digest lanes are avalanche-mixed, so lo IS the
  // bucket hash and hi|1 an odd (hence full-cycle) step.
  std::size_t idx = static_cast<std::size_t>(digest.lo) & mask_;
  const std::size_t step = (static_cast<std::size_t>(digest.hi) | 1) & mask_;
  for (std::size_t k = 0; k < table_size_; ++k) {
    Slot& s = slots_[idx];
    ++probes;
    const std::uint32_t st = s.state.load(std::memory_order_acquire);
    if (st == kFree) return nullptr;  // probe chains never skip a free slot
    if (st == kLive && s.digest_lo.load(std::memory_order_relaxed) == digest.lo &&
        s.digest_hi.load(std::memory_order_relaxed) == digest.hi) {
      // A torn digest read can only FAIL this test (→ clean miss); a false
      // positive still has to survive the caller's seqlock validation.
      return &s;
    }
    idx = (idx + step) & mask_;
  }
  return nullptr;
}

bool ScheduleCache::replay(const CompiledBnb& plan, const PermutationDigest& digest,
                           const Permutation& pi, RouteScratch& scratch,
                           CompiledBnb::Output& out) {
  std::size_t probes = 0;
  Slot* slot = probe_reader(digest, probes);
  probe_len_->record(probes);
  if (slot != nullptr) {
    for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
      const std::uint32_t s1 = slot->seq.load(std::memory_order_acquire);
      if ((s1 & 1U) != 0) continue;  // writer inside; retry
      if (slot->state.load(std::memory_order_relaxed) != kLive ||
          slot->lane.load(std::memory_order_relaxed) != kLaneGeneral ||
          slot->digest_lo.load(std::memory_order_relaxed) != digest.lo ||
          slot->digest_hi.load(std::memory_order_relaxed) != digest.hi) {
        break;  // evicted/lane-switched under us: ordinary miss
      }
      const std::uint32_t m = slot->g_m.load(std::memory_order_relaxed);
      const std::uint64_t columns = slot->g_columns.load(std::memory_order_relaxed);
      const std::uint64_t cw = slot->g_control_words.load(std::memory_order_relaxed);
      std::atomic<std::uint64_t>* buf = slot->gbuf.load(std::memory_order_relaxed);
      if (m != plan.m() || buf == nullptr || !plausible_shape(m, columns, cw)) break;
      const std::size_t n = plan.inputs();
      const std::size_t ctl_words = static_cast<std::size_t>(columns * cw);
      const std::size_t line_words = (n + 1) / 2;
      if (ctl_words + line_words > buf[0].load(std::memory_order_relaxed)) {
        break;  // torn shape would overrun the payload: miss
      }
      // Replay the input->line map straight off the slot (relaxed loads,
      // line values masked in-range) — zero copies, zero allocations.
      out = plan.apply_packed_lines(buf + 1 + ctl_words, pi, scratch);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot->seq.load(std::memory_order_relaxed) != s1) continue;  // torn: retry
      slot->ref.store(1, std::memory_order_relaxed);  // second chance
      hits_.inc();
      return true;
    }
  }
  if (warm_view_.load(std::memory_order_acquire) != nullptr &&
      warm_replay(plan, digest, pi, scratch, out)) {
    return true;
  }
  misses_.inc();
  return false;
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
  std::size_t probes = 0;
  Slot* slot = probe_reader(digest, probes);
  probe_len_->record(probes);
  if (slot != nullptr) {
    for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
      const std::uint32_t s1 = slot->seq.load(std::memory_order_acquire);
      if ((s1 & 1U) != 0) continue;
      if (slot->state.load(std::memory_order_relaxed) != kLive ||
          slot->lane.load(std::memory_order_relaxed) != kLaneGeneral ||
          slot->digest_lo.load(std::memory_order_relaxed) != digest.lo ||
          slot->digest_hi.load(std::memory_order_relaxed) != digest.hi) {
        break;
      }
      const std::uint32_t m = slot->g_m.load(std::memory_order_relaxed);
      const std::uint64_t columns = slot->g_columns.load(std::memory_order_relaxed);
      const std::uint64_t cw = slot->g_control_words.load(std::memory_order_relaxed);
      std::atomic<std::uint64_t>* buf = slot->gbuf.load(std::memory_order_relaxed);
      if (buf == nullptr || !plausible_shape(m, columns, cw)) break;
      const std::size_t n = std::size_t{1} << m;
      const std::size_t ctl_words = static_cast<std::size_t>(columns * cw);
      const std::size_t line_words = (n + 1) / 2;
      if (ctl_words + line_words > buf[0].load(std::memory_order_relaxed)) break;
      // Copy-out: allocation-free when `out` already has this shape.
      out.reshape(m, static_cast<std::size_t>(columns), static_cast<std::size_t>(cw));
      std::uint64_t* ctl = out.ctl_data();
      for (std::size_t w = 0; w < ctl_words; ++w) {
        ctl[w] = buf[1 + w].load(std::memory_order_relaxed);
      }
      std::uint32_t* lines = out.lines_data();
      const std::atomic<std::uint64_t>* packed = buf + 1 + ctl_words;
      for (std::size_t w = 0; w < line_words; ++w) {
        const std::uint64_t word = packed[w].load(std::memory_order_relaxed);
        lines[2 * w] = static_cast<std::uint32_t>(word);
        if (2 * w + 1 < n) lines[2 * w + 1] = static_cast<std::uint32_t>(word >> 32);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot->seq.load(std::memory_order_relaxed) != s1) continue;  // torn: retry
      out.set_solved(true);
      slot->ref.store(1, std::memory_order_relaxed);
      hits_.inc();
      return true;
    }
  }
  if (warm_view_.load(std::memory_order_acquire) != nullptr &&
      warm_fetch_general(digest, out)) {
    return true;
  }
  misses_.inc();
  return false;
}

bool ScheduleCache::find_small(const PermutationDigest& digest, SmallSchedule& out) {
  static_assert(std::is_trivially_copyable_v<SmallSchedule>,
                "the small lane stages SmallSchedule as raw words");
  std::size_t probes = 0;
  Slot* slot = probe_reader(digest, probes);
  probe_len_->record(probes);
  if (slot != nullptr) {
    for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
      const std::uint32_t s1 = slot->seq.load(std::memory_order_acquire);
      if ((s1 & 1U) != 0) continue;
      if (slot->state.load(std::memory_order_relaxed) != kLive ||
          slot->lane.load(std::memory_order_relaxed) != kLaneSmall ||
          slot->digest_lo.load(std::memory_order_relaxed) != digest.lo ||
          slot->digest_hi.load(std::memory_order_relaxed) != digest.hi) {
        break;  // absent or a general-lane entry: not this lane's data
      }
      std::uint64_t words[kSmallWords];
      for (std::size_t i = 0; i < kSmallWords; ++i) {
        words[i] = slot->small[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot->seq.load(std::memory_order_relaxed) != s1) continue;  // torn: retry
      std::memcpy(&out, words, sizeof(SmallSchedule));
      if (!out.solved()) break;  // torn-then-validated can't happen; belt and braces
      slot->ref.store(1, std::memory_order_relaxed);
      hits_.inc();
      return true;
    }
  }
  if (warm_view_.load(std::memory_order_acquire) != nullptr &&
      warm_fetch_small(digest, out)) {
    return true;
  }
  misses_.inc();
  return false;
}

void ScheduleCache::insert(const PermutationDigest& digest, const ControlSchedule& schedule) {
  BNB_EXPECTS(schedule.solved());
  std::scoped_lock lock(mu_);
  Slot* slot = writer_claim_locked(digest);
  write_general_locked(*slot, digest, schedule);
}

void ScheduleCache::insert_small(const PermutationDigest& digest,
                                 const SmallSchedule& schedule) {
  BNB_EXPECTS(schedule.solved());
  std::scoped_lock lock(mu_);
  Slot* slot = writer_claim_locked(digest);
  write_small_locked(*slot, digest, schedule);
}

bool ScheduleCache::invalidate(const PermutationDigest& digest) {
  std::scoped_lock lock(mu_);
  Slot* slot = writer_find_locked(digest);
  if (slot == nullptr) return false;
  free_slot_locked(*slot, kTombstone);
  --live_;
  ++tombstones_;
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
  for (std::size_t i = 0; i < table_size_; ++i) {
    if (slots_[i].state.load(std::memory_order_relaxed) != kFree) {
      free_slot_locked(slots_[i], kFree);
    }
  }
  entries_.add(-static_cast<std::int64_t>(live_));
  live_ = 0;
  tombstones_ = 0;
  hand_ = 0;
}

// -- writer-side helpers (mu_ held) -----------------------------------------

ScheduleCache::Slot* ScheduleCache::writer_find_locked(
    const PermutationDigest& digest) noexcept {
  std::size_t idx = static_cast<std::size_t>(digest.lo) & mask_;
  const std::size_t step = (static_cast<std::size_t>(digest.hi) | 1) & mask_;
  for (std::size_t k = 0; k < table_size_; ++k) {
    Slot& s = slots_[idx];
    const std::uint32_t st = s.state.load(std::memory_order_relaxed);
    if (st == kFree) return nullptr;
    if (st == kLive && s.digest_lo.load(std::memory_order_relaxed) == digest.lo &&
        s.digest_hi.load(std::memory_order_relaxed) == digest.hi) {
      return &s;
    }
    idx = (idx + step) & mask_;
  }
  return nullptr;
}

ScheduleCache::Slot* ScheduleCache::writer_position_locked(
    const PermutationDigest& digest) noexcept {
  // First free-or-tombstone slot in probe order.  The caller has already
  // ruled out a live entry under this digest, and live_ <= capacity_ <=
  // table_size_/2 guarantees a non-live slot exists on the cycle.
  std::size_t idx = static_cast<std::size_t>(digest.lo) & mask_;
  const std::size_t step = (static_cast<std::size_t>(digest.hi) | 1) & mask_;
  for (std::size_t k = 0; k < table_size_; ++k) {
    Slot& s = slots_[idx];
    if (s.state.load(std::memory_order_relaxed) != kLive) return &s;
    idx = (idx + step) & mask_;
  }
  return nullptr;  // unreachable by the load-factor invariant
}

ScheduleCache::Slot* ScheduleCache::writer_claim_locked(const PermutationDigest& digest) {
  if (tombstones_ * 4 >= table_size_) rehash_locked();
  if (Slot* existing = writer_find_locked(digest)) {
    return existing;  // racing miss / lane switch: overwrite in place
  }
  if (live_ >= capacity_) evict_one_locked();
  Slot* slot = writer_position_locked(digest);
  BNB_EXPECTS(slot != nullptr);
  if (slot->state.load(std::memory_order_relaxed) == kTombstone) --tombstones_;
  ++live_;
  entries_.add(1);
  return slot;
}

void ScheduleCache::evict_one_locked() {
  // Clock / second chance: clear reference bits until an unreferenced live
  // slot comes under the hand; two sweeps always find one (the first sweep
  // clears every bit at worst).
  for (std::size_t k = 0; k < 2 * table_size_ + 1; ++k) {
    Slot& s = slots_[hand_];
    hand_ = (hand_ + 1) & mask_;
    if (s.state.load(std::memory_order_relaxed) != kLive) continue;
    if (s.ref.load(std::memory_order_relaxed) != 0) {
      s.ref.store(0, std::memory_order_relaxed);  // second chance spent
      continue;
    }
    free_slot_locked(s, kTombstone);
    --live_;
    ++tombstones_;
    evictions_.inc();
    entries_.add(-1);
    return;
  }
}

void ScheduleCache::free_slot_locked(Slot& slot, std::uint32_t new_state) noexcept {
  // Seqlock writer dance so a reader mid-copy rejects its snapshot.  The
  // payload buffer (if any) stays owned by buffers_ and attached to the
  // slot as reusable scratch.
  const std::uint32_t q = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(q + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.state.store(new_state, std::memory_order_relaxed);
  slot.lane.store(0, std::memory_order_relaxed);
  slot.ref.store(0, std::memory_order_relaxed);
  slot.seq.store(q + 2, std::memory_order_release);
}

std::atomic<std::uint64_t>* ScheduleCache::ensure_buffer_locked(Slot& slot,
                                                                std::size_t payload_words) {
  std::atomic<std::uint64_t>* buf = slot.gbuf.load(std::memory_order_relaxed);
  if (buf != nullptr && buf[0].load(std::memory_order_relaxed) >= payload_words) {
    return buf;  // reuse: word 0 is the immutable allocated capacity
  }
  // An outgrown buffer goes back on the free list; it stays owned by
  // buffers_, since a reader may still be copying from it and
  // type-stability is what makes that race benign.
  if (buf != nullptr) spare_buffers_.push_back(buf);
  for (std::size_t i = 0; i < spare_buffers_.size(); ++i) {
    std::atomic<std::uint64_t>* spare = spare_buffers_[i];
    if (spare[0].load(std::memory_order_relaxed) >= payload_words) {
      spare_buffers_[i] = spare_buffers_.back();
      spare_buffers_.pop_back();
      return spare;
    }
  }
  auto owned = std::make_unique<std::atomic<std::uint64_t>[]>(1 + payload_words);
  owned[0].store(payload_words, std::memory_order_relaxed);
  buf = owned.get();
  buffers_.push_back(std::move(owned));
  return buf;
}

void ScheduleCache::write_general_locked(Slot& slot, const PermutationDigest& digest,
                                         const ControlSchedule& schedule) {
  const unsigned m = schedule.m();
  const std::size_t n = std::size_t{1} << m;
  const std::size_t ctl_words = schedule.columns() * schedule.control_words();
  const std::size_t line_words = (n + 1) / 2;
  std::atomic<std::uint64_t>* buf = ensure_buffer_locked(slot, ctl_words + line_words);
  const std::span<const std::uint32_t> lines = schedule.line_of_input();
  const std::uint64_t* ctl = schedule.ctl_data();

  const std::uint32_t q = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(q + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.digest_lo.store(digest.lo, std::memory_order_relaxed);
  slot.digest_hi.store(digest.hi, std::memory_order_relaxed);
  slot.g_m.store(m, std::memory_order_relaxed);
  slot.g_columns.store(static_cast<std::uint32_t>(schedule.columns()),
                       std::memory_order_relaxed);
  slot.g_control_words.store(static_cast<std::uint32_t>(schedule.control_words()),
                             std::memory_order_relaxed);
  slot.gbuf.store(buf, std::memory_order_relaxed);
  for (std::size_t w = 0; w < ctl_words; ++w) {
    buf[1 + w].store(ctl[w], std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t>* packed = buf + 1 + ctl_words;
  for (std::size_t w = 0; w < line_words; ++w) {
    const std::uint64_t level_lo = lines[2 * w];
    const std::uint64_t level_hi = (2 * w + 1 < n) ? lines[2 * w + 1] : 0;
    packed[w].store(level_lo | (level_hi << 32), std::memory_order_relaxed);
  }
  slot.lane.store(kLaneGeneral, std::memory_order_relaxed);
  slot.state.store(kLive, std::memory_order_relaxed);
  slot.ref.store(0, std::memory_order_relaxed);  // earns its second chance on a hit
  slot.seq.store(q + 2, std::memory_order_release);
}

void ScheduleCache::write_small_locked(Slot& slot, const PermutationDigest& digest,
                                       const SmallSchedule& schedule) {
  std::uint64_t words[kSmallWords] = {};
  std::memcpy(words, &schedule, sizeof(SmallSchedule));

  const std::uint32_t q = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(q + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.digest_lo.store(digest.lo, std::memory_order_relaxed);
  slot.digest_hi.store(digest.hi, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kSmallWords; ++i) {
    slot.small[i].store(words[i], std::memory_order_relaxed);
  }
  slot.lane.store(kLaneSmall, std::memory_order_relaxed);
  slot.state.store(kLive, std::memory_order_relaxed);
  slot.ref.store(0, std::memory_order_relaxed);
  slot.seq.store(q + 2, std::memory_order_release);
}

void ScheduleCache::rehash_locked() {
  // In-place compaction: lift every live entry out, reset the whole table,
  // and re-insert at home positions.  Payload buffers MOVE with their
  // entries (the packed words are position-independent), so no payload is
  // rewritten.  Concurrent readers transiently miss mid-rehash and fall
  // back to a solve — correct, just cold; their insert then queues on mu_.
  std::vector<LiftedEntry>& lives = rehash_scratch_;
  lives.clear();
  for (std::size_t i = 0; i < table_size_; ++i) {
    Slot& s = slots_[i];
    std::atomic<std::uint64_t>* gbuf = s.gbuf.load(std::memory_order_relaxed);
    if (s.state.load(std::memory_order_relaxed) == kLive) {
      LiftedEntry e;
      e.digest = PermutationDigest{s.digest_lo.load(std::memory_order_relaxed),
                                   s.digest_hi.load(std::memory_order_relaxed)};
      e.lane = s.lane.load(std::memory_order_relaxed);
      e.ref = s.ref.load(std::memory_order_relaxed);
      e.g_m = s.g_m.load(std::memory_order_relaxed);
      e.g_columns = s.g_columns.load(std::memory_order_relaxed);
      e.g_control_words = s.g_control_words.load(std::memory_order_relaxed);
      e.gbuf = gbuf;
      for (std::size_t w = 0; w < kSmallWords; ++w) {
        e.small[w] = s.small[w].load(std::memory_order_relaxed);
      }
      lives.push_back(e);
    } else if (gbuf != nullptr) {
      spare_buffers_.push_back(gbuf);  // a tombstone's scratch buffer
    }
    if (s.state.load(std::memory_order_relaxed) != kFree) {
      free_slot_locked(s, kFree);
    }
    // Detach every buffer so re-insertion can re-attach the RIGHT buffer
    // to the RIGHT entry (ownership stays with buffers_).
    const std::uint32_t q = s.seq.load(std::memory_order_relaxed);
    s.seq.store(q + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.gbuf.store(nullptr, std::memory_order_relaxed);
    s.seq.store(q + 2, std::memory_order_release);
  }
  tombstones_ = 0;
  for (const LiftedEntry& e : lives) {
    Slot* slot = writer_position_locked(e.digest);
    BNB_EXPECTS(slot != nullptr);
    Slot& s = *slot;
    const std::uint32_t q = s.seq.load(std::memory_order_relaxed);
    s.seq.store(q + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.digest_lo.store(e.digest.lo, std::memory_order_relaxed);
    s.digest_hi.store(e.digest.hi, std::memory_order_relaxed);
    s.g_m.store(e.g_m, std::memory_order_relaxed);
    s.g_columns.store(e.g_columns, std::memory_order_relaxed);
    s.g_control_words.store(e.g_control_words, std::memory_order_relaxed);
    s.gbuf.store(e.gbuf, std::memory_order_relaxed);
    for (std::size_t w = 0; w < kSmallWords; ++w) {
      s.small[w].store(e.small[w], std::memory_order_relaxed);
    }
    s.lane.store(e.lane, std::memory_order_relaxed);
    s.ref.store(e.ref, std::memory_order_relaxed);
    s.state.store(kLive, std::memory_order_relaxed);
    s.seq.store(q + 2, std::memory_order_release);
  }
}

}  // namespace bnb
