// Cache-line-blocked bloom filter for hash-join sideways information
// passing (SIP).
//
// The join's build side inserts every non-NULL key's 64-bit FNV-1a hash
// (exec/hash_table.h HashKeyBytes -- the hash every join path already
// computes or can compute from the canonical key bytes); the probe side
// then tests each key before paying for the table lookup, and -- on the
// out-of-core path -- before the row is even written to a spill partition.
// A negative answer is definitive (no false negatives), so a rejected
// probe row is a *known* non-match: inner sides simply skip it, preserved
// sides short-circuit straight to null-padding / GS resurrection, which
// the matched-bitmap machinery already does for any unmatched row.
//
// Layout: one 64-byte block (8 x u64 words, 512 bits) per key, chosen by
// hash bits 24..24+log2(blocks); the TWO probe bits inside the block come
// from hash bits 0..8 and 9..17. Every membership test touches exactly one
// cache line, and both probes derive from the single existing 64-bit hash
// (no second hash function).
//
// Sizing: kBitsPerKey bits per expected build key, rounded up to a
// power-of-two block count. At 16 bits/key each block averages 32 keys =
// 64 of 512 bits set, giving a ~(64/512)^2 ~ 1.6% false-positive target
// with the two derived probes.
//
// The filter is an optimization, never a correctness dependency: callers
// charge BytesFor() through OpMemory first and skip Init() when the charge
// fails (memory cap or injected alloc fault), degrading to filter-off.
#ifndef GSOPT_EXEC_BLOOM_H_
#define GSOPT_EXEC_BLOOM_H_

#include <cstdint>
#include <vector>

namespace gsopt::exec {

// Bloom-SIP policy knob, threaded through ExecContext / ExecuteOptions /
// SessionOptions exactly like BatchMode. kAuto activates per-join via
// BloomEligible below; kOff pins every join filter-free (the differential
// baseline); kForce builds a filter whenever the hash path runs, so tests
// exercise it on tiny inputs.
enum class BloomMode : uint8_t { kAuto = 0, kOff = 1, kForce = 2 };

// kAuto thresholds. The heuristic is planner-visible: it is a pure
// function of the build/probe cardinalities the cost model already
// estimates (optimizer/stats.h Rows), evaluated here on the actual
// runtime cardinalities. A filter pays off when the probe side is large
// enough to amortize the build-side inserts and the build side is not so
// much larger than the probe side that the filter's memory outweighs the
// probes it can save (a probe row costs at most one table lookup; a build
// row costs filter bits forever).
inline constexpr int64_t kMinBloomProbeRows = 1024;
inline constexpr int64_t kMaxBloomBuildProbeRatio = 4;

inline bool BloomEligible(BloomMode mode, int64_t build_rows,
                          int64_t probe_rows) {
  if (mode == BloomMode::kOff) return false;
  if (mode == BloomMode::kForce) return true;
  return probe_rows >= kMinBloomProbeRows && build_rows > 0 &&
         build_rows <= probe_rows * kMaxBloomBuildProbeRatio;
}

// Runtime calibration for kAuto: the eligibility heuristic cannot see the
// match rate, so the hash-join core's probe pass measures it. After
// kBloomCalibrateChecks probes, the filter stays engaged only while it is
// rejecting at least three quarters of them -- below that the per-probe
// check costs more than the table lookups it saves (measured: a 50%-match
// join runs 0.7x under a permanently-engaged filter, while ≥90% reject
// rates win 1.1-2.0x). kForce skips calibration so tests and the fuzz
// oracle keep exercising the filter path end-to-end on any data.
inline constexpr uint64_t kBloomCalibrateChecks = 2048;

inline bool BloomStillWinning(uint64_t checks, uint64_t rejects) {
  return rejects * 4 >= checks * 3;
}

class BloomFilter {
 public:
  static constexpr uint64_t kBitsPerKey = 16;
  static constexpr uint64_t kBitsPerBlock = 512;  // one cache line
  static constexpr uint64_t kWordsPerBlock = kBitsPerBlock / 64;
  // Block-count cap (64 MiB of filter); beyond this the false-positive
  // rate degrades gracefully instead of the allocation growing unbounded.
  static constexpr uint64_t kMaxBlocks = 1ull << 20;

  // Bytes Init(expected_keys) will allocate; callers charge this through
  // OpMemory before calling Init and leave the filter disabled when the
  // charge fails.
  static uint64_t BytesFor(int64_t expected_keys);

  // Allocates the zeroed block array. Idempotent per filter instance.
  void Init(int64_t expected_keys);

  // False until Init succeeds; every other member requires enabled().
  bool enabled() const { return !words_.empty(); }

  void Insert(uint64_t h) {
    uint64_t* block = &words_[BlockOf(h) * kWordsPerBlock];
    uint32_t b1 = static_cast<uint32_t>(h & (kBitsPerBlock - 1));
    uint32_t b2 = static_cast<uint32_t>((h >> 9) & (kBitsPerBlock - 1));
    block[b1 >> 6] |= 1ull << (b1 & 63);
    block[b2 >> 6] |= 1ull << (b2 & 63);
  }

  // True when the key MAY be present; false is definitive absence.
  bool MayContain(uint64_t h) const {
    const uint64_t* block = &words_[BlockOf(h) * kWordsPerBlock];
    uint32_t b1 = static_cast<uint32_t>(h & (kBitsPerBlock - 1));
    uint32_t b2 = static_cast<uint32_t>((h >> 9) & (kBitsPerBlock - 1));
    // Non-short-circuit &: both loads hit the same cache line, and the
    // single-branch form if-converts cleanly.
    return ((block[b1 >> 6] >> (b1 & 63)) & (block[b2 >> 6] >> (b2 & 63)) &
            1ull) != 0;
  }

  uint64_t byte_size() const { return words_.size() * sizeof(uint64_t); }

 private:
  static uint64_t BlocksFor(int64_t expected_keys);
  uint64_t BlockOf(uint64_t h) const { return (h >> 24) & block_mask_; }

  std::vector<uint64_t> words_;  // kWordsPerBlock per block, contiguous
  uint64_t block_mask_ = 0;      // block count - 1 (power of two)
};

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_BLOOM_H_
