// Deterministic seed-driven fault injection for the chaos harness.
//
// The executor threads a FaultInjector* through ExecContext and probes it
// at the points where a real deployment fails: allocation of operator
// state, spill-file open/write/read (short writes, ENOSPC) and cooperative
// budget checks. Each probe draws a pure function of (seed, site,
// ordinal) -- no wall clock, no global RNG -- so a given seed fires the
// same fault schedule on every run: probe #k at a site either always fires
// or never does.
//
// Fired faults come back as ordinary typed Statuses with "injected" in the
// message: kResourceExhausted for persistent conditions (allocation
// failure, ENOSPC, budget exhaustion) and kUnavailable for transient ones
// (short spill write/read), which is exactly the taxonomy the
// Session retry policy keys on. `max_faults` bounds total fires so a
// bounded-retry test can prove the second attempt succeeds.
#ifndef GSOPT_BASE_FAULT_INJECTOR_H_
#define GSOPT_BASE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "base/status.h"

namespace gsopt {

enum class FaultSite : uint32_t {
  kAlloc = 0,    // operator-state allocation (hash table, group map)
  kSpillOpen,    // temp-file creation (ENOSPC / EMFILE class)
  kSpillWrite,   // spill append (ENOSPC or transient short write)
  kSpillRead,    // spill read-back (transient short read)
  kBudgetCheck,  // cooperative budget probe in a kernel loop
  kNumSites,
};

const char* FaultSiteName(FaultSite site);

class FaultInjector {
 public:
  static constexpr uint64_t kNoLimit = ~0ull;

  struct Options {
    uint64_t seed = 0;
    // Fire roughly once per `period` probes (per site); 0 disables all
    // injection. period=1 fires on every probe.
    uint64_t period = 0;
    // Bit mask of enabled sites (bit i = FaultSite(i)); default all.
    uint32_t site_mask = ~0u;
    // Stop firing after this many total faults.
    uint64_t max_faults = kNoLimit;
  };

  FaultInjector() = default;
  explicit FaultInjector(Options options) : options_(options) {}

  static uint32_t MaskOf(std::initializer_list<FaultSite> sites) {
    uint32_t m = 0;
    for (FaultSite s : sites) m |= 1u << static_cast<uint32_t>(s);
    return m;
  }

  // Probe: returns OK or the injected fault for this (site, ordinal).
  // `where` names the call site and lands in the Status message.
  Status MaybeFail(FaultSite site, const char* where);

  uint64_t probes(FaultSite site) const {
    return probe_counts_[static_cast<size_t>(site)].load(
        std::memory_order_relaxed);
  }
  uint64_t fired(FaultSite site) const {
    return fired_counts_[static_cast<size_t>(site)].load(
        std::memory_order_relaxed);
  }
  uint64_t probes_total() const;
  uint64_t fired_total() const {
    return fired_total_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  static constexpr size_t kNumSites = static_cast<size_t>(FaultSite::kNumSites);

  Options options_;
  std::atomic<uint64_t> probe_counts_[kNumSites] = {};
  std::atomic<uint64_t> fired_counts_[kNumSites] = {};
  std::atomic<uint64_t> fired_total_{0};
};

}  // namespace gsopt

#endif  // GSOPT_BASE_FAULT_INJECTOR_H_
