#include "base/fault_injector.h"

namespace gsopt {

namespace {

// SplitMix64 finalizer: the decision must be a pure function of
// (seed, site, ordinal) so fault schedules replay exactly from a seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kAlloc:
      return "alloc";
    case FaultSite::kSpillOpen:
      return "spill-open";
    case FaultSite::kSpillWrite:
      return "spill-write";
    case FaultSite::kSpillRead:
      return "spill-read";
    case FaultSite::kBudgetCheck:
      return "budget-check";
    case FaultSite::kNumSites:
      break;
  }
  return "unknown";
}

Status FaultInjector::MaybeFail(FaultSite site, const char* where) {
  size_t idx = static_cast<size_t>(site);
  // Probes are counted even when injection is disabled or masked off: the
  // counter doubles as a coverage oracle ("did execution reach this site"),
  // independent of whether a fault was drawn.
  uint64_t ordinal =
      probe_counts_[idx].fetch_add(1, std::memory_order_relaxed);
  if (options_.period == 0) return Status::OK();
  if ((options_.site_mask & (1u << static_cast<uint32_t>(idx))) == 0) {
    return Status::OK();
  }
  uint64_t draw = Mix(options_.seed ^ Mix(ordinal ^ (uint64_t{idx} << 56)));
  if (draw % options_.period != 0) return Status::OK();
  // Respect the total-fire cap; back out the provisional claim on overrun
  // so fired_total() never overshoots max_faults.
  if (fired_total_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_faults) {
    fired_total_.fetch_sub(1, std::memory_order_relaxed);
    return Status::OK();
  }
  fired_counts_[idx].fetch_add(1, std::memory_order_relaxed);

  std::string msg = std::string(where) + ": injected ";
  switch (site) {
    case FaultSite::kAlloc:
      return Status::ResourceExhausted(msg + "allocation failure");
    case FaultSite::kSpillOpen:
      return Status::ResourceExhausted(
          msg + "spill-open failure: no space left on device");
    case FaultSite::kSpillWrite:
      // Alternate flavors deterministically: persistent ENOSPC vs a
      // transient short write the Session retry policy may recover.
      if (draw & (1ull << 32)) {
        return Status::ResourceExhausted(
            msg + "spill-write failure: no space left on device");
      }
      return Status::Unavailable(msg + "short spill write");
    case FaultSite::kSpillRead:
      return Status::Unavailable(msg + "short spill read");
    case FaultSite::kBudgetCheck:
      return Status::ResourceExhausted(msg + "budget exhaustion");
    case FaultSite::kNumSites:
      break;
  }
  return Status::Internal(msg + "fault at unknown site");
}

uint64_t FaultInjector::probes_total() const {
  uint64_t n = 0;
  for (size_t i = 0; i < kNumSites; ++i) {
    n += probe_counts_[i].load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace gsopt
