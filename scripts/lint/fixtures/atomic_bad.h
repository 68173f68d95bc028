// Fixture for the chk-atomic rule (run with --chk-atomic-dirs pointing at
// this directory): bare std::atomic members and a bare std::atomic_ref
// must fire, the dotted allow spelling must suppress, and seam-typed state
// must pass untouched.
#pragma once

#include <atomic>
#include <cstdint>

#include "chk/shim.h"

namespace fixture {

struct RingIndices {
  // BAD: invisible to FM-Check — the explorer can never model this race.
  std::atomic<std::uint64_t> head{0};

  // BAD: qualifier spacing does not dodge the rule.
  std :: atomic<std::uint64_t> tail{0};

  // OK: waived with a justification, dotted rule spelling normalized.
  // fm-lint: allow(chk.atomic): ABI-frozen mapping shared with a C tool
  std::atomic<std::uint32_t> frozen{0};

  // OK: the seam type — instrumented under FM_CHK_MODEL, std::atomic in
  // production.
  fm::chk::atomic<std::uint64_t> seq{0};

  // A word in plain shared memory, published atomically.
  std::uint64_t stamp = 0;

  // BAD: an atomic view of plain memory is just as invisible.
  std::uint64_t load_bare() {
    return std::atomic_ref<std::uint64_t>(stamp).load();
  }

  // OK: the seam's view — std::atomic_ref in production.
  std::uint64_t load_seam() {
    return fm::chk::atomic_ref<std::uint64_t>(stamp).load();
  }
};

}  // namespace fixture
