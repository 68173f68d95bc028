// Fixture: a class template's out-of-class member definitions are checked
// under their in-class markers (the protocol engine's shape). Expected
// findings are asserted by scripts/lint/fm_lint_selftest.py.
#pragma once

#include <vector>

#define FM_HOT_PATH __attribute__((hot))

namespace fixture {

template <class Wire>
class Pump {
 public:
  FM_HOT_PATH void pump(int v);

 private:
  void untracked_step(int v) { (void)v; }
  std::vector<int> buf_;
};

template <class Wire>
void Pump<Wire>::pump(int v) {
  buf_.push_back(v);  // hotpath-alloc: vector growth
  untracked_step(v);  // hotpath-call: unmarked callee
}

}  // namespace fixture
