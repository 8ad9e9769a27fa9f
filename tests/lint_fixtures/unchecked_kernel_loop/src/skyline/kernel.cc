// Fixture: a dominance-testing kernel loop that never polls the deadline —
// a timed-out or cancelled query could spin here forever. The
// kernel-deadline rule must flag it.
namespace sparkline {
namespace skyline {

int UncheckedBlockScan(const Block& block) {
  int survivors = 0;
  for (size_t i = 0; i < block.size(); ++i) {
    for (size_t j = 0; j < block.size(); ++j) {
      if (CompareRows(block[i], block[j]) == Dominance::kDominates) {
        ++survivors;
      }
    }
  }
  return survivors;
}

// Same over packed keys: the SIMD compare is a dominance test too.
int UncheckedPackedScan(const double* keys, size_t n, size_t d) {
  int dominated = 0;
  for (size_t i = 1; i < n; ++i) {
    if (CompareKeySpansComplete(keys, keys + i * d, d) ==
        Dominance::kLeftDominates) {
      ++dominated;
    }
  }
  return dominated;
}

}  // namespace skyline
}  // namespace sparkline
