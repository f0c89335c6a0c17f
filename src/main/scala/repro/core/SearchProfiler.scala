package repro.core

/** Wall-clock + operation-count instrumentation of one searcher, for the
  * Table 7 query-time breakdown. Pass `null` where profiling is not wanted —
  * all call sites guard on that, so the uninstrumented path reads no clock.
  * `IvfIndex.searchPdx`/`searchNary` time query prep and bucket selection
  * into the searcher's profiler.
  *
  * PDXearch's loops are batched (one distance loop and one bounds loop per
  * step), so those are timed directly. The N-ary pruned search interleaves
  * tiny per-vector segments; the searcher only counts operations there, and
  * the bench attributes the measured scan time via calibrated unit costs
  * (DESIGN.md, substitution #5).
  */
final class SearchProfiler {
  var prepNanos: Long = 0L
  var bucketsNanos: Long = 0L
  var distanceNanos: Long = 0L
  var boundsNanos: Long = 0L

  /** Total dimension values fed to distance kernels. */
  var dimValuesScanned: Long = 0L

  /** Total pruning-bound evaluations. */
  var boundEvals: Long = 0L
}
