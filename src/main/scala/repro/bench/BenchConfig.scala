package repro.bench

import repro.data.VectorData
import repro.data.VectorData.DatasetSpec

/** Reproduction-scale knobs shared by the `bench/` suites and the `jobs/`
  * entrypoints. The paper's collections hold 0.29M–10M vectors; this
  * single-JVM reproduction scales them to `benchN` so the full table sweep
  * (including D=1536 rotations and PCA) completes in minutes while keeping
  * every distance kernel and pruning code path hot. Test-scale variants
  * (`quickCatalog`, `quick = true` flags) exist so the bench suites can be
  * smoke-tested inside the unit-test run.
  */
object BenchConfig {

  val benchN = 8000
  val benchQueries = 30

  def catalog: Seq[DatasetSpec] = VectorData.catalog(benchN, benchQueries)
  def pruningCatalog: Seq[DatasetSpec] = VectorData.pruningCatalog(benchN, benchQueries)

  /** Small catalog for functional smoke tests of the bench harnesses. */
  def quickCatalog: Seq[DatasetSpec] = VectorData.catalog(600, 5).take(4)

  /** Table 4 sweep (paper: D in 8..8K, collections 64..131K). */
  val kernelDs: Seq[Int] = Seq(8, 16, 32, 64, 128, 256, 512, 1024, 1536)
  val kernelSizes: Seq[Int] = Seq(256, 4096, 32768)

  /** Table 5 sweep (block sizes 16..512 as in the paper). */
  val blockDs: Seq[Int] = Seq(16, 64, 256, 1024)
  val blockSizes: Seq[Int] = Seq(4096, 32768)

  /** §6.5 exact-search datasets (subset spanning D and both classes). */
  def exactSearchSpecs: Seq[DatasetSpec] =
    catalog.filter(s => Seq("NYTimes/16", "GloVe/50", "SIFT/128", "MSong/420",
                            "Contriever/768", "OpenAI/1536").contains(s.label))

  /** Table 7 dataset: the OpenAI-like high-dimensional collection, at a
    * larger N than the shared catalog — the breakdown compares scan-phase
    * costs, and at 8K vectors the scale-independent query transform
    * (O(D²)) would drown the scan shares the paper reports.
    */
  def breakdownSpec: DatasetSpec = catalog.last.copy(n = 20000)

  /** Recall@10 the Table 7 nprobe is tuned to (`Table7BenchSpec`, `Table7Job`). */
  val breakdownTargetRecall = 0.99
}
